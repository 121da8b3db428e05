"""Exception classes shared across the toolkit.

Every error carries a ``code`` of the form ``<module>.<ClassName>`` so batch
front ends can report failures with a stable, grep-friendly identifier.
A class that also derives from ``ValueError`` replaced a bare
``ValueError``, so callers that catch ``ValueError`` still catch it.

Every overflow check of the numeric stages goes through one private helper,
``_finite``, which names the first record whose value is not finite; every
whole-number argument through ``_integer``, real number through ``_real`` and
flag through ``_flag``: the only number and bool tests outside ``cli``'s config.
"""

import numpy as np


class AccessKitError(Exception):
    """Base class for all toolkit errors."""

    module = "accesskit"

    @property
    def code(self) -> str:
        return f"{self.module}.{type(self).__name__}"


def _finite(error, compute, message: str, ids=None):
    """``compute()``, run under ``np.errstate(all="ignore")``, if every entry
    of it is finite, else ``error(message)``. ``ids``, one per entry of a
    vector, name the first bad entry in ``message``: ``"supply {!r}: ..."``."""
    with np.errstate(all="ignore"):
        result = compute()
    finite = np.isfinite(result)
    if not finite.all():
        raise error(message if ids is None else message.format(ids[np.flatnonzero(~finite)[0]]))
    return result


def _integer(error, value, name: str) -> int:
    """``value`` as an int if it is a Python or NumPy integer, else
    ``error``: a bool, a float or a string is not taken for one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(error, value, message: str, low: float = 0.0, closed: bool = False) -> float:
    """``value`` as a float if it is a Python or NumPy real, finite and above
    ``low`` (or at ``low`` when ``closed``), else ``error(message)``: a bool,
    a string or None is not taken for one, nor an int past the float range."""
    real = value.__class__ is float or (  # a plain float, the common case, first
        isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool))
    try:
        number = float(value) if real else np.nan
    except OverflowError:
        number = np.inf
    if not (-np.inf < number < np.inf and (number >= low if closed else number > low)):
        raise error(message)
    return number


def _flag(error, value, message: str) -> bool:
    """``value`` as a bool if it is a Python or NumPy bool, else ``error(message)``."""
    if not isinstance(value, (bool, np.bool_)):
        raise error(message)
    return bool(value)


# --- data_model ---------------------------------------------------------

class DataModelError(AccessKitError):
    module = "data_model"


class MissingColumn(DataModelError):
    """A required column is absent from an input file header."""


class DuplicateId(DataModelError):
    """Two records in one dataset share an id."""


class NonFiniteCoordinate(DataModelError):
    """A coordinate is NaN or infinite."""


class OutOfRangeCoordinate(DataModelError):
    """A geographic coordinate falls outside [-180, 180] x [-90, 90]."""


class NegativePopulation(DataModelError):
    """A population value is negative."""


class NonPositiveCapacity(DataModelError):
    """A supply capacity is zero or negative."""


class NonPositiveArea(DataModelError):
    """A region area is zero or negative."""


class NegativeResource(DataModelError):
    """A region resource count is negative."""


class MalformedRow(DataModelError):
    """A cell could not be parsed under the declared schema."""


class NoRecords(DataModelError, ValueError):
    """An input holds no records where at least one is needed."""


# --- travel -------------------------------------------------------------

class TravelError(AccessKitError):
    module = "travel"


class UnknownId(TravelError):
    """An origin-destination row references an id not in the dataset."""


class DuplicatePair(TravelError):
    """An origin-destination pair appears more than once."""


class NegativeCost(TravelError, ValueError):
    """A travel cost is negative or not a number."""


class NonPositiveSpeed(TravelError, ValueError):
    """A travel speed is zero, negative, infinite or not a number."""


# --- decay --------------------------------------------------------------

class DecayError(AccessKitError):
    module = "decay"


class InvalidDecaySpec(DecayError):
    """Decay parameters are incomplete or out of range for the chosen kind."""


class NonAscendingBreakpoints(DecayError):
    """Zone breakpoints are not strictly ascending and positive."""


# --- fca ----------------------------------------------------------------

class FcaError(AccessKitError):
    module = "fca"


class DimensionMismatch(FcaError):
    """Matrix dimensions disagree with the dataset."""


class WrongDecayKind(FcaError):
    """The method requires a different decay kind."""


class NonFiniteCapture(FcaError, ValueError):
    """A facility's captured demand, sum_k D_k f(d_kj), overflowed to infinity."""


class NonFiniteScore(FcaError, ValueError):
    """A supply-to-demand ratio or an accessibility score overflowed."""


# --- spatial_stats ------------------------------------------------------

class SpatialStatsError(AccessKitError):
    module = "spatial_stats"


class KTooLarge(SpatialStatsError):
    """k-nearest-neighbors requested with k outside [1, n-1]."""


class NonFiniteValue(SpatialStatsError):
    """An attribute value is NaN or infinite."""


class ZeroVariance(SpatialStatsError):
    """The attribute is constant, so autocorrelation is undefined."""


class NotRowStandardized(SpatialStatsError):
    """The statistic requires row-standardized spatial weights."""


class InvalidStatArgument(SpatialStatsError):
    """A weights or statistic argument is malformed or out of range."""


# --- equity -------------------------------------------------------------

class EquityError(AccessKitError):
    module = "equity"


class ZeroTotalResource(EquityError):
    """All regions have zero resource; agglomeration is undefined."""


class MissingPopulation(EquityError):
    """A region lacks the population needed for the demographic comparison."""


class ZeroTotalPopulation(EquityError):
    """Total population is zero; the demographic ratio is undefined."""


class AllZeroValues(EquityError):
    """Every weighted value is zero; the inequality index is undefined."""


class EmptyInput(EquityError, ValueError):
    """An equity measure was given no regions or no values."""


class NonFiniteTotal(EquityError, ValueError):
    """A Gini value, weight total or weighted value total is not finite, or a
    region total (resource, area, population) or agglomeration degree is not."""


class InvalidEpsilon(EquityError, ValueError):
    """The equality tolerance is negative, infinite or not a number."""


# --- optimize -----------------------------------------------------------

class OptimizeError(AccessKitError):
    module = "optimize"


class InstanceTooLarge(OptimizeError):
    """Exhaustive enumeration would exceed the allocation-count cap."""


class InfeasibleAllocation(OptimizeError):
    """An allocation vector violates the problem's budget or shape."""


class NonPositiveUnitSize(OptimizeError, ValueError):
    """The capacity of one allocation unit is zero, negative, infinite or not a number."""


class NonFiniteObjective(OptimizeError, ValueError):
    """An objective value, its rounding allowance, or a candidate's unit shift or
    raised capacity overflowed to infinity or NaN."""


class InvalidProblem(OptimizeError, ValueError):
    """An allocation problem's method, objective, budget or candidates are invalid."""


# --- cli ----------------------------------------------------------------

class ConfigError(AccessKitError):
    """A run configuration is missing a field or references a bad path."""

    module = "cli"
