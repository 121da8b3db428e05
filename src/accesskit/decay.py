"""Distance-decay functions mapping travel cost to a weight in [0, 1].

Every kind is nonincreasing, equals 0 beyond the catchment cutoff ``d0``,
and maps +inf to 0. The decay rate parameter ``beta`` has no default:
its value is a genuine modeling choice and must be stated explicitly.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidDecaySpec, NonAscendingBreakpoints, _real

DECAY_KINDS = ("binary", "gaussian", "exponential", "power", "zonal")
_MASK_SLICE = 4096  # entries of the output zeroed past d0 at a time


@dataclass(frozen=True)
class DecaySpec:
    """Parameters of one decay function, checked by the constructor, which
    ``from_config`` calls too.

    kind      one of binary, gaussian, exponential, power, zonal
    d0        catchment cutoff in the travel matrix's unit; weight is 0 past it.
              A zonal spec may omit it; it is then the last zone breakpoint.
    beta      rate parameter for gaussian (exp(-d^2/beta)), exponential
              (exp(-d/beta)) and power (d^-beta) kinds; given to a zonal spec
              without weights, it derives them by the midpoint rule below
    zones     for zonal: ascending breakpoints, the last one equal to d0;
              zone 1 is [0, zones[0]], zone z is (zones[z-2], zones[z-1]]
    weights   for zonal: strictly decreasing weights in (0, 1], one per zone

    The midpoint rule: zone z spanning (b_{z-1}, b_z] gets exp(-m_z^2/beta)
    at its midpoint m_z (the first zone's midpoint is b_1/2), normalized so
    zone 1 has weight 1. The derived weights are strictly decreasing, and
    the spec stores them in place of beta.

    The fields a kind does not read are stored as None.
    """

    kind: str
    d0: float | None = None
    beta: float | None = None
    zones: tuple[float, ...] | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in DECAY_KINDS:
            raise InvalidDecaySpec(f"unknown decay kind {self.kind!r}")
        if self.kind == "zonal":
            self._set_zonal()
        else:
            self._set(zones=None, weights=None)
        self._set(d0=_real(InvalidDecaySpec, self.d0,
                           f"d0 must be a positive finite cutoff, got {self.d0!r}"))
        self._set(beta=None if self.kind in ("binary", "zonal") else _real(
            InvalidDecaySpec, self.beta,
            f"{self.kind} decay requires a positive finite beta, got {self.beta!r}"))

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _set_zonal(self):
        """Check the zonal fields; derive d0 and, from beta, the weights."""
        zones = _numbers("zones", self.zones)
        weights = self.weights
        if weights is None:
            beta = _real(InvalidDecaySpec, self.beta, "zonal decay requires weights or a "
                         f"positive finite beta, got beta={self.beta!r}")
        if zones[0] <= 0 or any(a >= b for a, b in zip(zones, zones[1:])):
            raise NonAscendingBreakpoints(
                f"breakpoints must be positive and strictly ascending, got {list(zones)}")
        # the last breakpoint is positive and finite, so no other d0 can equal it
        last = "last zone breakpoint must equal d0"
        if self.d0 is not None and _real(InvalidDecaySpec, self.d0, last) != zones[-1]:
            raise InvalidDecaySpec(last)
        if weights is None:  # the midpoint rule of the class docstring
            raw = np.exp(-np.square((np.array((0.0, *zones[:-1])) + zones) / 2.0) / beta)
            weights = raw / raw[0]
        weights = _numbers("weights", weights)
        if len(weights) != len(zones):
            raise InvalidDecaySpec("need exactly one weight per zone")
        if any(not (0 < wi <= 1) for wi in weights):
            raise InvalidDecaySpec("zonal weights must lie in (0, 1]")
        if any(weights[i] <= weights[i + 1] for i in range(len(weights) - 1)):
            raise InvalidDecaySpec("zonal weights must be strictly decreasing")
        self._set(d0=zones[-1], zones=zones, weights=weights)

    @classmethod
    def from_config(cls, cfg: dict) -> "DecaySpec":
        """Build a spec from a mapping of its fields, such as
        ``{"kind": "gaussian", "beta": 180.0, "d0": 30.0}``. A key that is
        not a field, or a missing kind, is InvalidDecaySpec."""
        names = [f.name for f in fields(cls)]
        if "kind" not in cfg or not set(cfg) <= set(names):
            raise InvalidDecaySpec(
                f"a decay config needs 'kind' and takes only {names}, got {sorted(cfg)}")
        return cls(**cfg)

    def to_config(self) -> dict:
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in vars(self).items() if value is not None}


def _numbers(name: str, values) -> tuple[float, ...]:
    """Zonal ``zones`` or ``weights`` as floats. They must be a nonempty
    list, tuple or array of finite numbers; anything else is InvalidDecaySpec."""
    message = f"{name} must be a nonempty list of finite numbers, got {values!r}"
    if not isinstance(values, (list, tuple, np.ndarray)) or len(values) == 0:
        raise InvalidDecaySpec(message)
    return tuple(_real(InvalidDecaySpec, v, message, low=-math.inf) for v in values)


def evaluate_decay(spec: DecaySpec, d):
    """Evaluate the decay weight f(d) for a scalar or array of travel costs.

    Costs must be >= 0, as ``fca.Catchment`` checks: a negative cost gets a
    weight above 1 under exponential decay and NaN under power decay.
    Returns a value (or array) in [0, 1]; costs beyond ``spec.d0``, +inf and
    NaN among them, get weight 0. Each kind writes straight into the output,
    and the only other array held is one boolean mask of its shape."""
    arr = np.asarray(d, dtype=float)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    out = np.zeros(a.shape, dtype=float)
    mask = a <= spec.d0
    if spec.kind == "binary":
        np.copyto(out, mask)
    elif spec.kind == "zonal":  # last zone first, so each cost ends with its own zone's weight
        for b, w in zip(spec.zones[::-1], spec.weights[::-1]):
            np.less_equal(a, b, out=mask)
            out[mask] = w
    else:  # every cost is evaluated; those beyond d0 overflow harmlessly and are set to 0
        with np.errstate(over="ignore", divide="ignore"):
            if spec.kind == "gaussian":  # exp((d * d) / -beta), the bits of exp(-(d * d) / beta)
                np.multiply(a, a, out=out)
                out /= -spec.beta
                np.exp(out, out=out)
            elif spec.kind == "exponential":  # exp(d / -beta)
                np.divide(a, -spec.beta, out=out)
                np.exp(out, out=out)
            else:  # power: d^-beta diverges at 0; clamp so f(0) = 1 and weights stay in [0, 1]
                np.copyto(out, a)
                out **= -spec.beta
                np.minimum(out, 1.0, out=out)
        # a product with the mask zeroes every weight past d0 but a NaN cost's; a slice
        # at a time, so casting the mask to float takes a buffer of one slice
        flat_out, flat_mask = out.reshape(-1), mask.reshape(-1)
        for lo in range(0, out.size, _MASK_SLICE):
            flat_out[lo:lo + _MASK_SLICE] *= flat_mask[lo:lo + _MASK_SLICE]
        out[np.isnan(a, out=mask)] = 0.0
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)
