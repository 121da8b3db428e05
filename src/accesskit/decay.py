"""Distance-decay functions mapping travel cost to a weight in [0, 1].

Every kind is nonincreasing, equals 0 beyond the catchment cutoff ``d0``,
and maps +inf to 0. The decay rate parameter ``beta`` has no default:
its value is a genuine modeling choice and must be stated explicitly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDecaySpec, NonAscendingBreakpoints

DECAY_KINDS = ("binary", "gaussian", "exponential", "power", "zonal")


@dataclass(frozen=True)
class DecaySpec:
    """Parameters of one decay function.

    kind      one of binary, gaussian, exponential, power, zonal
    d0        catchment cutoff in the travel matrix's unit; weight is 0 past it
    beta      rate parameter for gaussian (exp(-d^2/beta)), exponential
              (exp(-d/beta)) and power (d^-beta) kinds
    zones     for zonal: ascending breakpoints, the last one equal to d0;
              zone 1 is [0, zones[0]], zone z is (zones[z-2], zones[z-1]]
    weights   for zonal: strictly decreasing weights in (0, 1], one per zone
    """

    kind: str
    d0: float
    beta: float | None = None
    zones: tuple[float, ...] | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in DECAY_KINDS:
            raise InvalidDecaySpec(f"unknown decay kind {self.kind!r}")
        if not _positive_number(self.d0):
            raise InvalidDecaySpec(f"d0 must be a positive finite cutoff, got {self.d0!r}")
        if self.kind in ("gaussian", "exponential", "power"):
            if self.beta is None:
                raise InvalidDecaySpec(f"{self.kind} decay requires beta")
            if not _positive_number(self.beta):
                raise InvalidDecaySpec(f"beta must be positive and finite, got {self.beta!r}")
        if self.kind == "zonal":
            if not self.zones or not self.weights:
                raise InvalidDecaySpec("zonal decay requires zones and weights")
            object.__setattr__(self, "zones", tuple(float(b) for b in self.zones))
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
            _check_breakpoints(self.zones)
            if len(self.weights) != len(self.zones):
                raise InvalidDecaySpec("need exactly one weight per zone")
            if self.zones[-1] != self.d0:
                raise InvalidDecaySpec("last zone breakpoint must equal d0")
            w = self.weights
            if any(not (0 < wi <= 1) for wi in w):
                raise InvalidDecaySpec("zonal weights must lie in (0, 1]")
            if any(w[i] <= w[i + 1] for i in range(len(w) - 1)):
                raise InvalidDecaySpec("zonal weights must be strictly decreasing")

    @classmethod
    def binary(cls, d0: float) -> "DecaySpec":
        return cls(kind="binary", d0=d0)

    @classmethod
    def gaussian(cls, d0: float, beta: float) -> "DecaySpec":
        return cls(kind="gaussian", d0=d0, beta=beta)

    @classmethod
    def exponential(cls, d0: float, beta: float) -> "DecaySpec":
        return cls(kind="exponential", d0=d0, beta=beta)

    @classmethod
    def power(cls, d0: float, beta: float) -> "DecaySpec":
        return cls(kind="power", d0=d0, beta=beta)

    @classmethod
    def zonal(cls, zones, weights) -> "DecaySpec":
        zones = tuple(float(b) for b in zones)
        return cls(kind="zonal", d0=zones[-1] if zones else 0.0,
                   zones=zones, weights=tuple(float(w) for w in weights))

    @classmethod
    def from_config(cls, cfg: dict) -> "DecaySpec":
        """Build a spec from a config mapping.

        ``{"kind": "gaussian", "beta": 180.0, "d0": 30.0}`` or
        ``{"kind": "zonal", "zones": [10, 20, 30], "weights": [1.0, 0.68, 0.22]}``.
        A zonal entry may give ``beta`` instead of ``weights`` to derive
        zone weights from the Gaussian midpoint rule.
        """
        kind = cfg.get("kind")
        if kind == "zonal":
            zones = cfg.get("zones")
            if not zones:
                raise InvalidDecaySpec("zonal decay config requires zones")
            if cfg.get("weights") is not None:
                return cls.zonal(zones, cfg["weights"])
            if cfg.get("beta") is not None:
                return zonal_from_gaussian(zones, cfg["beta"])
            raise InvalidDecaySpec("zonal decay config requires weights or beta")
        if kind == "binary":
            return cls.binary(_required(cfg, "d0"))
        if kind in ("gaussian", "exponential", "power"):
            return cls(kind=kind, d0=_required(cfg, "d0"), beta=_required(cfg, "beta"))
        raise InvalidDecaySpec(f"unknown decay kind {kind!r}")

    def to_config(self) -> dict:
        cfg = {"kind": self.kind, "d0": self.d0}
        if self.beta is not None:
            cfg["beta"] = self.beta
        if self.kind == "zonal":
            cfg["zones"] = list(self.zones)
            cfg["weights"] = list(self.weights)
        return cfg


def _positive_number(value) -> bool:
    """A finite int or float above 0; a bool is not a number here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


def _required(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise InvalidDecaySpec(f"{cfg.get('kind')} decay config requires {key!r}")
    return cfg[key]


def _check_breakpoints(breaks) -> None:
    if len(breaks) == 0:
        raise NonAscendingBreakpoints("need at least one breakpoint")
    if breaks[0] <= 0 or any(breaks[i] >= breaks[i + 1] for i in range(len(breaks) - 1)):
        raise NonAscendingBreakpoints(
            f"breakpoints must be positive and strictly ascending, got {list(breaks)}"
        )


def evaluate_decay(spec: DecaySpec, d):
    """Evaluate the decay weight f(d) for a scalar or array of travel costs.

    Returns a value (or array) in [0, 1]; costs beyond ``spec.d0``,
    including +inf, get weight 0.
    """
    arr = np.asarray(d, dtype=float)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    out = np.zeros(a.shape, dtype=float)
    within = a <= spec.d0
    dv = a[within]
    if spec.kind == "binary":
        out[within] = 1.0
    elif spec.kind == "gaussian":
        out[within] = np.exp(-(dv * dv) / spec.beta)
    elif spec.kind == "exponential":
        out[within] = np.exp(-dv / spec.beta)
    elif spec.kind == "power":
        # d^-beta diverges at 0; clamp so f(0) = 1 and weights stay in [0, 1]
        with np.errstate(divide="ignore"):
            out[within] = np.minimum(1.0, dv ** (-spec.beta))
    else:  # zonal
        breaks = np.asarray(spec.zones, dtype=float)
        weights = np.asarray(spec.weights, dtype=float)
        idx = np.searchsorted(breaks, dv, side="left")
        out[within] = weights[idx]
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


def zonal_from_gaussian(breakpoints, beta: float) -> DecaySpec:
    """Derive zonal weights by evaluating a Gaussian at zone midpoints.

    Zone z spanning (b_{z-1}, b_z] gets exp(-m_z^2/beta) at its midpoint m_z
    (the first zone's midpoint is b_1/2), normalized so zone 1 has weight 1.
    The resulting weights are strictly decreasing.
    """
    breaks = tuple(float(b) for b in breakpoints)
    _check_breakpoints(breaks)
    if not _positive_number(beta):
        raise InvalidDecaySpec(f"beta must be positive and finite, got {beta!r}")
    mids = [breaks[0] / 2.0]
    for lo, hi in zip(breaks, breaks[1:]):
        mids.append((lo + hi) / 2.0)
    raw = np.exp(-np.square(mids) / beta)
    weights = raw / raw[0]
    return DecaySpec.zonal(breaks, weights)
