"""Batch command-line front end.

Subcommands: access, moran, lisa, hrad, optimize, report. Runs are driven
by a JSON config file; command-line flags override config fields. Output
files are written atomically (temp file, then rename), so a failing run
never leaves a half-written file. All randomness flows from the single
configured seed, making reruns byte-identical.
"""

import argparse
import json
import os
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import equity, fca, optimize, spatial_stats
from .data_model import load_dataset, load_regions, load_values
from .decay import DecaySpec
from .errors import AccessKitError, ConfigError
from .travel import COST_UNITS, build_travel_matrix, load_od_matrix

DEFAULT_THREADS_ENV = "ACCESSKIT_THREADS"


def _env_threads() -> int | None:
    """The ACCESSKIT_THREADS thread count (at least 1), or None when the
    variable is unset or not an integer."""
    raw = os.environ.get(DEFAULT_THREADS_ENV)
    try:
        return max(1, int(raw)) if raw else None
    except ValueError:
        return None


def _typed(name: str, value, annotation):
    """``value`` if it has the annotated type, else ConfigError. A bool is
    not an int, and an int is taken as a float where a float is wanted."""
    allowed = typing.get_args(annotation) or (annotation,)
    if isinstance(value, int) and not isinstance(value, bool) and float in allowed:
        return float(value)
    if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
        raise ConfigError(f"{name} must be {getattr(annotation, '__name__', annotation)}, "
                          f"got {value!r}")
    return value


@dataclass
class RunConfig:
    """Resolved run parameters; paths are absolute after loading."""

    coord_kind: str = "geographic"
    demand: str | None = None
    supply: str | None = None
    regions: str | None = None
    od_matrix: str | None = None
    metric: str = "haversine"
    speed_km_per_min: float | None = None
    cost_unit: str = "minutes"
    method: str = "g2sfca"
    decay: dict = field(default_factory=dict)
    weights: dict = field(default_factory=lambda: {"scheme": "knn", "k": 8})
    permutations: int = 999
    seed: int = 42
    objective: str = "max_min_access"
    budget: int = 0
    unit_size: float = 1.0
    candidates: list | None = None
    per_thousand: bool = False
    threads: int = 1
    out: str = "."

    @classmethod
    def load(cls, path) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        cfg = cls()
        fields = cfg.__dataclass_fields__
        for key, value in raw.items():
            if key not in fields:
                raise ConfigError(f"unknown config field {key!r}")
            setattr(cfg, key, _typed(key, value, fields[key].type))
        base = path.parent
        for name in ("demand", "supply", "regions", "od_matrix"):
            value = getattr(cfg, name)
            if value is not None:
                setattr(cfg, name, str((base / value).resolve()))
        return cfg

    def apply_overrides(self, args) -> None:
        """Flags win over config fields; the threads default may also come
        from the ACCESSKIT_THREADS environment variable."""
        for flag, name in (
            ("method", "method"), ("objective", "objective"), ("budget", "budget"),
            ("unit_size", "unit_size"), ("seed", "seed"), ("perms", "permutations"),
            ("out", "out"),
        ):
            value = getattr(args, flag, None)
            if value is not None:
                setattr(self, name, value)
        if getattr(args, "per_thousand", False):
            self.per_thousand = True
        if getattr(args, "cost_unit", None) is not None:
            self.cost_unit = args.cost_unit
        if getattr(args, "threads", None) is not None:
            self.threads = args.threads
        else:
            self.threads = _env_threads() or self.threads

    def validate(self) -> None:
        """Whitelist checks so typos fail as config errors, not tracebacks."""
        for name, allowed in (
            ("coord_kind", ("geographic", "planar")),
            ("metric", ("haversine", "euclidean")),
            ("cost_unit", COST_UNITS),
            ("method", fca.FCA_METHODS),
            ("objective", optimize.OBJECTIVES),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")

    def decay_spec(self) -> DecaySpec:
        if not self.decay:
            raise ConfigError("config lacks a decay entry")
        try:
            return DecaySpec.from_config(self.decay)
        except AccessKitError as err:
            raise ConfigError(f"decay: {err}") from None

    def dataset(self):
        if not self.demand or not self.supply:
            raise ConfigError("config needs demand and supply paths")
        for name in ("demand", "supply", "regions", "od_matrix"):
            value = getattr(self, name)
            if value is not None and not Path(value).is_file():
                raise ConfigError(f"{name} file not found: {value}")
        return load_dataset(self.demand, self.supply, regions_path=self.regions,
                            coord_kind=self.coord_kind)

    def travel_matrix(self, dataset):
        if self.od_matrix is not None:
            return load_od_matrix(self.od_matrix, dataset.demand, dataset.supply,
                                  unit=self.cost_unit)
        return build_travel_matrix(dataset, metric=self.metric,
                                   speed=self.speed_km_per_min)

    def spatial_weights(self, locations, coord_kind):
        scheme = self.weights.get("scheme", "knn")
        if scheme == "knn":
            k = _typed("weights.k", self.weights.get("k", 8), int)
            return spatial_stats.build_weights(locations, k=k, coord_kind=coord_kind)
        if scheme == "distance_band":
            if "band" not in self.weights:
                raise ConfigError("weights: distance_band scheme requires 'band'")
            band = _typed("weights.band", self.weights["band"], float)
            return spatial_stats.build_weights(locations, band=band, coord_kind=coord_kind)
        raise ConfigError(f"weights: unknown scheme {scheme!r}")

    def candidate_indices(self, dataset) -> tuple[int, ...]:
        if self.candidates is None:
            return tuple(range(len(dataset.supply)))
        index = {s.id: j for j, s in enumerate(dataset.supply)}
        missing = [c for c in self.candidates if not isinstance(c, str) or c not in index]
        if missing:
            raise ConfigError(f"candidates reference unknown supply ids: {missing}")
        return tuple(index[c] for c in self.candidates)

    def echo_json(self) -> str:
        data = {k: getattr(self, k) for k in self.__dataclass_fields__}
        return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --- commands -------------------------------------------------------------

def cmd_access(args) -> int:
    cfg = RunConfig.load(args.config)
    cfg.apply_overrides(args)
    cfg.validate()
    dataset = cfg.dataset()
    matrix = cfg.travel_matrix(dataset)
    result = fca.compute_accessibility(cfg.method, dataset, matrix, cfg.decay_spec())
    out = Path(cfg.out)
    _write_atomic(out / "scores.csv",
                  fca.scores_csv_text(result, dataset, per_thousand=cfg.per_thousand))
    for sid in result.warnings:
        print(f"warning: supply {sid} captures no demand", file=sys.stderr)
    print(f"wrote {out / 'scores.csv'} ({cfg.method}, {len(dataset.demand)} sites)")
    return 0


def _warn_isolated(weights, ids) -> None:
    for i in weights.isolated:
        print(f"warning: unit {ids[i]} has no neighbors in the distance band",
              file=sys.stderr)


def _stat_inputs(args):
    if not Path(args.values).is_file():
        raise ConfigError(f"values file not found: {args.values}")
    ids, locations, coord_kind, values = load_values(args.values, args.column)
    if args.knn is not None:
        weights = spatial_stats.build_weights(locations, k=args.knn, coord_kind=coord_kind)
    else:
        weights = spatial_stats.build_weights(locations, band=args.band, coord_kind=coord_kind)
    _warn_isolated(weights, ids)
    return ids, values, weights


def cmd_moran(args) -> int:
    ids, values, weights = _stat_inputs(args)
    result = spatial_stats.morans_i(values, weights, n_permutations=args.perms,
                                    seed=args.seed, threads=args.threads)
    out = Path(args.out)
    _write_atomic(out / "moran.json", _json_text(spatial_stats.moran_json_dict(result)))
    print(f"moran I={result.i:.6f} p={result.p_value:.4f} "
          f"({result.n_permutations} permutations)")
    return 0


def cmd_lisa(args) -> int:
    ids, values, weights = _stat_inputs(args)
    result = spatial_stats.lisa(values, weights, n_permutations=args.perms,
                                seed=args.seed, threads=args.threads)
    out = Path(args.out)
    _write_atomic(out / "lisa.csv", spatial_stats.lisa_csv_text(ids, result))
    print(f"wrote {out / 'lisa.csv'} ({weights.n} units)")
    return 0


def cmd_hrad(args) -> int:
    regions = load_regions(args.regions)
    if args.with_population:
        result = equity.hrad_vs_population(regions, epsilon=args.epsilon)
    else:
        result = equity.hrad(regions, epsilon=args.epsilon)
    out = Path(args.out)
    _write_atomic(out / "hrad.csv", equity.hrad_csv_text(result))
    counts = result.by_class()
    print("hrad classes: " + ", ".join(f"{k}={v}" for k, v in counts.items() if v))
    return 0


def _build_problem(cfg, dataset, matrix):
    if cfg.budget < 1:
        raise ConfigError("optimization requires budget >= 1")
    return optimize.AllocationProblem(
        dataset=dataset, matrix=matrix, decay=cfg.decay_spec(),
        budget=cfg.budget, candidates=cfg.candidate_indices(dataset),
        method=cfg.method, unit_size=cfg.unit_size, objective=cfg.objective,
    )


def cmd_optimize(args) -> int:
    cfg = RunConfig.load(args.config)
    cfg.apply_overrides(args)
    cfg.validate()
    dataset = cfg.dataset()
    matrix = cfg.travel_matrix(dataset)
    problem = _build_problem(cfg, dataset, matrix)
    plan = optimize.local_search_improve(problem, optimize.greedy_allocate(problem))
    out = Path(cfg.out)
    _write_atomic(out / "plan.json", _json_text(optimize.plan_json_dict(problem, plan)))
    print(f"objective {cfg.objective}: {plan.objective_before!r} -> {plan.objective_after!r}")
    return 0


def cmd_report(args) -> int:
    cfg = RunConfig.load(args.config)
    cfg.apply_overrides(args)
    cfg.validate()
    dataset = cfg.dataset()
    if dataset.regions is None:
        raise ConfigError("report requires a regions file in the config")
    matrix = cfg.travel_matrix(dataset)

    access = fca.compute_accessibility(cfg.method, dataset, matrix, cfg.decay_spec())
    locations = np.array([(s.x, s.y) for s in dataset.demand])
    weights = cfg.spatial_weights(locations, dataset.coord_kind)
    _warn_isolated(weights, [s.id for s in dataset.demand])
    moran = spatial_stats.morans_i(access.scores, weights, n_permutations=cfg.permutations,
                                   seed=cfg.seed, threads=cfg.threads)
    lisa_res = spatial_stats.lisa(access.scores, weights, n_permutations=cfg.permutations,
                                  seed=cfg.seed, threads=cfg.threads)
    hrad_res = equity.hrad(dataset.regions)
    problem = _build_problem(cfg, dataset, matrix)
    plan = optimize.local_search_improve(problem, optimize.greedy_allocate(problem))

    quadrant_counts = {}
    for q in lisa_res.quadrant:
        quadrant_counts[q] = quadrant_counts.get(q, 0) + 1
    summary = {
        "n_demand": len(dataset.demand),
        "n_supply": len(dataset.supply),
        "n_regions": len(dataset.regions),
        "method": cfg.method,
        "seed": cfg.seed,
        "access": {
            "mean_score": float(access.scores.mean()),
            "min_score": float(access.scores.min()),
            "max_score": float(access.scores.max()),
            "zero_capture_supply_ids": list(access.warnings),
        },
        "moran": spatial_stats.moran_json_dict(moran),
        "lisa": {
            "quadrant_counts": quadrant_counts,
            "significant_at_0.05": int((lisa_res.p_value <= 0.05).sum()),
        },
        "hrad": {"class_counts": hrad_res.by_class()},
        "optimize": optimize.plan_json_dict(problem, plan),
    }

    out = Path(cfg.out)
    ids = [s.id for s in dataset.demand]
    _write_atomic(out / "scores.csv",
                  fca.scores_csv_text(access, dataset, per_thousand=cfg.per_thousand))
    _write_atomic(out / "moran.json", _json_text(spatial_stats.moran_json_dict(moran)))
    _write_atomic(out / "lisa.csv", spatial_stats.lisa_csv_text(ids, lisa_res))
    _write_atomic(out / "hrad.csv", equity.hrad_csv_text(hrad_res))
    _write_atomic(out / "plan.json", _json_text(optimize.plan_json_dict(problem, plan)))
    _write_atomic(out / "summary.json", _json_text(summary))
    _write_atomic(out / "config.json", cfg.echo_json())
    print(f"report written to {out}")
    return 0


# --- parser ----------------------------------------------------------------

def _add_stat_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--values", required=True,
                   help="CSV or GeoJSON table with id, coordinates, and value columns")
    p.add_argument("--column", required=True, help="attribute column to test")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--knn", type=int, help="k nearest neighbors")
    group.add_argument("--band", type=float, help="distance band radius in km")
    p.add_argument("--perms", type=int, default=999, help="permutation count")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=".")
    p.add_argument("--threads", type=int, default=_env_threads() or 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accesskit",
        description="Facility accessibility, spatial equity, and reallocation planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("access", help="compute accessibility scores")
    p.add_argument("--config", required=True)
    p.add_argument("--method", choices=fca.FCA_METHODS)
    p.add_argument("--per-thousand", dest="per_thousand", action="store_true",
                   help="report scores per 1000 people")
    p.add_argument("--cost-unit", dest="cost_unit", choices=("km", "minutes"),
                   help="unit of costs in an origin-destination file")
    p.add_argument("--out")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_access)

    p = sub.add_parser("moran", help="global spatial autocorrelation")
    _add_stat_flags(p)
    p.set_defaults(func=cmd_moran)

    p = sub.add_parser("lisa", help="local spatial autocorrelation")
    _add_stat_flags(p)
    p.set_defaults(func=cmd_lisa)

    p = sub.add_parser("hrad", help="resource agglomeration equity")
    p.add_argument("--regions", required=True)
    p.add_argument("--with-population", dest="with_population", action="store_true")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_hrad)

    p = sub.add_parser("optimize", help="plan a capacity reallocation")
    p.add_argument("--config", required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--unit-size", dest="unit_size", type=float)
    p.add_argument("--objective", choices=optimize.OBJECTIVES)
    p.add_argument("--method", choices=fca.FCA_METHODS)
    p.add_argument("--out")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("report", help="full pipeline: access, stats, equity, plan")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--perms", type=int)
    p.add_argument("--per-thousand", dest="per_thousand", action="store_true")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AccessKitError as err:
        print(f"error: {err.code}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
