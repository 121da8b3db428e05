"""Batch command-line front end.

Subcommands: access, moran, lisa, hrad, optimize, report. Parameters come
from the JSON config file if there is one, else the defaults; flags
override config fields. A bad command line, config or input exits 2 with
one ``error: module.Class: ...`` line. ``report`` is the other five
commands on one run; ``_workers.run(threads, ...)`` returns its spatial
weights from a worker beside the catchment and its plan from one beside
moran, lisa and hrad when ``threads`` allows, each computed here if its
worker fails: the files and errors of one thread.
All output texts are computed before any file is written, each atomically
(temp file, then rename), so a failing run writes nothing. All randomness
flows from the single configured seed, making reruns byte-identical.
"""

import argparse
import json
import os
import sys
import typing
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from . import _workers, equity, fca, optimize, spatial_stats
from .data_model import COORD_KINDS, load_dataset, load_regions, load_values
from .decay import DecaySpec
from .errors import AccessKitError, ConfigError, _integer
from .travel import cost_rows, load_od_matrix

# the commands that start worker processes, and so take --threads
_THREADED = ("moran", "lisa", "report")

# the units an OD table's costs and the decay's d0 may be declared in; nothing converts them
COST_UNITS = ("km", "minutes")


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
    """Resolved run parameters; config-file paths are absolute after loading."""

    coord_kind: str = "geographic"
    demand: str | None = None
    supply: str | None = None
    regions: str | None = None
    od_matrix: str | None = None
    metric: str | None = None
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
            raw = json.loads(path.read_text(encoding="utf-8-sig"))
        except UnicodeDecodeError as err:
            raise ConfigError(f"config is not UTF-8 text: {err}") from None
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
        for name in ("demand", "supply", "regions", "od_matrix", "out"):
            if raw.get(name) is not None:
                setattr(cfg, name, str((path.parent / raw[name]).resolve()))
        return cfg

    def apply_overrides(self, args) -> None:
        """Every parsed flag whose dest is a config field wins over the config."""
        for name, value in vars(args).items():
            if name in self.__dataclass_fields__:
                setattr(self, name, value)

    def validate(self) -> None:
        """Typos and missing files fail as config errors, not tracebacks."""
        for name, allowed in (
            ("coord_kind", tuple(COORD_KINDS)),
            ("cost_unit", COST_UNITS),
            ("method", fca.FCA_METHODS),
            ("objective", optimize.OBJECTIVES),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
        # the coordinate kind fixes the metric; config.json names it
        metric = COORD_KINDS[self.coord_kind].metric
        if self.metric not in (None, metric):
            raise ConfigError(f"metric must be {metric!r} for {self.coord_kind} coordinates, "
                              f"got {self.metric!r}")
        self.metric = metric
        _integer(ConfigError, self.threads, "threads", 1)
        for name in ("demand", "supply", "regions", "od_matrix"):
            value = getattr(self, name)
            if value is not None and not Path(value).is_file():
                raise ConfigError(f"{name} file not found: {value}")
        # the outputs are computed before any is written: fail on a bad out now
        out = Path(self.out)
        existing = next((p for p in (out, *out.parents) if p.exists()), None)
        if existing is not None and not existing.is_dir():
            raise ConfigError(f"out must be a directory; {existing} is not one")

    def decay_spec(self) -> DecaySpec:
        if not self.decay:
            raise ConfigError("config lacks a decay entry")
        try:
            return DecaySpec.from_config(self.decay)
        except AccessKitError as err:
            raise ConfigError(f"decay: {err}") from None

    def spatial_weights(self, locations, coord_kind):
        scheme = self.weights.get("scheme", "knn")
        if scheme not in ("knn", "distance_band"):
            raise ConfigError(f"weights: unknown scheme {scheme!r}")
        key, kind = ("k", int) if scheme == "knn" else ("band", float)
        unknown = sorted(set(self.weights) - {"scheme", key})
        if unknown:
            raise ConfigError(f"weights: the {scheme} scheme takes only {key!r}, got {unknown}")
        # only k has a default; a missing band fails as None
        value = _typed(f"weights.{key}", self.weights.get(key, 8 if key == "k" else None), kind)
        return spatial_stats.build_weights(locations, coord_kind=coord_kind, **{key: value})


class Run:
    """A resolved config and its stages. Each stage is computed on first use
    and kept, so the data behind each output file is built once."""

    def __init__(self, args):
        self.args = args
        self.cfg = RunConfig.load(args.config) if "config" in args else RunConfig()
        self.cfg.apply_overrides(args)
        self.cfg.validate()
        self.out = Path(self.cfg.out)
        self.permutation_args = {"n_permutations": self.cfg.permutations,
                                 "seed": self.cfg.seed, "threads": self.cfg.threads}

    @cached_property
    def dataset(self):
        cfg = self.cfg
        if not cfg.demand or not cfg.supply:
            raise ConfigError("config needs demand and supply paths")
        return load_dataset(cfg.demand, cfg.supply, regions_path=cfg.regions,
                            coord_kind=cfg.coord_kind)

    @cached_property
    def catchment(self):
        """The decay weights and captured demand that access and plan share.
        Computed costs stream into the weights block by block; an OD table's
        cost matrix is not kept."""
        cfg, dataset = self.cfg, self.dataset
        if cfg.od_matrix is not None:
            costs = load_od_matrix(cfg.od_matrix, dataset.demand, dataset.supply)
        else:
            costs = cost_rows(dataset, speed=cfg.speed_km_per_min)
        return fca.Catchment(cfg.method, dataset, costs, cfg.decay_spec())

    @cached_property
    def access(self):
        """The catchment, its scores read so that an overflow comes before any warning."""
        catchment = self.catchment
        catchment.scores
        for sid in catchment.warnings:
            print(f"warning: supply {sid} captures no demand", file=sys.stderr)
        return catchment

    @cached_property
    def units(self):
        """``(ids, locations, coord_kind, values)`` that moran and lisa test:
        the --values table, else report's demand sites and access scores."""
        if "values" in self.args:
            if not Path(self.args.values).is_file():
                raise ConfigError(f"values file not found: {self.args.values}")
            return load_values(self.args.values, self.args.column)
        demand = self.dataset.demand
        return demand.ids, demand.xy, self.dataset.coord_kind, self.access.scores

    @cached_property
    def unit_weights(self):
        """The spatial weights of ``units``, unless report's worker built them."""
        return self.cfg.spatial_weights(*self.units[1:3])

    @cached_property
    def weights(self):
        """``unit_weights``, with a warning for each isolated unit."""
        weights = self.unit_weights
        for i in weights.isolated:
            print(f"warning: unit {self.units[0][i]} has no neighbors in the distance band",
                  file=sys.stderr)
        return weights

    @cached_property
    def moran(self):
        return spatial_stats.morans_i(self.units[3], self.weights, **self.permutation_args)

    @cached_property
    def lisa(self):
        return spatial_stats.lisa(self.units[3], self.weights, **self.permutation_args)

    @cached_property
    def hrad(self):
        """hrad of the report's regions, or of the hrad command's --regions."""
        if "config" in self.args:
            return equity.hrad(self.dataset.regions)
        measure = equity.hrad_vs_population if "with_population" in self.args else equity.hrad
        return measure(load_regions(self.cfg.regions), epsilon=self.args.epsilon)

    @cached_property
    def plan(self):
        """``(problem, plan)``: the greedy allocation improved by local search."""
        cfg, dataset, catchment = self.cfg, self.dataset, self.catchment
        _integer(ConfigError, cfg.budget, "budget", 1)
        index = {sid: j for j, sid in enumerate(dataset.supply.ids)}
        candidates = list(index) if cfg.candidates is None else cfg.candidates
        missing = [c for c in candidates if not isinstance(c, str) or c not in index]
        if missing:
            raise ConfigError(f"candidates reference unknown supply ids: {missing}")
        problem = optimize.AllocationProblem(
            catchment=catchment, budget=cfg.budget,
            candidates=tuple(index[c] for c in candidates),
            unit_size=cfg.unit_size, objective=cfg.objective,
        )
        return problem, optimize.local_search_improve(problem, optimize.greedy_allocate(problem))


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --- commands: each returns its output files {name: text} and its stdout line

def cmd_access(run):
    text = fca.scores_csv_text(run.access, per_thousand=run.cfg.per_thousand)
    return ({"scores.csv": text}, f"wrote {run.out / 'scores.csv'} "
            f"({run.cfg.method}, {len(run.dataset.demand)} sites)")


def cmd_moran(run):
    result = run.moran
    return ({"moran.json": _json_text(spatial_stats.moran_json_dict(result))},
            f"moran I={result.i:.6f} p={result.p_value:.4f} "
            f"({result.n_permutations} permutations)")


def cmd_lisa(run):
    text = spatial_stats.lisa_csv_text(run.units[0], run.lisa)
    return {"lisa.csv": text}, f"wrote {run.out / 'lisa.csv'} ({run.weights.n} units)"


def cmd_hrad(run):
    counts = run.hrad.by_class()
    return ({"hrad.csv": equity.hrad_csv_text(run.hrad)},
            "hrad classes: " + ", ".join(f"{k}={v}" for k, v in counts.items() if v))


def cmd_optimize(run):
    problem, plan = run.plan
    return ({"plan.json": _json_text(optimize.plan_json_dict(problem, plan))},
            f"objective {problem.objective}: "
            f"{plan.objective_before!r} -> {plan.objective_after!r}")


def cmd_report(run):
    """The files of access, moran, lisa, hrad and optimize on the access
    scores, plus ``summary.json`` and the config echo ``config.json``.

    The spatial weights need only the demand sites, and the plan only the
    catchment. ``_workers.run`` builds the weights from the dataset in a
    worker while this process computes the catchment and the access scores,
    and then ``plan.json`` in another while this process runs moran, lisa
    and hrad, when ``threads`` allows two processes. It runs a failed
    worker's task here, at the place one thread runs it, so every error,
    warning and their order are the same at any ``threads``.
    """
    dataset, threads = run.dataset, run.cfg.threads
    if dataset.regions is None:
        raise ConfigError("report requires a regions file in the config")
    files, run.unit_weights = _workers.run(
        threads, lambda: cmd_access(run)[0],
        lambda: run.cfg.spatial_weights(dataset.demand.xy, dataset.coord_kind))

    def stats():
        for command in (cmd_moran, cmd_lisa, cmd_hrad):
            files.update(command(run)[0])

    files.update(_workers.run(threads, stats, lambda: cmd_optimize(run)[0])[1])
    scores, lisa = run.access.scores, run.lisa
    files["summary.json"] = _json_text({
        "n_demand": len(dataset.demand),
        "n_supply": len(dataset.supply),
        "n_regions": len(dataset.regions),
        "method": run.cfg.method,
        "seed": run.cfg.seed,
        "access": {
            "mean_score": float(scores.mean()),
            "min_score": float(scores.min()),
            "max_score": float(scores.max()),
            "zero_capture_supply_ids": list(run.access.warnings),
        },
        "moran": json.loads(files["moran.json"]),
        "lisa": {
            "quadrant_counts": Counter(lisa.quadrant),
            "significant_at_0.05": int((lisa.p_value <= 0.05).sum()),
        },
        "hrad": {"class_counts": run.hrad.by_class()},
        "optimize": json.loads(files["plan.json"]),
    })
    files["config.json"] = _json_text(vars(run.cfg))
    return files, f"report written to {run.out}"


# --- parser ----------------------------------------------------------------

class _WeightsFlag(argparse.Action):
    """Stores ``--knn K`` or ``--band KM`` as the ``weights`` config value;
    ``const`` is the scheme and the name of its parameter."""

    def __call__(self, parser, namespace, value, option_string=None):
        scheme, key = self.const
        setattr(namespace, self.dest, {"scheme": scheme, key: value})


class _Parser(argparse.ArgumentParser):
    """An argument parser, and each subcommand's, whose every error is a
    ConfigError: a bad command line exits as any other bad input does."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="accesskit",
        description="Facility accessibility, spatial equity, and reallocation planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        # an absent flag sets nothing, so it never overwrites a config field
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func)
        return p

    p = command("access", cmd_access, "compute accessibility scores")
    p.add_argument("--config", required=True)
    p.add_argument("--method", choices=fca.FCA_METHODS)
    p.add_argument("--per-thousand", action="store_true", help="report scores per 1000 people")

    for name, func, help_text in (("moran", cmd_moran, "global spatial autocorrelation"),
                                  ("lisa", cmd_lisa, "local spatial autocorrelation")):
        p = command(name, func, help_text)
        p.add_argument("--values", required=True,
                       help="CSV or GeoJSON table with id, coordinates, and value columns")
        p.add_argument("--column", required=True, help="attribute column to test")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--knn", type=int, dest="weights", metavar="KNN",
                           action=_WeightsFlag, const=("knn", "k"), help="k nearest neighbors")
        group.add_argument("--band", type=float, dest="weights", metavar="BAND",
                           action=_WeightsFlag, const=("distance_band", "band"),
                           help="distance band radius in km")
        p.add_argument("--perms", type=int, dest="permutations", metavar="PERMS",
                       help="permutation count")
        p.add_argument("--seed", type=int)

    p = command("hrad", cmd_hrad, "resource agglomeration equity")
    p.add_argument("--regions", required=True)
    p.add_argument("--with-population", action="store_true")
    p.add_argument("--epsilon", type=float, default=0.05)

    p = command("optimize", cmd_optimize, "plan a capacity reallocation")
    p.add_argument("--config", required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--unit-size", type=float)
    p.add_argument("--objective", choices=optimize.OBJECTIVES)
    p.add_argument("--method", choices=fca.FCA_METHODS)

    p = command("report", cmd_report, "full pipeline: access, stats, equity, plan")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--perms", type=int, dest="permutations", metavar="PERMS")
    p.add_argument("--per-thousand", action="store_true")

    for name, p in sub.choices.items():
        p.add_argument("--out")
        if name in _THREADED:
            p.add_argument("--threads", type=int)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        run = Run(args)
        files, line = args.func(run)
    except AccessKitError as err:
        print(f"error: {err.code}: {err}", file=sys.stderr)
        return 2
    for name, text in files.items():
        _write_atomic(run.out / name, text)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
