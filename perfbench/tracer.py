"""Span tracer that wraps the public functions of each ``accesskit`` module.

Installed from the benchmark's own child process; the program is not
edited. Every public function defined in a layer module is wrapped, and the
wrapper is bound in every ``accesskit`` module that holds the original, so
names imported directly (``cli.load_dataset``, ``cli.build_travel_matrix``,
``optimize.gini``, ``optimize.decay_weights``, ...) are traced too.

A span records name, start, end and parent. Self time is a span's duration
minus its children's, so the self times of all spans add up to the root
span (``cli.main``). Calls made from worker threads run untraced and count
toward the calling span's self time.

Peak memory per span comes from a separate run with ``memory=True``, which
also records the tracemalloc peak reached inside each span. tracemalloc
slows allocation-heavy code several-fold (the OD CSV parse, LISA's per-unit
loop) and would distort the self times, so those come from a run without it.

Counters are read at the same boundaries from arguments and return values,
so they stay valid when the code behind a public function changes. This
module imports no NumPy: the benchmark's parent process loads it and must
stay small, because an exec'd child inherits its parent's peak RSS.
"""

import importlib
import inspect
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "data_model", "travel", "decay", "fca", "spatial_stats", "equity", "optimize")

# Public functions whose self time is reported by name.
FUNCTIONS = (
    "cli.main", "data_model.load_dataset", "travel.build_travel_matrix",
    "travel.load_od_matrix", "decay.evaluate_decay", "fca.compute_accessibility",
    "spatial_stats.build_weights", "spatial_stats.morans_i", "spatial_stats.lisa",
    "equity.hrad", "equity.gini", "optimize.greedy_allocate",
    "optimize.local_search_improve",
)
# (metric, unit, better) reported per workload from the traced run; the
# per_layer list of BENCHMARK.json.
METRICS = (
    [(f"{f}.self_s", "s", "lower") for f in FUNCTIONS]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.peak_mb", "MB", "lower") for layer in LAYERS]
    + [
        ("spatial_stats.build_weights.peak_mb", "MB", "lower"),
        ("spatial_stats.morans_i.perms_per_s", "1/s", "higher"),
        ("spatial_stats.lisa.draws", "count", "lower"),
        ("spatial_stats.nnz", "count", "lower"),
        ("spatial_stats.isolated", "count", "lower"),
        ("optimize.greedy_allocate.evals", "count", "lower"),
        ("optimize.local_search_improve.iterations", "count", "lower"),
        ("equity.gini.calls", "count", "lower"),
        ("travel.od_rows", "count", "lower"),
        ("travel.cost_mb", "MB", "lower"),
        ("decay.calls", "count", "lower"),
        ("decay.nonzero_frac", "fraction", "lower"),
        ("data_model.rows_read", "count", "lower"),
        ("cli.bytes_written", "bytes", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = []      # [id, parent, name, start, end, peak_bytes]
        self.counters = defaultdict(int)
        self._stack = []     # open spans: [id, start_bytes, peak_so_far]

    def _enter(self, name):
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([span_id, current, current])
        self.spans.append([span_id, parent, name, time.perf_counter(), None, 0])

    def _exit(self):
        end = time.perf_counter()
        span_id, start_bytes, peak = self._stack.pop()
        self.spans[span_id][4] = end
        if self.memory:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            self.spans[span_id][5] = peak - start_bytes
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        main = threading.main_thread()

        def traced(*args, **kwargs):
            if threading.current_thread() is not main:
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counters, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Wrap every public function of every layer, wherever it is bound."""
        modules = [importlib.import_module(f"accesskit.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{name}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "accesskit" or mod_name.startswith("accesskit."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, name, wrapped[obj])

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


# -- counters read at the boundaries ------------------------------------------

def _rows_read(c, args, dataset):
    c["data_model.rows_read"] += len(dataset.demand) + len(dataset.supply) + len(dataset.regions or ())


def _travel_matrix(c, args, matrix):
    c["travel.cost_mb"] += matrix.cost.nbytes / 1e6


def _od_matrix(c, args, matrix):
    _travel_matrix(c, args, matrix)
    c["travel.od_rows"] += int((matrix.cost < float("inf")).sum())


def _decay(c, args, weights):
    if hasattr(weights, "size"):  # skip scalar calls
        c["decay.nonzero"] += int((weights != 0).sum())
        c["decay.entries"] += weights.size


def _spatial_weights(c, args, weights):
    if hasattr(weights, "indptr"):
        c["spatial_stats.nnz"] += int(weights.indptr[-1])
    else:
        c["spatial_stats.nnz"] += sum(len(row) for row in weights.neighbor_indices)
    c["spatial_stats.isolated"] += len(weights.isolated)


def _moran(c, args, result):
    c["spatial_stats.perms"] += result.n_permutations


def _lisa(c, args, result):
    c["spatial_stats.lisa.draws"] += len(result.local_i) * result.n_permutations


def _greedy(c, args, plan):
    problem = args["problem"]
    c["optimize.greedy_allocate.evals"] += 1 + problem.budget * len(problem.candidates)


def _local_search(c, args, plan):
    moves = len(plan.trace) - len(args["plan"].trace)
    # one sweep per applied move, plus the final sweep that finds none
    c["optimize.local_search_improve.iterations"] += moves + (moves < args["max_iters"])


HOOKS = {
    "data_model.load_dataset": _rows_read,
    "travel.build_travel_matrix": _travel_matrix,
    "travel.load_od_matrix": _od_matrix,
    "decay.evaluate_decay": _decay,
    "spatial_stats.build_weights": _spatial_weights,
    "spatial_stats.morans_i": _moran,
    "spatial_stats.lisa": _lisa,
    "optimize.greedy_allocate": _greedy,
    "optimize.local_search_improve": _local_search,
}


# -- metrics from a dumped trace ---------------------------------------------

def _per_name(spans):
    child_time = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s, calls, inclusive, peak = (defaultdict(float), defaultdict(int),
                                      defaultdict(float), defaultdict(float))
    for span_id, _, name, start, end, peak_bytes in spans:
        self_s[name] += end - start - child_time[span_id]
        calls[name] += 1
        inclusive[name] += end - start
        peak[name] = max(peak[name], peak_bytes / 1e6)
    return self_s, calls, inclusive, peak


def metrics(timing: dict, memory: dict, run_s: float) -> tuple:
    """Per-layer metrics, and the sum of all self times of the timing run.

    ``timing`` and ``memory`` are dumps of a traced run without and with
    tracemalloc; ``run_s`` is the untraced median, for the overhead.
    """
    spans, counters = timing["spans"], timing["counters"]
    self_s, calls, inclusive, _ = _per_name(spans)
    peak = _per_name(memory["spans"])[3]
    wall = sum(end - start for _, parent, _, start, end, _ in spans if parent is None)

    out = {f"{f}.self_s": self_s[f] for f in FUNCTIONS}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for n, v in self_s.items() if n.split(".")[0] == layer)
        out[f"{layer}.peak_mb"] = max(
            (v for n, v in peak.items() if n.split(".")[0] == layer), default=0.0)
    moran_s = inclusive["spatial_stats.morans_i"]
    out.update({
        "spatial_stats.build_weights.peak_mb": peak["spatial_stats.build_weights"],
        "spatial_stats.morans_i.perms_per_s":
            counters.get("spatial_stats.perms", 0) / moran_s if moran_s else 0.0,
        "equity.gini.calls": calls["equity.gini"],
        "decay.calls": calls["decay.evaluate_decay"],
        "decay.nonzero_frac": (counters.get("decay.nonzero", 0) / counters["decay.entries"]
                               if counters.get("decay.entries") else 0.0),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - run_s,
    })
    for name, _, _ in METRICS:
        if name not in out:
            out[name] = counters.get(name, 0)
    return out, sum(self_s.values())
