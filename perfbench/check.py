"""Output check for one CLI run.

Two layers of checking:

1. At any seed, every output file is compared with ``oracle``'s
   independent re-computation from the input files: accessibility scores,
   zero-capture facilities, isolated units, Moran's I with its permutation
   p-value and z, LISA values, quadrants and p-values, hrad values and
   classes, and the plan (budget spent, before/after objective, no single
   unit move improving it). ``summary.json`` must agree with the files.
2. At the workload's default seed, a fingerprint of the outputs is also
   compared with the reference stored from the commit that defined the
   benchmark (``reference/<workload>[-tiny].json``), including the input
   digests, so a change to ``accesskit.synth`` cannot silently change the
   workload.

Discrete fields (quadrants, ``units_added``, hrad classes, zero-capture ids,
isolated units) must match exactly. Floats must match within ``REL_TOL``
relative to the array's largest magnitude: that passes the last-digit drift
of a reordered sum (about 1e-17 for a CSR Moran) and fails a wrong kernel.
Permutation counts may differ only where a simulated statistic lies within
``REL_TOL`` of the observed one.
"""

import csv
import json
import re
import sys
import traceback
from pathlib import Path

import numpy as np

import oracle
import workloads

REL_TOL = 1e-9
SIGNIFICANCE = 0.05
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ISOLATED_RE = re.compile(r"unit (\S+) has no neighbo")


def _close(got, want, label, problems):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{label}: shape {got.shape} != {want.shape}")
        return
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
    bad = np.abs(got - want) > REL_TOL * scale
    if bad.any():
        k = int(np.flatnonzero(bad.ravel())[0])
        problems.append(f"{label}: {int(bad.sum())} values off, first at {k}: "
                        f"{got.ravel()[k]!r} != {want.ravel()[k]!r}")


def _same(got, want, label, problems):
    if got != want:
        problems.append(f"{label}: {str(got)[:200]} != {str(want)[:200]}")


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _p_in_range(p, count_range, n_perm):
    lo, hi = count_range
    return (lo + 1) / (n_perm + 1) - 1e-12 <= p <= (hi + 1) / (n_perm + 1) + 1e-12


def read_outputs(command: str, out_dir: Path, stderr: str) -> dict:
    """Parse the files a run wrote; raises on a missing or malformed file."""
    out = {"plan": _read_json(out_dir / "plan.json")}
    if command == "report":
        out["scores"] = _read_csv(out_dir / "scores.csv")
        out["moran"] = _read_json(out_dir / "moran.json")
        out["lisa"] = _read_csv(out_dir / "lisa.csv")
        out["hrad"] = _read_csv(out_dir / "hrad.csv")
        out["summary"] = _read_json(out_dir / "summary.json")
        out["isolated"] = sorted(ISOLATED_RE.findall(stderr))
    return out


def check_plan(plan, inp, access, problems):
    cfg = inp.config
    obj = oracle.Objective(inp, access)
    _same(plan["objective"], cfg["objective"], "plan.objective", problems)
    allocs = plan["allocations"]
    _same([a["supply_id"] for a in allocs], inp.supply_ids, "plan supply ids", problems)
    units = np.array([a["units_added"] for a in allocs])
    if (units < 0).any() or units.sum() != cfg["budget"]:
        problems.append(f"plan spends {units.sum()} units, budget is {cfg['budget']}")
        return
    _close([a["capacity_added"] for a in allocs], units * float(cfg["unit_size"]),
           "plan capacity_added", problems)
    before = obj.value(obj.scores(np.zeros_like(units)))
    after = obj.value(obj.scores(units))
    _close(plan["before"], before, "plan.before", problems)
    _close(plan["after"], after, "plan.after", problems)
    if obj.better(before, after):
        problems.append("plan is worse than doing nothing")
    best = obj.best_move(units)
    if best is not None and obj.better(best, after) and abs(best - after) > REL_TOL * abs(after):
        problems.append(f"plan is not a local optimum: a single-unit move reaches {best!r}")


def check_outputs(workload, input_dir: Path, outputs: dict) -> list:
    """Compare parsed outputs with the oracle; returns a list of problems."""
    problems = []
    cfg = _read_json(input_dir / "config.json")
    inp = oracle.load_inputs(cfg, input_dir)
    access = oracle.accessibility(inp)
    check_plan(outputs["plan"], inp, access, problems)
    if workload.command != "report":
        return problems

    scores = outputs["scores"]
    _same([r["demand_id"] for r in scores], inp.demand_ids, "scores ids", problems)
    got_scores = np.array([float(r["score"]) for r in scores])
    _close(got_scores, access.scores, "scores", problems)
    values = access.scores
    n, n_perm, seed = len(values), int(cfg["permutations"]), int(cfg["seed"])

    rows = oracle.neighbours(inp.demand_xy, cfg["weights"])
    isolated = sorted(inp.demand_ids[i] for i, r in enumerate(rows) if len(r) == 0)
    _same(outputs["isolated"], isolated, "isolated units", problems)

    m = oracle.moran(values, rows, n_perm, seed)
    mj = outputs["moran"]
    for key, want in (("i", m.i), ("expected_i", m.expected), ("z", m.z_score)):
        _close(mj[key], want, f"moran.{key}", problems)
    _same((mj["permutations"], mj["seed"]), (n_perm, seed), "moran permutations/seed", problems)
    if not _p_in_range(mj["p"], m.count_range, n_perm):
        problems.append(f"moran p {mj['p']!r} outside counts {m.count_range}")

    lisa_rows = outputs["lisa"]
    _same([r["unit_id"] for r in lisa_rows], inp.demand_ids, "lisa ids", problems)
    lisa = oracle.lisa(values, rows, n_perm, seed, units=range(n))
    _close([float(r["local_i"]) for r in lisa_rows], lisa.local_i, "lisa local_i", problems)
    _same([r["quadrant"] for r in lisa_rows], lisa.quadrant, "lisa quadrants", problems)
    p_lisa = np.array([float(r["p_value"]) for r in lisa_rows])
    bad = [i for i, cr in lisa.count_ranges.items() if not _p_in_range(p_lisa[i], cr, n_perm)]
    if bad:
        problems.append(f"lisa p-values off at {len(bad)} units, first {inp.demand_ids[bad[0]]}")

    degree, classes = oracle.hrad(inp.regions)
    hrad_rows = outputs["hrad"]
    _close([float(r["hrad"]) for r in hrad_rows], degree, "hrad", problems)
    _same([r["classification"] for r in hrad_rows], classes, "hrad classes", problems)

    s = outputs["summary"]
    zero = [inp.supply_ids[j] for j in np.flatnonzero(access.captured <= 0)]
    _same(s["access"]["zero_capture_supply_ids"], zero, "zero-capture ids", problems)
    for key, want in (("mean_score", values.mean()), ("min_score", values.min()),
                      ("max_score", values.max())):
        _close(s["access"][key], want, f"summary.access.{key}", problems)
    _same((s["n_demand"], s["n_supply"], s["n_regions"], s["method"], s["seed"]),
          (n, len(inp.supply_ids), len(inp.regions), cfg["method"], seed),
          "summary sizes", problems)
    _same(s["moran"], mj, "summary moran", problems)
    quadrant_counts = {}
    for r in lisa_rows:
        quadrant_counts[r["quadrant"]] = quadrant_counts.get(r["quadrant"], 0) + 1
    _same(s["lisa"], {"quadrant_counts": quadrant_counts,
                      "significant_at_0.05": int((p_lisa <= SIGNIFICANCE).sum())},
          "summary lisa", problems)
    class_counts = {c: classes.count(c) for c in ("equal", "relatively_fair", "unfair", "undefined")}
    _same(s["hrad"]["class_counts"], class_counts, "summary hrad", problems)
    _same(s["optimize"], outputs["plan"], "summary optimize", problems)
    return problems


# --- stored reference --------------------------------------------------------

def _sample(values, k=64):
    values = np.asarray(values, dtype=float)
    idx = np.linspace(0, len(values) - 1, min(k, len(values))).astype(int)
    return {"sum": float(values.sum()), "at": [float(v) for v in values[idx]]}


def fingerprint(outputs: dict) -> dict:
    """Compact record of a run's outputs: discrete fields in full, float
    arrays as their sum and an evenly spaced sample."""
    plan = outputs["plan"]
    fp = {
        "plan": {"before": plan["before"], "after": plan["after"],
                 "units_added": [a["units_added"] for a in plan["allocations"]]},
    }
    if "summary" in outputs:
        lisa_rows = outputs["lisa"]
        fp.update({
            "scores": _sample([float(r["score"]) for r in outputs["scores"]]),
            "moran": outputs["moran"],
            "lisa_local_i": _sample([float(r["local_i"]) for r in lisa_rows]),
            "lisa_p": _sample([float(r["p_value"]) for r in lisa_rows]),
            "lisa_quadrants": "".join(r["quadrant"] for r in lisa_rows),
            "hrad": [float(r["hrad"]) for r in outputs["hrad"]],
            "hrad_classes": [r["classification"] for r in outputs["hrad"]],
            "zero_capture": outputs["summary"]["access"]["zero_capture_supply_ids"],
            "isolated": outputs["isolated"],
        })
    return fp


def _compare(got, want, label, problems):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{label}: keys differ")
            return
        for k in want:
            _compare(got[k], want[k], f"{label}.{k}", problems)
    elif isinstance(want, list) and want and all(isinstance(v, float) for v in want):
        _close(got, want, label, problems)
    elif isinstance(want, float):
        if not isinstance(got, (int, float)):
            problems.append(f"{label}: {got!r} is not a number")
        else:
            _close(got, want, label, problems)
    else:
        _same(got, want, label, problems)


def reference_path(workload_name: str, size: str) -> Path:
    suffix = "" if size == "full" else f"-{size}"
    return REFERENCE_DIR / f"{workload_name}{suffix}.json"


def check_reference(workload_name: str, size: str, digests: dict, outputs: dict) -> list:
    """Compare with the stored reference; only valid at the default seed."""
    ref = _read_json(reference_path(workload_name, size))
    problems = []
    if ref["inputs"] != digests:
        return [f"input digests differ from {reference_path(workload_name, size).name}: "
                "the generator changed, so the stored reference no longer applies"]
    _compare(fingerprint(outputs), ref["outputs"], "reference", problems)
    return problems


def main(argv) -> None:
    """``check.py WORKLOAD SIZE INPUT_DIR OUTPUT_DIR STDERR_FILE DIGESTS_JSON|-``:
    print the problems found, as a JSON list. With a digests file the
    outputs are also compared with the stored reference."""
    name, size, input_dir, out_dir, stderr_file, digests = argv
    workload = workloads.get(name, size)
    try:
        outputs = read_outputs(workload.command, Path(out_dir), Path(stderr_file).read_text())
        problems = check_outputs(workload, Path(input_dir), outputs)
        if digests != "-":
            problems += check_reference(name, size, _read_json(digests), outputs)
    except Exception:  # a missing or malformed output file is a failed check
        problems = [traceback.format_exc(limit=3)]
    print(json.dumps(problems))


if __name__ == "__main__":
    main(sys.argv[1:])
