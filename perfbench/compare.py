"""Compare two benchmark records of the same inputs.

    python3 perfbench/compare.py BEFORE AFTER

Each argument is a ``record.py --save`` file (such as ``baseline.json``) or
one run's ``result.json``. Refuses (exit 2) when the two share no
(workload, seed) pair, or when any shared pair's input SHA-256 digests
differ: a change to the generator changes the workload, and such results do
not compare. Otherwise prints, per workload and metric, the median over the
shared seeds before and after, the ratio, and whether the change exceeds
the metric's bound in ``BENCHMARK.json``.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: (m["bound"], m["better"]) for m in SPEC["end_to_end"]}


def runs_by_key(path: str) -> dict:
    """{(workload, seed, trace): (input digests, metrics)} of correct runs."""
    data = json.loads(Path(path).read_text())
    if "workloads" not in data:  # a single run's result.json
        if not data["correct"]:
            return {}
        return {(data["workload"], data["seed"], data["trace"]): (data["inputs"], data["metrics"])}
    return {(name, r["seed"], data["trace"]): (r["inputs"], r["result"]["metrics"])
            for name, w in data["workloads"].items() for r in w["runs"]
            if r["result"] and r["result"]["correct"]}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = runs_by_key(argv[0]), runs_by_key(argv[1])
    shared = sorted(set(before) & set(after))
    if not shared:
        print("refusing to compare: no correct run of the same workload, seed and mode "
              "in both", file=sys.stderr)
        return 2
    for key in shared:
        if before[key][0] != after[key][0]:
            changed = sorted(k for k in set(before[key][0]) | set(after[key][0])
                             if before[key][0].get(k) != after[key][0].get(k))
            print(f"refusing to compare: {key[0]} seed {key[1]}: input digests differ "
                  f"for {changed}", file=sys.stderr)
            return 2
    for workload in sorted({k[0] for k in shared}):
        keys = [k for k in shared if k[0] == workload]
        print(f"{workload}: {len(keys)} seeds {[k[1] for k in keys]}")
        for metric, m in before[keys[0]][1].items():
            b = statistics.median(before[k][1][metric]["value"] for k in keys)
            a = statistics.median(after[k][1][metric]["value"] for k in keys)
            verdict = ""
            if metric in BOUNDS and b:
                bound, better = BOUNDS[metric]
                worse = (a - b) / b if better == "lower" else (b - a) / b
                verdict = f"worse by {worse:.1%} > bound {bound}" if worse > bound else "ok"
            ratio = f"{a / b:7.3f}x" if b else "      -"
            print(f"  {metric:44s} {b:14.6g} {a:14.6g} {m['unit']:8s} {ratio}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
