"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/record.py --seeds 1-10 [--seconds 50] [--trace 0|1]
                                [--save FILE] [WORKLOAD ...]

For every workload named (by default those ``BENCHMARK.json`` lists), runs
``run.py`` once per seed, then prints
``failed_frac`` over all CLI runs and each end-to-end metric's median,
quartiles and quartile spread
((Q3 - Q1) / median, from ``statistics.quantiles(values, n=4)``) next to the
metric's bound in ``BENCHMARK.json``. ``--save`` writes the summary and
every run's result (metrics, input digests, environment) as JSON; the
baseline of the commit that defined the benchmark is ``baseline.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path)
    parser.add_argument("names", nargs="*")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    saved = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for name in args.names or [w["name"] for w in SPEC["workloads"]]:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
            last = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            out = run.OUT_ROOT / f"{name}-s{seed}-t{args.trace}" / "result.json"
            record = json.loads(out.read_text()) if out.exists() else {}
            runs.append({"seed": seed, "result": last,
                         "inputs": record.get("inputs"), "env": record.get("env")})
            ok &= bool(last and last["correct"])
            print(f"{name} seed {seed}: " + (" ".join(
                f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()
                if args.trace == 0) + f" failed={last['failed']}/{last['attempted']}"
                if last else f"exit {proc.returncode}") +
                  f" correct={last and last['correct']}", flush=True)
        good = [r["result"] for r in runs if r["result"] and r["result"]["correct"]]
        results = [r["result"] for r in runs if r["result"]]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"  failed_frac  {failed / attempted if attempted else 1.0:.4f} "
              f"({failed}/{attempted} runs; {len(runs) - len(results)} benchmark runs crashed)")
        summary = {"failed_frac": failed / attempted if attempted else 1.0}
        if good:
            for metric in good[0]["metrics"]:
                summary[metric] = summarize([g["metrics"][metric]["value"] for g in good])
                if args.trace == 0:
                    s = summary[metric]
                    print(f"  {metric:12s} median {s['median']:.6g} q1 {s['q1']:.6g} "
                          f"q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                          f"(bound {bounds.get(metric)})")
        saved["workloads"][name] = {"summary": summary, "runs": runs}
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
