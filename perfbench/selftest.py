"""Self-test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

1. Every workload runs with ``--trace 0`` and ``--trace 1`` and must be
   correct and print exactly the metrics ``BENCHMARK.json`` names, each
   with its unit.
2. A deliberately corrupted output file must be counted as a failed run,
   for one corruption per workload: a flipped LISA quadrant, a score off
   by one part in a million, and a plan unit moved to another facility.
"""

import json
import subprocess
import sys

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = workloads.DEFAULT_SEED


def expected_units(trace: int) -> dict:
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def smoke(name: str, trace: int) -> None:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == expected_units(trace), set(units) ^ set(expected_units(trace))
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), (k, v)


def flip_quadrant(out_dir):
    path = out_dir / "lisa.csv"
    lines = path.read_text().splitlines()
    head, row = lines[0], lines[1].split(",")
    row[2] = "LL" if row[2] != "LL" else "HH"
    path.write_text("\n".join([head, ",".join(row), *lines[2:]]) + "\n")


def nudge_score(out_dir):
    path = out_dir / "scores.csv"
    lines = path.read_text().splitlines()
    sid, score = lines[1].split(",")
    lines[1] = f"{sid},{float(score) * (1 + 1e-6)!r}"
    path.write_text("\n".join(lines) + "\n")


def move_unit(out_dir):
    path = out_dir / "plan.json"
    plan = json.loads(path.read_text())
    allocs = plan["allocations"]
    donor = next(a for a in allocs if a["units_added"] > 0)
    receiver = next(a for a in allocs if a is not donor and a["units_added"] == 0)
    unit_size = donor["capacity_added"] / donor["units_added"]
    for a, step in ((donor, -1), (receiver, 1)):
        a["units_added"] += step
        a["capacity_added"] = a["units_added"] * unit_size
    path.write_text(json.dumps(plan, indent=2, sort_keys=True) + "\n")


CORRUPTIONS = {"report_knn": flip_quadrant, "report_od": nudge_score, "plan_large": move_unit}


class CorruptedRun(run.Run):
    """A run whose first outputs are damaged just before they are checked."""

    def __init__(self, corrupt, *args):
        super().__init__(*args)
        self.corrupt = corrupt

    def verify(self):
        self.corrupt(self.first_out)
        super().verify()


def corrupted(name: str) -> None:
    out_dir = run.OUT_ROOT / f"selftest-corrupt-{name}"
    run.shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    bench = CorruptedRun(CORRUPTIONS[name], name, workloads.WORKLOADS[name].command,
                         SEED, "tiny", False, out_dir)
    record = bench.execute(seconds=0.0)
    assert not record["correct"], record
    assert record["failed"] == record["attempted"] >= run.MIN_SAMPLES, record
    print(f"{name}: corrupted output counted as failed: "
          f"{record['samples'][0]['problems'][0][:100]}")


def main() -> int:
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            smoke(name, trace)
            print(f"{name} trace {trace}: correct, all {len(expected_units(trace))} metrics "
                  "printed with units")
        corrupted(name)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
