"""accesskit benchmark: the real CLI on generated workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.

One run generates the workload's input files from the seed (untimed, see
``workloads.py``), then:

* ``setup_s``: median wall time of fresh interpreters that only
  ``import accesskit.cli``, ``SETUP_PER_ROUND`` of them before every CLI
  sample, so they see the same machine as ``run_s``; one warm-up import
  first caches bytecode (under ``perfbench/out/pycache``) as it is for an
  installed CLI.
* ``run_s``: median wall time of ``accesskit.cli.main([...])`` in a fresh
  process, after import, over as many samples as fit in ``--seconds``
  (at least ``MIN_SAMPLES``).
* ``peak_rss_mb``: median peak resident memory of those processes, from
  ``os.wait4`` rusage.
* After timing, the first sample's outputs are checked (``check.py``)
  against the independent oracle and, at the default seed, the stored
  reference; every other sample's outputs must be byte-identical to the
  first's. A sample that exits nonzero or fails the check counts in
  ``failed``; ``failed_frac`` is failed / attempted.

With ``--trace 1`` each untraced sample is followed by one traced for
time (spans only) and one traced for memory (spans and tracemalloc). The
per-layer metrics of ``tracer.py`` come from the time-traced sample with
the median wall time and from the first memory-traced sample; their spans
are kept in ``sample<k>.json`` next to ``result.json``.

Child processes get ``OPENBLAS_NUM_THREADS=1``, ``OMP_NUM_THREADS=1`` and no
``ACCESSKIT_THREADS``, so a workload's ``threads`` setting is its only
parallelism. Generation and checking also run in child processes: this
process imports no NumPy and stays small, because an exec'd child inherits
its parent's peak RSS as its own floor.

The last line of standard output is the JSON result; the full record
(environment, input digests, samples) goes to ``perfbench/out/<run>/result.json``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_ROOT = BENCH / "out"

SETUP_PER_ROUND = 3
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("ACCESSKIT_THREADS", "PYTHONDONTWRITEBYTECODE")}
    # bytecode is cached under the benchmark's own output, never beside sources
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(OUT_ROOT / "pycache"))
    return env


def spawn(args, out_dir: Path, tag: str):
    """Run ``python3 ARGS`` to completion; returns (exit code, wall s, peak RSS MB).

    Standard output and error go to ``out_dir/tag.stdout`` and ``.stderr``.
    """
    with open(out_dir / f"{tag}.stdout", "wb") as out, open(out_dir / f"{tag}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def helper(args, out_dir: Path, tag: str):
    """Run a benchmark helper script and parse the JSON it prints."""
    rc, _, _ = spawn([str(BENCH / args[0]), *args[1:]], out_dir, tag)
    if rc != 0:
        raise RuntimeError(f"{args[0]} failed; see {out_dir / tag}.stderr")
    return json.loads((out_dir / f"{tag}.stdout").read_text())


def digest_dir(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, name: str, command: str, seed: int, size: str, trace: bool,
                 out_dir: Path):
        self.name, self.command, self.seed, self.size = name, command, seed, size
        self.trace = trace
        self.out = out_dir
        self.inputs = out_dir / "inputs"
        self.cli_out = out_dir / "cli-out"   # one directory, so the config echo repeats
        self.first_out = out_dir / "first-out"
        self.samples = []

    def generate(self) -> None:
        made = helper(["workloads.py", self.name, self.size, str(self.seed), str(self.inputs)],
                      self.out, "generate")
        self.config, self.digests, self.env = made["config"], made["inputs"], made["env"]
        (self.out / "inputs.json").write_text(json.dumps(self.digests))

    def measure_setup(self, count: int) -> list:
        times = []
        for _ in range(count):
            rc, wall, _ = spawn(["-c", "import accesskit.cli"], self.out, "setup")
            if rc != 0:
                raise RuntimeError(f"import accesskit.cli failed; see {self.out}/setup.stderr")
            times.append(wall)
        return times

    def sample(self, mode: str = "plain") -> dict:
        """One CLI run in a fresh process; ``mode`` is plain, spans or memory."""
        tag = f"sample{len(self.samples)}"
        shutil.rmtree(self.cli_out, ignore_errors=True)
        self.cli_out.mkdir()
        result_path = self.out / f"{tag}.json"
        argv = [self.command, "--config", self.config, "--out", str(self.cli_out)]
        rc, wall, rss = spawn([str(BENCH / "child.py"), str(result_path), str(SRC), mode, *argv],
                              self.out, tag)
        s = {"tag": tag, "kind": mode, "rc": rc, "wall_s": wall, "rss_mb": rss, "problems": []}
        if rc != 0:
            s["problems"] = [f"exit code {rc}; see {tag}.stderr"]
        else:
            timing = json.loads(result_path.read_text())
            s["run_s"], s["cpu_s"] = timing["run_s"], timing["cpu_s"]
            s["outputs"] = digest_dir(self.cli_out)
            if not self.first_out.exists():
                shutil.copytree(self.cli_out, self.first_out)
                shutil.copy(self.out / f"{tag}.stderr", self.out / "first.stderr")
        self.samples.append(s)
        return s

    def verify(self) -> None:
        """Check the first outputs; every other sample must repeat them."""
        ran = [s for s in self.samples if s["rc"] == 0]
        if not ran:
            return
        reference = str(self.out / "inputs.json") if self.seed == workloads.DEFAULT_SEED else "-"
        problems = helper(["check.py", self.name, self.size, str(self.inputs),
                           str(self.first_out), str(self.out / "first.stderr"), reference],
                          self.out, "check")
        first = ran[0]["outputs"]
        for s in ran:
            if s["outputs"] != first:
                s["problems"] = ["outputs differ from the first sample's: " + str(
                    sorted(k for k in s["outputs"] if s["outputs"][k] != first.get(k)))]
            else:
                s["problems"] = list(problems)

    def trace_of(self, tag: str) -> dict:
        return json.loads((self.out / f"{tag}.json").read_text())["trace"]

    def execute(self, seconds: float) -> dict:
        self.generate()
        self.measure_setup(1)  # warm-up: writes bytecode once
        setup = []
        start = time.perf_counter()
        rounds = 0
        while True:
            setup += self.measure_setup(SETUP_PER_ROUND)
            for mode in ("plain", "spans", "memory") if self.trace else ("plain",):
                self.sample(mode)
            rounds += 1
            elapsed = time.perf_counter() - start
            min_rounds = 1 if self.trace else MIN_SAMPLES
            if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
                break
        self.verify()
        for s in self.samples:
            s["ok"] = not s["problems"]
        record = {
            "workload": self.name, "size": self.size, "seed": self.seed,
            "trace": int(self.trace), "env": self.env, "inputs": self.digests,
            "setup_samples_s": setup, "samples": self.samples,
            "attempted": len(self.samples), "failed": sum(not s["ok"] for s in self.samples),
            "problems": [],
        }
        ok = {kind: sorted((s for s in self.samples if s["kind"] == kind and s["ok"]),
                           key=lambda s: s["run_s"]) for kind in ("plain", "spans", "memory")}
        timed = ok["plain"]
        metrics, units = {}, END_TO_END
        if timed and not self.trace:
            metrics = {"run_s": statistics.median(s["run_s"] for s in timed),
                       "setup_s": statistics.median(setup),
                       "peak_rss_mb": statistics.median(s["rss_mb"] for s in timed)}
        elif timed and ok["spans"] and ok["memory"]:
            spans = ok["spans"][(len(ok["spans"]) - 1) // 2]["tag"]
            memory = ok["memory"][0]["tag"]
            metrics, self_sum = tracer.metrics(
                self.trace_of(spans), self.trace_of(memory),
                statistics.median(s["run_s"] for s in timed))
            units = {name: unit for name, unit, _ in tracer.METRICS}
            record["spans"] = {"time": f"{spans}.json", "memory": f"{memory}.json"}
            record["self_sum_s"] = self_sum
            wall = metrics["trace.wall_s"]
            if abs(self_sum - wall) > 1e-6 * wall:
                record["problems"].append(f"self times sum to {self_sum} s, wall is {wall} s")
        record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        record["correct"] = bool(metrics) and record["failed"] == 0 and not record["problems"]
        (self.out / "result.json").write_text(json.dumps(record, indent=1) + "\n")
        return record


def print_report(record: dict, out_dir: Path) -> None:
    env = record["env"]
    print(f"workload {record['workload']} ({record['size']}) seed {record['seed']} "
          f"trace {record['trace']}")
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for name, digest in record["inputs"].items():
        print(f"input {name} sha256={digest}")
    timed = [s for s in record["samples"] if s["kind"] == "plain" and s["ok"]]
    counts = {"run_s": len(timed), "peak_rss_mb": len(timed),
              "setup_s": len(record["setup_samples_s"])}
    for name, m in record["metrics"].items():
        n = f"  (median of {counts[name]})" if name in counts else ""
        print(f"{name:44s} {m['value']:16.6f} {m['unit']}{n}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"{'failed_frac':44s} {failed / attempted:16.6f} ({failed}/{attempted} runs)")
    for s in record["samples"]:
        for p in s["problems"]:
            print(f"{s['tag']} ({s['kind']}): {p}")
    for p in record["problems"]:
        print(p)
    print(f"record {out_dir / 'result.json'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the same workloads at smoke-test size")
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if not (SRC / "accesskit" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'accesskit' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    tag = "-tiny" if args.size == "tiny" else ""
    out_dir = OUT_ROOT / f"{args.workload}{tag}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    record = Run(args.workload, workloads.WORKLOADS[args.workload].command, args.seed,
                 args.size, bool(args.trace), out_dir).execute(args.seconds)
    print_report(record, out_dir)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
