"""Store the reference outputs that later runs at the default seed must match.

    python3 perfbench/make_reference.py [--size full|tiny] [WORKLOAD ...]

Runs each workload once at ``workloads.DEFAULT_SEED``, requires the outputs
to pass the oracle check, and writes ``reference/<workload>[-tiny].json``
with the input digests and the output fingerprint. Run it only on the
commit whose outputs define "correct"; a change that alters outputs on
purpose must say so when it rewrites these files.
"""

import argparse
import json
import shutil
import sys

import check
import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("names", nargs="*")
    args = parser.parse_args()

    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.names or list(workloads.WORKLOADS):
        out_dir = run.OUT_ROOT / f"reference-{name}-{args.size}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        bench = run.Run(name, workloads.WORKLOADS[name].command, workloads.DEFAULT_SEED,
                        args.size, False, out_dir)
        bench.generate()
        bench.sample()
        problems = run.helper(["check.py", name, args.size, str(bench.inputs),
                               str(bench.first_out), str(out_dir / "first.stderr"), "-"],
                              out_dir, "check")
        if bench.samples[0]["rc"] != 0 or problems:
            print(f"{name}: not stored, the run failed: {bench.samples[0]} {problems}",
                  file=sys.stderr)
            return 1
        outputs = check.read_outputs(bench.command, bench.first_out,
                                     (out_dir / "first.stderr").read_text())
        path = check.reference_path(name, args.size)
        path.write_text(json.dumps({"seed": workloads.DEFAULT_SEED, "inputs": bench.digests,
                                    "outputs": check.fingerprint(outputs)}, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
