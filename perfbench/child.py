"""One timed CLI run in a fresh process.

    python3 child.py RESULT_JSON SRC_DIR plain|spans|memory CLI_ARG...

Imports ``accesskit.cli`` (refusing any copy outside SRC_DIR), then times
``accesskit.cli.main(CLI_ARG...)`` alone and writes
``{"rc", "run_s", "cpu_s"}`` to RESULT_JSON. In ``spans`` mode the public
functions are wrapped by ``tracer.Tracer`` and the result also holds the
spans and counters under ``trace``; ``memory`` adds tracemalloc peaks.
"""

import json
import sys
import time
import tracemalloc
from pathlib import Path


def _output_bytes(argv):
    out = Path(argv[argv.index("--out") + 1])
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def main():
    result_path, src_dir, mode, *argv = sys.argv[1:]
    import accesskit.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src_dir).resolve()):
        sys.exit(f"accesskit imported from {cli.__file__}, not from {src_dir}")
    tracer = None
    if mode != "plain":
        from tracer import Tracer

        tracer = Tracer(memory=mode == "memory")
        tracer.install()
        if tracer.memory:
            tracemalloc.start()
    t0, c0 = time.perf_counter(), time.process_time()
    rc = cli.main(argv)
    run_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    result = {"rc": rc, "run_s": run_s, "cpu_s": cpu_s}
    if tracer is not None:
        tracemalloc.stop()
        tracer.counters["cli.bytes_written"] = _output_bytes(argv)
        result["trace"] = tracer.dump()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
