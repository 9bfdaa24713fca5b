"""Run `multiupdate bench` with a single boundary timer.

    python launch.py OUT.json SRC_DIR bench-args...

The only change to the program is a wrapper on ``multiupdate.cli.run_benchmark``
that notes the monotonic time at which the sweep is entered, so the caller
can split the process lifetime into set-up and sweep. It also keeps the run
permutation fingerprints from the result. Both go to OUT.json after the CLI
returns; the CLI's exit code is this process's exit code.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    out_path, src, *bench_args = sys.argv[1:]
    import multiupdate.cli as cli
    if Path(src).resolve() not in Path(cli.__file__).resolve().parents:
        print(f"multiupdate imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 90
    run_benchmark = cli.run_benchmark
    facts: dict = {}

    def timed(*args, **kwargs):
        facts["entry"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        result = run_benchmark(*args, **kwargs)
        facts["fingerprints"] = list(getattr(result, "permutation_fingerprints", []))
        return result

    cli.run_benchmark = timed
    code = cli.main(["bench", *bench_args])
    Path(out_path).write_text(json.dumps(facts))
    return code


if __name__ == "__main__":
    sys.exit(main())
