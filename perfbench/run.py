"""Run one workload of the compseg benchmark and print its result.

    python3 perfbench/run.py --workload two --seed 7 --seconds 5 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`, never from an installed copy. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
line before it is the run's record (seed, engine, thread counts, digests).
A failed correctness check ends the run with exit code 1 and no result line.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# BLAS runs on one thread, fixed before numpy is imported. The GEMMs here
# are small; a second OpenBLAS thread measured no faster on two cores and
# spins on the other core, which made timings noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compseg benchmark")
    parser.add_argument("--workload", required=True, choices=("two", "four"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "compseg", "__init__.py")):
        print(f"perfbench: no compseg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    except harness.BenchmarkFailure as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({"record": result.record}, sort_keys=True))
    print(harness.result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
