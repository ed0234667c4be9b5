"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME [--seed N]
[--seconds S] [--trace 0|1] [--instance-seeds A,B,...]``.

Run from the root of a checkout.  BLAS and OpenMP are pinned to one thread
before numpy is first imported, and ``submodqp`` is imported from the
checkout's ``src`` directory.  The last line of standard output is the JSON
result; the exit status is nonzero, with no result, when the benchmark
cannot run.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


SRC = Path(__file__).resolve().parent.parent / "src"


def prepare():
    """Pin threads and import ``submodqp`` from the checkout."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import submodqp

    if not Path(submodqp.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"submodqp was imported from {submodqp.__file__}, not from {SRC}")


def main():
    try:
        prepare()
    except ImportError as e:
        print(f"perfbench: cannot import submodqp from {SRC}: {e}", file=sys.stderr)
        return 2

    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
