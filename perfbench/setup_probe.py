"""Cold start of one covrank run, measured in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR COVRANK_ARGV...

Imports numpy and covrank from SRC_DIR, parses the covrank argv with the
CLI's own parser, and makes the first LAPACK call, which starts OpenBLAS's
thread pool.  Prints one JSON line with the time of each step, then exits.
The parent times the whole probe, from spawn to the end of the LAPACK call.
"""

import json
import sys
import time


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import numpy as np

    import covrank.cli

    imported = time.perf_counter()
    covrank.cli.build_parser().parse_args(sys.argv[2:])
    parsed = time.perf_counter()
    matrix = np.random.default_rng(0).standard_normal((200, 200))
    np.linalg.svd(matrix, compute_uv=False)
    warmed = time.perf_counter()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)  # system-wide clock, read by the parent
    print(json.dumps({
        "ready_monotonic": ready,
        "import_s": imported - start,
        "argv_s": parsed - imported,
        "blas_warmup_s": warmed - parsed,
        "covrank_file": covrank.__file__,
    }), flush=True)


if __name__ == "__main__":
    main()
