"""One timed set-up of sixfold in a fresh interpreter.

Set-up is the package import plus one warm-up ``verify`` per (case, path
set) of the workload.  The warm-up records arrive as JSON on stdin; the
elapsed seconds are printed as JSON on stdout.  ``run.py`` starts this
script several times per run and reports the median as ``setup_s``.
"""

import json
import sys
import time


def main() -> None:
    records = json.load(sys.stdin)
    t0 = time.perf_counter()
    import bench_program

    bench_program.pin_blas()
    sixfold = bench_program.load()
    for rec in records:
        bench_program.call(sixfold, rec, warmup=True)
    print(json.dumps(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
