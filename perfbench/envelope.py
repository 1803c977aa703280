"""One-off reference measurement of ``solve_overflow`` at the README's
"few thousand nodes" envelope, too slow to be a workload:

    python3 perfbench/envelope.py

For each size N it generates ``gen_random(N, seed=N)``, solves it once on one
BLAS thread, checks the residual with the benchmark's own numpy, and
prints one JSON line with the generation and solve times and the
iteration counts.
"""

from __future__ import annotations

import json
import sys
import time

import run

SIZES = (1000, 2000)


def main() -> int:
    run.pin_blas_threads()
    run._use_checkout_source()
    import checks
    from trafficflow import generators, solvers

    for n in SIZES:
        t0 = time.perf_counter()
        net = generators.gen_random(n, seed=n)
        t1 = time.perf_counter()
        solution, trace = solvers.solve_overflow(net)
        t2 = time.perf_counter()
        res = checks.overflow_residual(net, solution.rates)
        print(
            json.dumps(
                {
                    "n": n,
                    "generate_s": t1 - t0,
                    "solve_s": t2 - t1,
                    "outer_iterations": trace.outer_iterations,
                    "inner_iterations": trace.inner_iterations_total,
                    "overloaded": len(solution.unstable),
                    "residual": res,
                    "residual_ok": res <= 1e-9,
                    "environment": run.environment(),
                }
            ),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
