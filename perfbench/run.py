"""trafficflow benchmark: one workload per process, or all of them.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --record out.json

A run sets up the workload (import plus network generation), then runs
whole rounds of its operations until the round boundary nearest to
``--seconds``, and at least MIN_OPS operations, checking every output
with the independent checks in ``checks.py``.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` the layer functions are wrapped
(``tracer.py``) and it holds the per-layer metrics instead.  The exit
status is 1 when any output fails its check.  ``--record`` writes the full
machine-readable record.  ``--workload all`` runs every workload twice
(untraced and traced), each in its own process, and reports the tracing
overhead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("cellgrid-sweep", "worstcase-chain", "census", "uniqueness-check")
#: Percentiles need at least ten operations beyond p90.
MIN_OPS = 100
#: Set-up is measured this many times: once in the run, the rest in
#: fresh interpreters (an import is timed only once per interpreter);
#: the median is reported.
SETUP_SAMPLES = 5
#: BLAS threads; pinned so dense kernels do not compete for the two cores.
BLAS_THREADS = 1

END_TO_END = {
    "setup_s": "s",
    "networks_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: traced function, and what is read off its spans.
_TRACED = (
    ("linalg.solve_left", ("calls", "self_s")),
    ("linalg.spectral_radius", ("calls", "self_s")),
    ("graph.strongly_connected_components", ("calls", "self_s")),
    ("structure.characterize_classes", ("calls", "self_s")),
    ("structure.check_overflow_condition", ("calls", "self_s")),
    ("solvers.solve_overflow", ("self_s",)),
    ("solvers.solve_goodman_massey", ("calls",)),
    ("solvers.enumerate_solutions", ("self_s",)),
    ("network.residual", ("calls", "self_s")),
)
PER_LAYER = {
    **{
        f"{fn}.{kind}": ("count" if kind == "calls" else "s")
        for fn, kinds in _TRACED
        for kind in kinds
    },
    "linalg.solve_left.rows": "count",
    "linalg.solve_left.mflop": "Mflop",
    "linalg.solve_left.singular": "count",
    "solvers.inner_iterations": "count",
    "solvers.outer_iterations": "count",
    "solvers.census_patterns": "count",
    "solvers.trace_bytes": "bytes",
    "generators.self_s": "s",
}


def pin_blas_threads() -> None:
    """Must run before numpy is imported, in this process or a child."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _use_checkout_source() -> None:
    if not (SRC / "trafficflow" / "__init__.py").is_file():
        raise SystemExit(f"trafficflow sources not found under {SRC}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def timed_setup(workload: str, seed: int, tiny: bool, trace: bool = False):
    """Import trafficflow and generate the workload's networks.

    Returns (ops, seconds, tracer).  With ``trace`` the tracer is installed
    between import and generation, so generation is traced; the returned
    seconds then include tracing and are not reported.
    """
    _use_checkout_source()
    start = time.perf_counter()
    import workloads
    import trafficflow

    if Path(trafficflow.__file__).resolve().parent != SRC / "trafficflow":
        raise SystemExit(f"imported trafficflow from {trafficflow.__file__}, not {SRC}")
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(trafficflow)
        tracer.install()
    ops = workloads.build(workload, seed, tiny)
    return ops, time.perf_counter() - start, tracer


def _probe_setup(workload: str, seed: int, tiny: bool) -> float:
    """Set-up time in a fresh interpreter."""
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
        f"print(repr(run.timed_setup({workload!r}, {seed!r}, {tiny!r})[1]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics.  The machine's speed drifts between a fast and
    a slow state, so operation times are bimodal; a single order
    statistic jumps between the modes from run to run, this estimate
    moves smoothly."""
    from scipy.special import betainc

    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = betainc(a, b, [k / n for k in range(n + 1)])
    return float(sum(w * v for w, v in zip(cdf[1:] - cdf[:-1], x)))


def _per_round(total, rounds):
    return total // rounds if isinstance(total, int) and total % rounds == 0 else total / rounds


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    from tracer import summarize

    ops, setup_first, tracer = timed_setup(workload, seed, tiny, trace)
    import workloads
    from checks import Incorrect
    from trafficflow.errors import TrafficFlowError

    setup_spans = tracer.drain() if tracer else []
    setup_samples = [setup_first]
    if not trace:
        setup_samples += [_probe_setup(workload, seed, tiny) for _ in range(SETUP_SAMPLES - 1)]

    op_times: list[float] = []
    counts: dict[str, int] = {}
    attempted = failed = rounds = 0
    problems: dict[str, str] = {}
    incorrect: dict[str, str] = {}
    check_s = 0.0
    clock = time.perf_counter
    loop_start = clock()
    while True:
        for op in ops:
            attempted += 1
            t0 = clock()
            try:
                result = op.run()
            except TrafficFlowError as exc:
                op_times.append(clock() - t0)
                failed += 1
                problems[op.label] = f"{type(exc).__name__}: {exc}"
                continue
            t1 = clock()
            op_times.append(t1 - t0)
            if tracer:
                tracer.active = False
            try:
                if not op.check(result):
                    failed += 1
                    problems[op.label] = "no answer from the program"
            except Incorrect as exc:
                incorrect[op.label] = str(exc)
            if tracer:
                tracer.active = True
            for key, value in workloads.iteration_counts(result).items():
                counts[key] = counts.get(key, 0) + value
            check_s += clock() - t1
        rounds += 1
        elapsed = clock() - loop_start
        # Stop at the round boundary nearest to ``seconds``, once enough
        # operations have run for the percentiles.
        if elapsed + 0.5 * elapsed / rounds >= seconds and attempted >= MIN_OPS:
            break
    loop_s = clock() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    op_ms = [t * 1e3 for t in op_times]
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "networks_per_s": attempted / loop_s,
        "op_ms.p50": quantile(op_ms, 0.5),
        "op_ms.p90": quantile(op_ms, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "attempted": attempted,
        "failed": failed,
        "correct": not incorrect,
        "failed_ops": problems,
        "incorrect_ops": incorrect,
        "loop_s": loop_s,
        "loop_s_per_round": loop_s / rounds,
        "check_s": check_s,
        "setup_samples_s": setup_samples,
        "iteration_counts_per_round": {k: _per_round(v, rounds) for k, v in counts.items()},
        "environment": environment(),
    }
    if not trace:
        record["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
        return record

    tracer.uninstall()
    run_spans = tracer.drain()
    summary = summarize(run_spans)
    setup_summary = summarize(setup_spans)
    funcs = summary["functions"]
    layer = {}
    for fn, kinds in _TRACED:
        entry = funcs.get(fn, {"calls": 0, "self_s": 0.0})
        for kind in kinds:
            layer[f"{fn}.{kind}"] = _per_round(entry[kind], rounds)
    sl = summary["solve_left"]
    layer["linalg.solve_left.rows"] = _per_round(sl["rows"], rounds)
    layer["linalg.solve_left.mflop"] = 2.0 * _per_round(sl["cubes"], rounds) / 3.0 / 1e6
    layer["linalg.solve_left.singular"] = _per_round(sl["singular"], rounds)
    for key in ("inner_iterations", "outer_iterations", "census_patterns", "trace_bytes"):
        layer[f"solvers.{key}"] = _per_round(counts.get(key, 0), rounds)
    layer["generators.self_s"] = sum(
        v["self_s"] for k, v in setup_summary["functions"].items() if k.startswith("generators.")
    )
    record["metrics"] = {k: {"value": layer[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    # Accounting: the layers' self times plus the benchmark's own time
    # (checks, measured apart) make up the traced loop's wall time; what
    # is left is loop and timer overhead outside any span.
    record["traced"] = {
        "loop_s": loop_s,
        "layers_self_s": summary["self_s"],
        "benchmark_own_s": check_s,
        "unaccounted_s": loop_s - summary["self_s"] - check_s,
        "spans": len(run_spans),
        "functions_per_round": {
            name: {k: _per_round(v, rounds) for k, v in entry.items()}
            for name, entry in sorted(funcs.items())
        },
        "setup_functions": setup_summary["functions"],
    }
    return record


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _result_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def _print_human(record: dict) -> None:
    print(
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{record['rounds']} rounds, attempted {record['attempted']}, failed {record['failed']}, "
        f"correct {str(record['correct']).lower()}"
    )
    for label, why in {**record["failed_ops"], **record["incorrect_ops"]}.items():
        print(f"  {label}: {why}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "traced" in record:
        t = record["traced"]
        print(
            f"  traced loop {t['loop_s']:.4f} s = layers {t['layers_self_s']:.4f} s"
            f" + benchmark {t['benchmark_own_s']:.4f} s"
            f" + unaccounted {t['unaccounted_s']:.4f} s"
        )


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    record_path = Path(args.record)
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            part = record_path.with_name(f"{record_path.name}.{workload}.trace{trace}")
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--record", str(part),
            ] + (["--tiny"] if args.tiny else [])
            # Exit status 1 means an incorrect output; the record says which.
            subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=900)
            results[f"{workload}/trace{trace}"] = json.loads(part.read_text())
            part.unlink()
    print(f"seed {args.seed}, {args.seconds} s per run")
    header = " ".join(f"{k:>15}" for k in END_TO_END)
    print(f"{'workload':18} {'attempted':>9} {'failed':>6} {header}  tracing overhead")
    ok = True
    for workload in WORKLOADS:
        plain = results[f"{workload}/trace0"]
        traced = results[f"{workload}/trace1"]
        # The two runs' difference is the tracing overhead.
        overhead = traced["loop_s_per_round"] / plain["loop_s_per_round"] - 1.0
        plain["tracing_overhead"] = overhead
        ok = ok and plain["correct"] and traced["correct"]
        values = " ".join(f"{plain['metrics'][k]['value']:>15.6g}" for k in END_TO_END)
        print(
            f"{workload:18} {plain['attempted']:>9} {plain['failed']:>6} {values}"
            f" {overhead:>+16.1%}"
        )
    print("units: " + ", ".join(f"{k} [{u}]" for k, u in END_TO_END.items()))
    record_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {record_path}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="write the machine-readable record here")
    parser.add_argument(
        "--tiny", action="store_true", help="tiny networks, for the self-test"
    )
    args = parser.parse_args(argv)
    pin_blas_threads()
    if args.workload == "all":
        if not args.record:
            parser.error("--workload all needs --record")
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    _print_human(record)
    print(_result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
