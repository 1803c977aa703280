"""Command-line front end.

Subcommands: solve, check, oracle, heatmap, worstcase, gen.  Node sets
are printed 1-based; library indices are 0-based.

Exit codes: 0 success; 1 I/O, parse, or usage errors; 2 isolated-class
(non-isolated condition fails); 3 uniqueness-condition failure without
--best-effort (or a singular inner system / spectral-radius gate); 4
non-convergence under best effort.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor

from .errors import (
    ConditionNotVerifiedError,
    IsolatedClassError,
    NetworkFormatError,
    NonConvergenceError,
    OracleSizeError,
    SingularInnerSystemError,
    SpectralRadiusAtLeastOneError,
)
from .generators import (
    CellGridSpec,
    gen_example1,
    gen_example2,
    gen_example3,
    gen_example4,
    gen_random,
)
from .network import Equation, load_network, save_network
from .solvers import (
    OracleKind,
    enumerate_solutions,
    solve_goodman_massey,
    solve_jackson,
    solve_overflow,
)
from .structure import condition_report


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_vector(v) -> str:
    return "[" + ", ".join(_fmt(float(x)) for x in v) + "]"


def _fmt_set(s) -> str:
    return "{" + ", ".join(str(i + 1) for i in sorted(s)) + "}"


def _cmd_solve(args) -> int:
    net = load_network(args.file)
    kind = {"jackson": Equation.JACKSON, "gm": Equation.GOODMAN_MASSEY,
            "overflow": Equation.OVERFLOW}[args.kind]
    if kind is Equation.JACKSON:
        solution = solve_jackson(net)
        outer = inner = 1
    elif kind is Equation.GOODMAN_MASSEY:
        solution, trace = solve_goodman_massey(net)
        outer, inner = trace.outer_iterations, trace.inner_iterations_total
    else:
        solution, trace = solve_overflow(net, best_effort=args.best_effort)
        outer, inner = trace.outer_iterations, trace.inner_iterations_total
    print(f"equation: {solution.equation.value}")
    print(f"rates: {_fmt_vector(solution.rates)}")
    print(f"stable: {_fmt_set(solution.stable)}")
    print(f"unstable: {_fmt_set(solution.unstable)}")
    print(f"residual: {_fmt(solution.residual)}")
    print(f"outer iterations: {outer}")
    print(f"inner iterations: {inner}")
    return 0


def _cmd_check(args) -> int:
    net = load_network(args.file)
    report = condition_report(net)
    dec = report.decomposition
    print("classes:")
    for k, cls in enumerate(dec.classes):
        flags = (
            f"fillable={'yes' if dec.fillable[k] else 'no'} "
            f"ext-drained={'yes' if dec.ext_drainable[k] else 'no'} "
            f"int-drained={'yes' if dec.int_drainable[k] else 'no'} "
            f"isolated={'yes' if dec.isolated[k] else 'no'} "
            f"level={dec.levels[k]}"
        )
        print(f"  C{k + 1} = {_fmt_set(cls)}  {flags}")
    print(f"FD: {'yes' if report.filled_or_drained else 'no'}")
    print(f"NI: {'yes' if report.non_isolated else 'no'}")
    print(f"gm-unstable: {_fmt_set(report.gm_unstable)}")
    print(f"overflow condition: {report.overflow_condition}")
    return 0


def _cmd_oracle(args) -> int:
    net = load_network(args.file)
    verdict = enumerate_solutions(net)
    checked = f"({verdict.patterns_checked} patterns checked)"
    if verdict.kind is OracleKind.NO_SOLUTION:
        print(f"NoSolution {checked}")
    elif verdict.kind is OracleKind.UNIQUE:
        print(f"Unique {checked}")
        print(f"rates: {_fmt_vector(verdict.solutions[0])}")
    elif verdict.kind is OracleKind.CONTINUUM:
        print(f"Continuum {checked}")
        print(f"pattern: stable {_fmt_set(verdict.pattern)}")
        print(f"base: {_fmt_vector(verdict.base)}")
        print(f"direction: {verdict.direction_note}")
    else:
        print(f"MultipleIsolated {checked}")
        for sol in verdict.solutions:
            print(f"rates: {_fmt_vector(sol)}")
    return 0


def _heatmap_point(task):
    m, delta, eps = task
    net = gen_example1(CellGridSpec(m=m, delta=delta, epsilon=eps))
    solution, trace = solve_overflow(net)
    fraction = len(solution.unstable) / net.n
    return fraction, trace.outer_iterations, trace.inner_iterations_total


def _grid_ticks(step: float) -> list[float]:
    """0, step, 2*step, ... and a last tick at 1; the tolerance keeps a
    step that divides 1 up to rounding from adding a duplicate tick."""
    count = math.ceil(1.0 / step - 1e-9)
    return [min(k * step, 1.0) for k in range(count + 1)]


def _write_svg(path, deltas, epsilons, fractions) -> None:
    cell = 8
    width = len(deltas) * cell
    height = len(epsilons) * cell
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    for di in range(len(deltas)):
        for ei in range(len(epsilons)):
            g = round(255 * (1.0 - fractions[di][ei]))
            x = di * cell
            y = (len(epsilons) - 1 - ei) * cell
            lines.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="rgb({g},{g},{g})"/>'
            )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_heatmap(args) -> int:
    if args.m < 2:
        raise ValueError(f"--m must be >= 2, got {args.m}")
    if not 0.0 < args.step <= 0.5:
        raise ValueError(f"--step must be in (0, 0.5], got {args.step}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    ticks = _grid_ticks(args.step)
    tasks = [(args.m, d, e) for d in ticks for e in ticks]
    if args.jobs == 1:
        results = [_heatmap_point(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_heatmap_point, tasks, chunksize=8))

    k = len(ticks)
    fractions = [[results[di * k + ei][0] for ei in range(k)] for di in range(k)]
    n = 4 * args.m * args.m

    csv_path = args.out + ".csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("delta,epsilon,fraction,outer_iters,inner_iters\n")
        for di, d in enumerate(ticks):
            for ei, e in enumerate(ticks):
                fraction, outer, inner = results[di * k + ei]
                fh.write(f"{d!r},{e!r},{fraction!r},{outer},{inner}\n")
    svg_path = args.out + ".svg"
    _write_svg(svg_path, ticks, ticks, fractions)

    slack = 1.0 / n
    soft_violations = 0
    for di in range(k):
        for ei in range(k):
            if di + 1 < k and fractions[di + 1][ei] < fractions[di][ei] - slack - 1e-12:
                soft_violations += 1
            if ei + 1 < k and fractions[di][ei + 1] < fractions[di][ei] - slack - 1e-12:
                soft_violations += 1
    flat = [f for row in fractions for f in row]
    print(f"grid: {k} x {k} points, n = {n}")
    print(f"fraction range: [{min(flat):.6g}, {max(flat):.6g}]")
    if soft_violations:
        print(f"monotonicity: {soft_violations} grid steps decrease beyond 1/n slack")
    else:
        print("monotonicity: non-decreasing within 1/n slack")
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return 0


def _cmd_worstcase(args) -> int:
    if args.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
    failures = 0
    print("n expected_inner actual_inner residual status")
    for n in range(1, args.n_max + 1):
        net = gen_example2(n)
        solution, trace = solve_overflow(
            net, best_effort=True, delegate_zero_overflow=False
        )
        expected = 1 + n * (n + 1) // 2
        ok = (
            trace.inner_iterations_total == expected
            and solution.residual < 1e-9
        )
        failures += 0 if ok else 1
        print(
            f"{n} {expected} {trace.inner_iterations_total} "
            f"{solution.residual:.3e} {'ok' if ok else 'MISMATCH'}"
        )
    if failures:
        print(f"{failures} mismatches")
        return 1
    print("all rows match")
    return 0


def _cmd_gen(args) -> int:
    if args.generator == "example1":
        net = gen_example1(CellGridSpec(m=args.m, delta=args.delta, epsilon=args.eps))
    elif args.generator == "example2":
        net = gen_example2(args.n)
    elif args.generator == "example3":
        net = gen_example3()
    elif args.generator == "example4":
        net = gen_example4(args.alpha1)
    else:
        net = gen_random(
            args.n,
            args.seed,
            p_density=args.p_density,
            q_density=args.q_density,
            leak=args.leak,
        )
    save_network(net, args.out)
    print(f"wrote {args.out} (n = {net.n})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficflow",
        description="Traffic equations for fluid networks with overflow routing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a network file")
    p_solve.add_argument("file")
    p_solve.add_argument(
        "--kind", choices=("jackson", "gm", "overflow"), default="overflow"
    )
    p_solve.add_argument("--best-effort", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_check = sub.add_parser("check", help="report structural and spectral conditions")
    p_check.add_argument("file")
    p_check.set_defaults(func=_cmd_check)

    p_oracle = sub.add_parser("oracle", help="enumerate all stable patterns")
    p_oracle.add_argument("file")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_heat = sub.add_parser("heatmap", help="parameter sweep of the cell-grid family")
    p_heat.add_argument("--m", type=int, default=3)
    p_heat.add_argument("--step", type=float, default=0.1)
    p_heat.add_argument("--jobs", type=int, default=1)
    p_heat.add_argument("--out", required=True, help="output path prefix")
    p_heat.set_defaults(func=_cmd_heatmap)

    p_worst = sub.add_parser("worstcase", help="verify worst-case iteration counts")
    p_worst.add_argument("--n-max", type=int, default=30)
    p_worst.set_defaults(func=_cmd_worstcase)

    p_gen = sub.add_parser("gen", help="write an example or random network file")
    p_gen.add_argument(
        "generator",
        choices=("example1", "example2", "example3", "example4", "random"),
    )
    p_gen.add_argument("--m", type=int, default=3)
    p_gen.add_argument("--delta", type=float, default=0.5)
    p_gen.add_argument("--eps", type=float, default=0.5)
    p_gen.add_argument("--n", type=int, default=5)
    p_gen.add_argument("--alpha1", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--p-density", type=float, default=0.5)
    p_gen.add_argument("--q-density", type=float, default=0.5)
    p_gen.add_argument("--leak", type=float, default=0.25)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NetworkFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IsolatedClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        ConditionNotVerifiedError,
        SingularInnerSystemError,
        SpectralRadiusAtLeastOneError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OracleSizeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
