"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs every workload at a tiny size, untraced and traced, through the
   real command line, and checks that the last line names every metric of
   BENCHMARK.json with its unit and that the failed share is as expected.
2. Runs every operation of every tiny workload once and checks that its
   output check accepts the program's result and rejects a deliberately
   corrupted one: a rate vector off by 1e-6, an iteration or pattern count
   off by one, a flipped verdict.
3. Runs one tiny workload whose output check rejects every result and
   checks that the run reports it as not correct and exits non-zero.

Exits 0 when everything passes, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import run

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_command_line() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(wanted[0] == run.END_TO_END, "run.py's end-to-end metrics match BENCHMARK.json")
    expect(wanted[1] == run.PER_LAYER, "run.py's per-layer metrics match BENCHMARK.json")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--tiny",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{where} exits 0 ({proc.stderr.strip()[-300:]})")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(
                sorted(result) == ["attempted", "correct", "failed", "metrics"],
                f"{where} result has exactly the four keys",
            )
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == wanted[trace], f"{where} prints every metric with its unit")
            numbers = all(
                isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
                for m in result["metrics"].values()
            )
            expect(numbers, f"{where} metric values are numbers")
            expect(
                all(
                    any(ln.startswith(f"  {k} = ") and ln.endswith(f" {u}") for ln in lines)
                    for k, u in got.items()
                ),
                f"{where} prints each metric by name and unit",
            )
            expect(result["correct"] is True, f"{where} outputs are correct")
            attempted, failed = result["attempted"], result["failed"]
            if workload == "uniqueness-check":
                # One stochastic-cycle verdict in each round of 7 operations.
                ok = attempted % 7 == 0 and failed * 7 == attempted
            else:
                ok = attempted >= 1 and failed == 0
            expect(ok, f"{where} attempted {attempted}, failed {failed} as expected")


#: A run in which every worstcase-chain result fails its check.
_CORRUPTED_RUN = """
import sys
sys.path.insert(0, {here!r})
import run
run._use_checkout_source()
import checks

def reject(net, result):
    raise checks.Incorrect("rejected on purpose")

checks.check_worstcase = reject
sys.exit(run.main(["--workload", "worstcase-chain", "--seed", "7", "--seconds", "0.2", "--tiny"]))
"""


def check_corrupted_run() -> None:
    code = _CORRUPTED_RUN.format(here=str(run.HERE))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    expect(result.get("correct") is False, "a run with rejected outputs reports correct false")
    expect(proc.returncode != 0, f"a run with rejected outputs exits non-zero ({proc.returncode})")


def _rejects(check, result, what) -> None:
    from checks import Incorrect

    try:
        check(result)
    except Incorrect:
        expect(True, f"rejects {what}")
        return
    expect(False, f"rejects {what}")


def check_corruptions() -> None:
    run._use_checkout_source()
    import workloads
    from trafficflow.solvers import OracleKind, SolveTrace
    from trafficflow.structure import ConditionStatus, ConditionVerdict

    for workload in run.WORKLOADS:
        for op in sorted(workloads.build(workload, seed=7, tiny=True), key=lambda o: o.label):
            result = op.run()
            label = f"{op.label}:"
            if isinstance(result, tuple) and isinstance(result[1], SolveTrace):
                solution, trace = result
                expect(op.check(result) is True, f"{label} accepts the program's result")
                off = dataclasses.replace(solution, rates=solution.rates + 1e-6)
                _rejects(op.check, (off, trace), f"{label} rates off by 1e-6")
                count = dataclasses.replace(
                    trace, inner_iterations_total=trace.inner_iterations_total + 1
                )
                _rejects(op.check, (solution, count), f"{label} inner count off by one")
            elif hasattr(result, "patterns_checked"):
                expect(op.check(result) is True, f"{label} accepts the program's result")
                if result.kind is OracleKind.CONTINUUM:
                    off = dataclasses.replace(result, base=result.base + 1e-6)
                else:
                    off = dataclasses.replace(result, solutions=tuple(x + 1e-6 for x in result.solutions))
                _rejects(op.check, off, f"{label} rates off by 1e-6")
                count = dataclasses.replace(result, patterns_checked=result.patterns_checked + 1)
                _rejects(op.check, count, f"{label} pattern count off by one")
                kind = OracleKind.NO_SOLUTION if result.kind is not OracleKind.NO_SOLUTION else OracleKind.UNIQUE
                _rejects(op.check, dataclasses.replace(result, kind=kind), f"{label} flipped census verdict")
            elif hasattr(result, "overflow_condition"):
                expect(op.check(result) is True, f"{label} accepts the program's result")
                flipped = dataclasses.replace(
                    result, overflow_condition=ConditionVerdict(status=ConditionStatus.FAILS)
                )
                _rejects(op.check, flipped, f"{label} flipped verdict")
                moved = dataclasses.replace(result, gm_unstable=frozenset({0}))
                _rejects(op.check, moved, f"{label} wrong overloaded set")
            else:
                n = workloads.CYCLE_NODES
                expect(
                    op.check(result) is (result.status is not ConditionStatus.UNKNOWN),
                    f"{label} counts an unknown verdict as failed, not wrong",
                )
                right = ConditionVerdict(status=ConditionStatus.FAILS, witness=frozenset(range(n)))
                expect(op.check(right) is True, f"{label} accepts the true verdict")
                flipped = ConditionVerdict(status=ConditionStatus.HOLDS)
                _rejects(op.check, flipped, f"{label} flipped verdict")
                short = ConditionVerdict(status=ConditionStatus.FAILS, witness=frozenset(range(n - 1)))
                _rejects(op.check, short, f"{label} witness missing a node")


def main() -> int:
    run.pin_blas_threads()
    check_command_line()
    check_corruptions()
    check_corrupted_run()
    print(f"{len(FAILURES)} failures" if FAILURES else "all self-tests pass")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
