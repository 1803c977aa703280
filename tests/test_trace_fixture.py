"""Solver traces and condition verdicts pinned by a stored fixture.

``fixtures/traces.json`` holds, for checked ``solve_overflow`` on
``corpus(200)`` and best-effort ``solve_overflow`` with
``delegate_zero_overflow=False`` on ``gen_example2(1..12)``, the outer
and inner counts and every TraceStep's outer, inner, stable and unstable
fields and rates (12 significant digits), or the error the solve raised;
and ``str(condition_report(net).overflow_condition)`` for
``gen_example2(1..30)``.  A change to how systems are built or factored
must leave the sets, counts, errors and verdicts exactly as stored and
the rates within 1e-10 relative, looser than the stored digits so that
a last-bit difference cannot flip a rounding.

Regenerate, only for a change meant to move a trace, with::

    PYTHONPATH=src python tests/test_trace_fixture.py
"""

import json
from pathlib import Path

import numpy as np
from helpers import corpus

from trafficflow import TrafficFlowError, condition_report, gen_example2, solve_overflow

FIXTURE = Path(__file__).parent / "fixtures" / "traces.json"


def _trace_record(solve):
    try:
        _, trace = solve()
    except TrafficFlowError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "outer": trace.outer_iterations,
        "inner": trace.inner_iterations_total,
        "steps": [
            [s.outer, s.inner, sorted(s.stable), sorted(s.unstable)] for s in trace.history
        ],
        "rates": [s.rates.tolist() for s in trace.history],
    }


def record():
    """The fixture's contents, with rates at full precision."""
    solves = {}
    for k, net in enumerate(corpus(200)):
        solves[f"corpus {k}"] = _trace_record(lambda: solve_overflow(net))
    for n in range(1, 13):
        net = gen_example2(n)
        solves[f"example2 {n}"] = _trace_record(
            lambda: solve_overflow(net, best_effort=True, delegate_zero_overflow=False)
        )
    verdicts = {
        f"example2 {n}": str(condition_report(gen_example2(n)).overflow_condition)
        for n in range(1, 31)
    }
    return {"solves": solves, "verdicts": verdicts}


def test_traces_match_fixture():
    stored = json.loads(FIXTURE.read_text())
    fresh = record()
    assert fresh["verdicts"] == stored["verdicts"]
    assert fresh["solves"].keys() == stored["solves"].keys()
    for name, want in stored["solves"].items():
        got = fresh["solves"][name]
        got_rates, want_rates = got.pop("rates", None), want.pop("rates", None)
        assert got == want, name
        if want_rates is not None:
            np.testing.assert_allclose(got_rates, want_rates, rtol=1e-10, atol=0, err_msg=name)


if __name__ == "__main__":
    data = record()
    for entry in data["solves"].values():
        if "rates" in entry:
            entry["rates"] = [[float(f"{r:.12g}") for r in row] for row in entry["rates"]]
    FIXTURE.write_text(json.dumps(data, separators=(",", ":")) + "\n")
