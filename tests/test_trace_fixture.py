"""Solver traces, condition verdicts and census verdicts pinned by
stored fixtures.

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

``fixtures/census.json`` holds ``enumerate_solutions`` verdicts (kind,
patterns checked, pattern, direction note, and every solution and base
as ``float.hex``) for ``corpus(60, seed_base=1300)``, ``gen_example4``
at seven input rates, the fed overflow 2-cycle, two disjoint overflow
2-cycles at capacity (a two-dimensional family, decided by linear
programs) and the seeded small networks of ``helpers.small_networks``.
They must match exactly.

Regenerate both fixtures, only for a change meant to move a trace or a
verdict, with::

    PYTHONPATH=src python tests/test_trace_fixture.py
"""

import json
from pathlib import Path

import numpy as np
from helpers import corpus, small_networks

import trafficflow.solvers
from trafficflow import (
    Equation,
    TrafficFlowError,
    condition_report,
    enumerate_solutions,
    gen_example2,
    gen_example4,
    gen_random,
    make_network,
    residual,
    solve_overflow,
)

FIXTURE = Path(__file__).parent / "fixtures" / "traces.json"
CENSUS_FIXTURE = Path(__file__).parent / "fixtures" / "census.json"


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


def census_networks():
    """The census fixture's inputs, by name."""
    nets = {f"corpus {k}": net for k, net in enumerate(corpus(60, seed_base=1300))}
    for a in (0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 10.0):
        nets[f"example4 {a}"] = gen_example4(a)
    nets["fed overflow 2-cycle"] = make_network(
        [3, 0], [1, 1], np.zeros((2, 2)), [[0, 1], [1, 0]]
    )
    two_cycles = np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
    nets["two overflow 2-cycles"] = make_network(
        np.ones(4), np.ones(4), np.zeros((4, 4)), two_cycles
    )
    for k, net in enumerate(small_networks(400)):
        nets[f"small {k}"] = net
    return nets


def _hex(rates):
    return [float(r).hex() for r in rates]


def census_record(verdict):
    return {
        "kind": verdict.kind.value,
        "patterns_checked": verdict.patterns_checked,
        "pattern": None if verdict.pattern is None else sorted(verdict.pattern),
        "direction_note": verdict.direction_note,
        "solutions": [_hex(x) for x in verdict.solutions],
        "base": None if verdict.base is None else _hex(verdict.base),
    }


def record_census():
    """The census fixture's contents.  Also asserts that the inputs reach
    every branch of a singular pattern: a one-dimensional family (interval
    path), a wider one (linear programs), a family that misses its
    pattern's region, and a family kept as one candidate (its low end
    solves the equation and lies in the region; it is not a continuum)."""
    solvers = trafficflow.solvers
    families = []
    affine_region_points = solvers._affine_region_points

    def recording(x0, basis, mu, stable_mask):
        points = affine_region_points(x0, basis, mu, stable_mask)
        families.append((basis.shape[0], points, stable_mask))
        return points

    def solves(net, x):
        return residual(net, x, Equation.OVERFLOW) < solvers.ORACLE_RESIDUAL_TOL

    solvers._affine_region_points = recording
    reached = set()
    try:
        verdicts = {}
        for name, net in census_networks().items():
            families.clear()
            verdicts[name] = census_record(enumerate_solutions(net))
            for dim, points, stable_mask in families:
                reached.add("interval" if dim == 1 else "linear programs")
                if points is None:
                    reached.add("misses region")
                    continue
                low, high = points
                sign, bound = solvers._region(net.mu, stable_mask)
                wide = float(np.max(np.abs(high - low))) > 1e-9
                if not (wide and solves(net, high)) and solves(net, low):
                    if np.all(sign * low <= bound):
                        reached.add("kept as a point")
    finally:
        solvers._affine_region_points = affine_region_points
    assert reached == {"interval", "linear programs", "misses region", "kept as a point"}
    return verdicts


def test_census_matches_fixture():
    stored = json.loads(CENSUS_FIXTURE.read_text())
    nets = census_networks()
    assert nets.keys() == stored.keys()
    for name, net in nets.items():
        assert census_record(enumerate_solutions(net)) == stored[name], name


def test_census_does_not_depend_on_chunk_size(monkeypatch):
    # The fixture's networks and an n = 12 network that spans many default
    # chunks, solved one pattern per chunk: the same records, down to the
    # reported continuum witness.
    solvers = trafficflow.solvers
    big = gen_random(12, seed=7)
    assert 2**big.n > 4 * (solvers.CENSUS_CHUNK_ENTRIES // big.n**2)
    nets = [*census_networks().values(), big]
    default = [census_record(enumerate_solutions(net)) for net in nets]
    assert any(r["kind"] == "continuum" for r in default)
    monkeypatch.setattr(solvers, "CENSUS_CHUNK_ENTRIES", 1)
    assert [census_record(enumerate_solutions(net)) for net in nets] == default


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
    CENSUS_FIXTURE.write_text(json.dumps(record_census(), separators=(",", ":")) + "\n")
