"""The four benchmark workloads.

``build(name, seed, tiny)`` generates a workload's networks and returns
one round of operations.  Each operation calls one library function
behind a CLI subcommand (``heatmap``, ``worstcase``, ``oracle``,
``check``), looked up on its module at call time so that the tracer's
wrappers apply.  The seed fixes the networks and the order of the
operations in a round; a round always holds the same operations.

Importing this module imports numpy and trafficflow, so its import is
part of the measured set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from trafficflow import generators, network, solvers, structure

import checks

#: Overflow-triangle input rates: below, at and above the critical rate 1.
TRIANGLE_RATES = (0.25, 0.5, 0.9, 1.0, 2.0)
#: Nodes in the stochastic cycle beyond the enumeration limit.
CYCLE_NODES = 23


@dataclass(frozen=True)
class Op:
    """One network's operation and its independent check."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def _ticks(step: float) -> list[float]:
    # The grid of ``trafficflow heatmap --step``, written out here rather
    # than imported from the CLI so that the workload cannot change with
    # the program it measures.
    count = int(round(1.0 / step))
    return [t for t in (min(k * step, 1.0) for k in range(count + 1)) if t <= 1.0]


def _cellgrid(seed, tiny):
    m, step = (2, 0.5) if tiny else (5, 0.1)
    ops = []
    for d in _ticks(step):
        for e in _ticks(step):
            net = generators.gen_example1(generators.CellGridSpec(m=m, delta=d, epsilon=e))
            ops.append(
                Op(
                    f"cellgrid m={m} delta={d:g} epsilon={e:g}",
                    lambda net=net: solvers.solve_overflow(net),
                    lambda r, net=net: checks.check_cellgrid(net, r),
                )
            )
    return ops


def _worstcase(seed, tiny):
    ops = []
    for n in range(1, (6 if tiny else 30) + 1):
        net = generators.gen_example2(n)
        ops.append(
            Op(
                f"worstcase n={n}",
                lambda net=net: solvers.solve_overflow(
                    net, best_effort=True, delegate_zero_overflow=False
                ),
                lambda r, net=net: checks.check_worstcase(net, r),
            )
        )
    return ops


def _census(seed, tiny):
    ops = []
    # Three networks per size: the median operation then lies inside the
    # 8-node group and the 90th percentile inside the 11-node group, not
    # on the edge between two sizes.
    for k in range(3):
        for n in range(3, 6) if tiny else range(7, 12):
            net = generators.gen_random(n, seed=(seed << 16) | (k << 8) | n)
            ops.append(
                Op(
                    f"census random n={n} #{k}",
                    lambda net=net: solvers.enumerate_solutions(net),
                    lambda v, net=net: checks.check_census_random(
                        net, v, solvers.solve_overflow
                    ),
                )
            )
    for a in TRIANGLE_RATES:
        net = generators.gen_example4(a)
        ops.append(
            Op(
                f"census triangle a={a:g}",
                lambda net=net: solvers.enumerate_solutions(net),
                lambda v, net=net, a=a: checks.check_triangle(net, v, a),
            )
        )
    return ops


def stochastic_cycle(n: int):
    """Unit-rate cycle i -> i+1 (mod n), no overflow, small input everywhere."""
    return network.make_network(np.full(n, 0.01), np.ones(n), np.roll(np.eye(n), 1, axis=1))


def _uniqueness(seed, tiny):
    ops = []
    # A chain of n nodes has n - 1 free nodes.  Each chain runs twice per
    # round, so that the median operation lies inside one size's times
    # rather than between two sizes.
    for n in 2 * list(range(3, 6) if tiny else range(7, 12)):
        net = generators.gen_example2(n)
        ops.append(
            Op(
                f"check chain n={n}",
                lambda net=net: structure.condition_report(net),
                lambda r, net=net: checks.check_chain_report(net, r),
            )
        )
    cycle = stochastic_cycle(CYCLE_NODES)
    ops.append(
        Op(
            f"check stochastic cycle n={CYCLE_NODES}",
            lambda: structure.check_overflow_condition(cycle, frozenset()),
            lambda v: checks.check_stochastic_cycle(cycle, v),
        )
    )
    return ops


_BUILDERS = {
    "cellgrid-sweep": _cellgrid,
    "worstcase-chain": _worstcase,
    "census": _census,
    "uniqueness-check": _uniqueness,
}


def build(name: str, seed: int, tiny: bool = False) -> list[Op]:
    """One round of the workload's operations, in the seed's order."""
    ops = _BUILDERS[name](seed, tiny)
    random.Random(seed).shuffle(ops)
    return ops


def iteration_counts(result) -> dict[str, int]:
    """Counts the paper measures cost in, read off an operation's result."""
    if isinstance(result, tuple) and isinstance(result[1], solvers.SolveTrace):
        trace = result[1]
        return {
            "inner_iterations": trace.inner_iterations_total,
            "outer_iterations": trace.outer_iterations,
            "trace_bytes": sum(step.rates.nbytes for step in trace.history),
        }
    if isinstance(result, solvers.OracleVerdict):
        return {"census_patterns": result.patterns_checked}
    return {}

