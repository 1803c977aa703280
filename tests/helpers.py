"""Shared helpers for the test suite: corpora and trace invariants."""

import numpy as np

from trafficflow import gen_random, make_network


def corpus(count, seed_base=0, sizes=range(3, 11)):
    """Deterministic list of random networks cycling through the sizes."""
    sizes = list(sizes)
    return [
        gen_random(sizes[k % len(sizes)], seed=seed_base + k) for k in range(count)
    ]


def zero_overflow(net):
    """Project a network onto Q = 0."""
    return make_network(net.alpha, net.mu, net.p)


def first_solve_producing(trace, rates):
    """Index of the earliest trace entry holding exactly these rates."""
    for step in trace.history:
        if np.array_equal(step.rates, rates):
            return step.outer
    raise AssertionError("returned rates never appear in the trace")


def check_gm_trace(trace, n):
    """Stable sets grow monotonically and iterates descend."""
    prev_stable = frozenset()
    prev_rates = None
    for step in trace.history:
        assert step.stable >= prev_stable
        if prev_rates is not None:
            assert np.all(step.rates <= prev_rates + 1e-9)
        prev_stable = step.stable
        prev_rates = step.rates
    assert trace.outer_iterations <= n + 1


def check_trace(net, trace):
    """Route to the invariant set matching the trace's loop shape."""
    if np.any(net.q):
        check_overflow_trace(trace, net.n)
    else:
        check_gm_trace(trace, net.n)


def check_overflow_trace(trace, n):
    """Inner descent, outer ascent, and monotone working sets."""
    assert trace.outer_iterations <= n + 1
    assert trace.inner_iterations_total <= 1 + n * (n + 1) // 2
    last_of_pass = {}
    prev_unstable = None
    pass_prev_stable = None
    pass_prev_rates = None
    current_pass = None
    for step in trace.history:
        if step.outer != current_pass:
            if current_pass is not None:
                last_of_pass[current_pass] = pass_prev_rates
            current_pass = step.outer
            pass_prev_stable = frozenset()
            pass_prev_rates = None
            if prev_unstable is not None:
                assert step.unstable >= prev_unstable
            prev_unstable = step.unstable
        assert step.stable >= pass_prev_stable
        if pass_prev_rates is not None:
            assert np.all(step.rates <= pass_prev_rates + 1e-9)
        pass_prev_stable = step.stable
        pass_prev_rates = step.rates
    last_of_pass[current_pass] = pass_prev_rates
    passes = sorted(last_of_pass)
    for a, b in zip(passes, passes[1:]):
        assert np.all(last_of_pass[b] >= last_of_pass[a] - 1e-9)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for the test's duration; returns the list that
    gets one entry per call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def traces_identical(t1, t2):
    if (
        t1.outer_iterations != t2.outer_iterations
        or t1.inner_iterations_total != t2.inner_iterations_total
        or len(t1.history) != len(t2.history)
    ):
        return False
    return all(
        a.outer == b.outer
        and a.inner == b.inner
        and np.array_equal(a.rates, b.rates)
        and a.stable == b.stable
        and a.unstable == b.unstable
        for a, b in zip(t1.history, t2.history)
    )
