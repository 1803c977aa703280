"""Shared helpers for the test suite: corpora and trace invariants."""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trafficflow import (
    ConditionStatus,
    ConditionVerdict,
    TrafficFlowError,
    gen_random,
    has_stochastic_class,
    make_network,
    spectral_radius,
)
from trafficflow.solvers import _goodman_massey_pass, _routing
from trafficflow.structure import RADIUS_MARGIN


def corpus(count, seed_base=0, sizes=range(3, 11)):
    """Deterministic list of random networks cycling through the sizes."""
    sizes = list(sizes)
    return [
        gen_random(sizes[k % len(sizes)], seed=seed_base + k) for k in range(count)
    ]


def small_networks(count):
    """Seeded networks of 2 to 4 nodes built to hit singular patterns:
    integer weights at density 0.5 with a zero diagonal, each row of P
    and Q scaled to sum to 1 or 0.5, alpha in {0, 1/2, 1} and mu in
    {1/2, 1}."""
    rng = np.random.default_rng(3)
    nets = []
    for _ in range(count):
        n = int(rng.integers(2, 5))
        mats = []
        for _ in range(2):
            w = rng.integers(1, 4, size=(n, n)) * (rng.random((n, n)) < 0.5)
            np.fill_diagonal(w, 0)
            sums = w.sum(axis=1, keepdims=True)
            target = rng.choice([1.0, 0.5], size=(n, 1))
            mats.append(np.where(sums > 0, w * target / np.where(sums > 0, sums, 1), 0.0))
        alpha = rng.integers(0, 3, size=n) / 2
        mu = rng.integers(1, 3, size=n) / 2
        nets.append(make_network(alpha, mu, mats[0], mats[1]))
    return nets


@st.composite
def hard_networks(draw):
    """Networks of up to 7 nodes drawn toward the hard regions: sparse P
    and Q, rows of P + Q summing to exactly 1 or to 1 - 1e-6, stochastic
    routing cycles, and capacities within 1e-6 of the first pass's rates."""
    n = draw(st.integers(1, 7))
    unit = st.floats(0.0, 1.0)
    weights = draw(arrays(np.float64, (2, n, n), elements=unit, fill=st.nothing()))
    mask = draw(arrays(np.bool_, (2, n, n), fill=st.nothing()))
    if draw(st.booleans()):
        mask &= draw(arrays(np.bool_, (2, n, n), fill=st.nothing()))
    p, q = weights * mask
    sums = (p + q).sum(axis=1)
    for i in range(n):
        target = draw(st.sampled_from([1.0, 1.0 - 1e-6, 0.9, 0.5]))
        if sums[i] > 0:
            p[i] = p[i] / sums[i] * target
            q[i] = q[i] / sums[i] * target
    if draw(st.booleans()):
        # A stochastic routing cycle through some of the nodes.
        cycle = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            p[a] = 0.0
            p[a, b] = 1.0
            q[a] = 0.0
    alpha = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 0.1, 0.5, 1.0])))
    mu = draw(arrays(np.float64, n, elements=st.sampled_from([0.2, 0.5, 1.0, 2.0])))
    net = make_network(alpha, mu, p, q)
    if draw(st.booleans()):
        # Put some capacities within 1e-6 of the first pass's rates.
        try:
            rates = _goodman_massey_pass(net, _routing(net))[-1][0]
        except TrafficFlowError:
            return net
        offsets = st.sampled_from([np.nan, -1e-6, 0.0, 1e-6])
        offset = draw(arrays(np.float64, n, elements=offsets))
        near = ~np.isnan(offset) & (rates > 0)
        mu = np.where(near, rates * (1.0 + offset), mu)
        net = make_network(alpha, mu, p, q)
    return net


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


def enumerate_overflow_condition(net, gm_unstable):
    """Reference for the spectral stage of ``check_overflow_condition``.

    Estimates the radius of every mix in mask order (bit k selects the
    routing row of the k-th free node) and classifies the first one at
    or above 1 - RADIUS_MARGIN; HOLDS when there is none.  Runs 2**free
    spectral radii, so keep the free set small.
    """
    free = [i for i in range(net.n) if i not in gm_unstable]
    for mask in range(2 ** len(free)):
        subset = [free[k] for k in range(len(free)) if mask >> k & 1]
        mixed = net.q.copy()
        mixed[subset] = net.p[subset]
        radius = spectral_radius(mixed)
        if radius < 1.0 - RADIUS_MARGIN:
            continue
        certified = radius > 1.0 + RADIUS_MARGIN or has_stochastic_class(mixed)
        status = ConditionStatus.FAILS if certified else ConditionStatus.MARGINAL
        return ConditionVerdict(status=status, witness=frozenset(subset), radius=radius)
    return ConditionVerdict(status=ConditionStatus.HOLDS)
