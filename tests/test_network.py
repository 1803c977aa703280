import json

import numpy as np
import pytest

from trafficflow import (
    Equation,
    Network,
    NetworkFormatError,
    gen_example3,
    gen_example4,
    gen_random,
    make_network,
    parse_network,
    residual,
    serialize_network,
    validate_network,
)


def test_minimal_network_is_valid():
    net = make_network([0.0], [1.0], [[0.0]], [[0.0]])
    assert validate_network(net) == []


def test_example3_is_valid():
    assert validate_network(gen_example3()) == []


def test_super_stochastic_row_reports_index():
    net = make_network([0, 0], [1, 1], [[0.0, 1.5], [0.0, 0.0]])
    problems = validate_network(net)
    assert len(problems) == 1
    assert "row 1 of p" in problems[0]


def test_zero_capacity_reported():
    net = make_network([0, 0], [1, 0], [[0, 0.5], [0.5, 0]])
    assert any("mu[2]" in p for p in validate_network(net))


def test_negative_entries_reported():
    net = make_network([-1, 0], [1, 1], [[0, 0], [0, 0]], [[0, -0.25], [0, 0]])
    problems = validate_network(net)
    assert any("alpha[1]" in p for p in problems)
    assert any("q[1][2]" in p for p in problems)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"n": 0}, "n must be a positive integer, got 0"),
        ({"n": 1.5}, "n must be a positive integer, got 1.5"),
        ({"alpha": np.zeros(3)}, "alpha has shape (3,), expected (2,)"),
        ({"mu": np.ones((2, 1))}, "mu has shape (2, 1), expected (2,)"),
        ({"p": np.zeros((2, 3))}, "p has shape (2, 3), expected (2, 2)"),
        ({"q": np.zeros(2)}, "q has shape (2,), expected (2, 2)"),
        ({"alpha": [0.0, np.nan]}, "alpha contains non-finite entries"),
        ({"mu": [1.0, np.inf]}, "mu contains non-finite entries"),
        ({"p": [[0.0, np.nan], [0.0, 0.0]]}, "p contains non-finite entries"),
        ({"q": [[0.0, 0.0], [-np.inf, 0.0]]}, "q contains non-finite entries"),
    ],
)
def test_validate_network_reports_malformed_structure(changes, message):
    # Network itself checks nothing, so each fault reaches validate_network.
    valid = dict(n=2, alpha=np.zeros(2), mu=np.ones(2), p=np.zeros((2, 2)), q=np.zeros((2, 2)))
    assert validate_network(Network(**{**valid, **changes})) == [message]


def test_residual_example4_exact_solution():
    net = gen_example4(1.0)
    assert residual(net, [4 / 3, 2 / 3, 0.0], Equation.OVERFLOW) == 0.0


def test_residual_example4_shifted_family():
    net = gen_example4(1.0)
    eps = 0.5
    rates = np.array([4 / 3 + eps, 2 / 3 + eps, eps])
    assert residual(net, rates, Equation.OVERFLOW) < 1e-15


def test_residual_zero_flow():
    net = make_network([0, 0, 0], [1, 1, 1], np.full((3, 3), 0.2))
    assert residual(net, np.zeros(3), Equation.GOODMAN_MASSEY) == 0.0


def test_residual_dimension_mismatch():
    with pytest.raises(ValueError):
        residual(gen_example3(), np.zeros(3), Equation.OVERFLOW)


def test_residual_permutation_invariant():
    rng = np.random.default_rng(5)
    for seed in range(20):
        net = gen_random(6, seed=seed)
        rates = rng.random(6) * 2
        perm = rng.permutation(6)
        pnet = make_network(
            net.alpha[perm],
            net.mu[perm],
            net.p[np.ix_(perm, perm)],
            net.q[np.ix_(perm, perm)],
        )
        for kind in Equation:
            assert residual(net, rates, kind) == pytest.approx(
                residual(pnet, rates[perm], kind), abs=1e-12
            )


def test_residual_overflow_equals_clipped_when_no_overflow_matrix():
    rng = np.random.default_rng(11)
    for seed in range(20):
        base = gen_random(5, seed=seed)
        net = make_network(base.alpha, base.mu, base.p)
        rates = rng.random(5) * 2
        assert residual(net, rates, Equation.OVERFLOW) == residual(
            net, rates, Equation.GOODMAN_MASSEY
        )


def test_round_trip_minimal():
    net = make_network([0.0], [1.0], [[0.0]])
    assert parse_network(serialize_network(net)) == net


def test_round_trip_random_networks():
    for seed in range(10):
        net = gen_random(7, seed=seed)
        assert parse_network(serialize_network(net)) == net


def test_fixture_parses_to_example3(request):
    path = request.path.parent / "fixtures" / "example3.json"
    assert parse_network(path.read_bytes()) == gen_example3()


def test_parse_rejects_zero_capacity():
    doc = {"n": 1, "alpha": [0.0], "mu": [0.0], "p": [[0.0]]}
    with pytest.raises(NetworkFormatError, match="mu"):
        parse_network(json.dumps(doc))


def test_parse_rejects_malformed_json():
    with pytest.raises(NetworkFormatError, match="malformed"):
        parse_network("{not json")


def test_parse_rejects_nan_tokens():
    doc = '{"n": 1, "alpha": [NaN], "mu": [1.0], "p": [[0.0]]}'
    with pytest.raises(NetworkFormatError):
        parse_network(doc)


def test_parse_rejects_missing_keys_and_bad_shapes():
    with pytest.raises(NetworkFormatError, match='"mu"'):
        parse_network('{"n": 1, "alpha": [0.0], "p": [[0.0]]}')
    with pytest.raises(NetworkFormatError, match="alpha"):
        parse_network('{"n": 2, "alpha": [0.0], "mu": [1, 1], "p": [[0, 0], [0, 0]]}')
    with pytest.raises(NetworkFormatError, match="number"):
        parse_network('{"n": 1, "alpha": [true], "mu": [1.0], "p": [[0.0]]}')


def test_parse_defaults_missing_overflow_matrix_to_zero():
    net = parse_network('{"n": 1, "alpha": [0.5], "mu": [1.0], "p": [[0.25]]}')
    assert np.array_equal(net.q, np.zeros((1, 1)))


def test_networks_are_immutable():
    net = gen_example3()
    with pytest.raises(ValueError):
        net.p[0, 0] = 1.0
