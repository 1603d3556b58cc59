import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopset.balancer import cfb_balance
from hopset.correlation import hamming_correlation
from hopset.errors import ScenarioError
from hopset.mapping import BASE, FrequencyPlan, SequenceSet, build_base_set
from hopset.sim import SimScenario, simulate

from conftest import base_families


@pytest.fixture(scope="module")
def family(ms6, plan_b2):
    base = build_base_set(ms6, plan_b2, 4, 7)
    balanced, _ = cfb_balance(base)
    return base, balanced


def test_balanced_set_never_collides(family):
    _, balanced = family
    report = simulate(SimScenario(sset=balanced, hops=100))
    assert report.total_collisions == 0
    assert report.collision_rate == 0.0
    assert not report.per_pair.any()


def test_single_user_never_collides(ms6, plan_b2):
    sset = build_base_set(ms6, plan_b2, 1, 5)
    report = simulate(SimScenario(sset=sset, hops=50))
    assert report.total_collisions == 0
    assert report.collision_rate == 0.0


def test_one_period_reproduces_zero_delay_correlations(family):
    base, _ = family
    report = simulate(SimScenario(sset=base, hops=base.length))
    for u in range(base.q):
        for v in range(base.q):
            expected = hamming_correlation(base, u, v, 0) if u != v else 0
            assert report.per_pair[u, v] == expected
    assert report.total_collisions == np.triu(report.per_pair, 1).sum()
    assert report.total_collisions > 0


def test_sequences_repeat_cyclically(family):
    base, _ = family
    one = simulate(SimScenario(sset=base, hops=base.length))
    two = simulate(SimScenario(sset=base, hops=2 * base.length))
    assert two.total_collisions == 2 * one.total_collisions
    assert np.array_equal(two.per_pair, 2 * one.per_pair)


def test_report_shape_invariants(family):
    base, _ = family
    report = simulate(SimScenario(sset=base, hops=17))
    assert np.array_equal(report.per_pair, report.per_pair.T)
    assert not report.per_pair.diagonal().any()
    pairs = base.q * (base.q - 1) // 2
    assert report.collision_rate == report.total_collisions / (17 * pairs)


def test_determinism(family):
    base, _ = family
    scn = SimScenario(sset=base, hops=40)
    a, b = simulate(scn), simulate(scn)
    assert a.total_collisions == b.total_collisions
    assert np.array_equal(a.per_pair, b.per_pair)


def test_hop_horizon_must_be_positive(family):
    base, _ = family
    with pytest.raises(ScenarioError):
        SimScenario(sset=base, hops=0)


def test_hop_horizon_must_fit_int64_counts(family):
    base, _ = family  # q=4: six pairs
    limit = np.iinfo(np.int64).max // 6
    assert SimScenario(sset=base, hops=limit).hops == limit
    with pytest.raises(ScenarioError):
        SimScenario(sset=base, hops=limit + 1)


def test_largest_horizon_of_one_hop_counts_every_slot():
    # L = 1, so periods = hops = 2^63 - 1: the fold must not multiply by periods + 1
    hops = np.iinfo(np.int64).max
    sset = SequenceSet([[0], [0]], FrequencyPlan(p=2, b=1), BASE)
    report = simulate(SimScenario(sset=sset, hops=hops))
    assert report.per_pair.tolist() == [[0, hops], [hops, 0]]
    assert report.total_collisions == hops and report.collision_rate == 1.0


def brute_force_per_pair(matrix, hops):
    """Pairwise coincidences over every slot of the horizon, one gathered column per hop."""
    spots = matrix[:, np.arange(hops) % matrix.shape[1]]
    q = len(matrix)
    counts = np.zeros((q, q), dtype=np.int64)
    for u in range(q):
        for v in range(q):
            if u != v:
                counts[u, v] = np.count_nonzero(spots[u] == spots[v])
    return counts


@settings(derandomize=True, deadline=None)
@given(base_families(), st.data())
def test_period_fold_matches_brute_force(family, data):
    base = build_base_set(*family)
    for sset in (base, cfb_balance(base)[0]):
        L = sset.length
        hops = data.draw(st.one_of(st.integers(1, 4 * L), st.sampled_from([L, 2 * L, 3 * L])))
        report = simulate(SimScenario(sset=sset, hops=hops))
        expected = brute_force_per_pair(sset.as_matrix(), hops)
        assert report.per_pair.tolist() == expected.tolist()
        assert report.total_collisions == int(expected.sum()) // 2
