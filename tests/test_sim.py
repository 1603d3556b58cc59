import numpy as np
import pytest

from hopset.balancer import cfb_balance
from hopset.correlation import hamming_correlation
from hopset.errors import IncompatibleSetError, UnsupportedDelayError
from hopset.mapping import BASE, FamilyConfig, SequenceSet, build_base_set
from hopset.sim import SimScenario, compare_sets, simulate


@pytest.fixture(scope="module")
def family(ms6, plan_b2):
    base = build_base_set(ms6, FamilyConfig(q=4, tau=7), plan_b2)
    balanced, _ = cfb_balance(base)
    return base, balanced


def test_balanced_set_never_collides(family):
    _, balanced = family
    report = simulate(SimScenario(sset=balanced, hops=100, offsets=(0.1, 0.9, 0.0, 0.5)))
    assert report.total_collisions == 0
    assert report.collision_rate == 0.0
    assert not report.per_pair.any()


def test_single_user_never_collides(ms6, plan_b2):
    sset = build_base_set(ms6, FamilyConfig(q=1, tau=5), plan_b2)
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
    scn = SimScenario(sset=base, hops=40, offsets=(0.2, 0.2, 0.2, 0.2))
    a, b = simulate(scn), simulate(scn)
    assert a.total_collisions == b.total_collisions
    assert np.array_equal(a.per_pair, b.per_pair)


def test_offsets_must_stay_below_one_dwell(family):
    base, _ = family
    with pytest.raises(UnsupportedDelayError):
        SimScenario(sset=base, hops=10, offsets=(0.0, 1.0, 0.0, 0.0))
    with pytest.raises(UnsupportedDelayError):
        SimScenario(sset=base, hops=10, offsets=(0.0, -0.1, 0.0, 0.0))


def test_offset_count_must_match_users(family):
    base, _ = family
    with pytest.raises(ValueError):
        SimScenario(sset=base, hops=10, offsets=(0.0, 0.0))


def test_hop_horizon_must_be_positive(family):
    base, _ = family
    with pytest.raises(ValueError):
        SimScenario(sset=base, hops=0)


def test_compare_sets_pairs_reports(family):
    base, balanced = family
    base_report, balanced_report = compare_sets(base, balanced, hops=base.length)
    assert base_report.total_collisions > 0
    assert balanced_report.total_collisions == 0


def test_compare_identical_sets(family):
    base, _ = family
    one, two = compare_sets(base, base, hops=25)
    assert one.total_collisions == two.total_collisions
    assert np.array_equal(one.per_pair, two.per_pair)


def test_compare_rejects_shape_mismatch(family, plan_b2):
    base, _ = family
    other = SequenceSet([[0, 1], [1, 2]], plan_b2, BASE)
    with pytest.raises(IncompatibleSetError):
        compare_sets(base, other, hops=10)
