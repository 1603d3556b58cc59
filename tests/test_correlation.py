from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopset.balancer import cfb_balance
from hopset.correlation import (
    AUTO,
    CROSS,
    analyze_set,
    correlation_profile,
    frequency_histogram,
    hamming_correlation,
    pairwise_profiles,
    peng_fan_bound,
    verify_orthogonality,
)
from hopset.errors import HopsetError
from hopset.mapping import BASE, FamilyConfig, FrequencyPlan, SequenceSet, build_base_set


# --- independent oracle ---------------------------------------------------

def naive_hamming(u, v, d):
    n = len(u)
    return sum(1 for i in range(n) if u[i] == v[(i + d) % n])


def naive_profile(u, v):
    return [naive_hamming(u, v, d) for d in range(len(u))]


@pytest.fixture(scope="module")
def small_sets(ms6, plan_b2):
    base = build_base_set(ms6, FamilyConfig(q=4, tau=7), plan_b2)
    balanced, _ = cfb_balance(base)
    return base, balanced


# --- hamming correlation --------------------------------------------------

def test_hand_counted_zero_delay(plan_b2):
    sset = SequenceSet([[0, 1, 2], [0, 2, 1]], plan_b2, BASE)
    assert hamming_correlation(sset, 0, 1, 0) == 1


def test_auto_peak_equals_length(ms6, plan_b2):
    sset = build_base_set(ms6, FamilyConfig(q=1, tau=5), plan_b2)
    assert hamming_correlation(sset, 0, 0, 0) == 31


def test_matches_naive_counts(small_sets):
    base, balanced = small_sets
    for sset in (base, balanced):
        mat = sset.as_matrix()
        for u in range(sset.q):
            for v in range(sset.q):
                for d in (0, 1, 7, 30):
                    got = hamming_correlation(sset, u, v, d)
                    assert got == naive_hamming(mat[u].tolist(), mat[v].tolist(), d)


def test_delay_wraps_cyclically(small_sets):
    base, _ = small_sets
    assert hamming_correlation(base, 0, 1, 31) == hamming_correlation(base, 0, 1, 0)
    assert hamming_correlation(base, 0, 1, -1) == hamming_correlation(base, 0, 1, 30)


# --- profiles ---------------------------------------------------------------

def test_profile_matches_naive(small_sets):
    base, balanced = small_sets
    for sset in (base, balanced):
        mat = sset.as_matrix()
        for u in range(sset.q):
            for v in range(u, sset.q):
                profile = correlation_profile(sset, u, v)
                assert profile.pair == (u, v)
                assert profile.values.tolist() == naive_profile(mat[u].tolist(), mat[v].tolist())


def test_profile_kinds(small_sets):
    base, _ = small_sets
    assert correlation_profile(base, 0, 0).kind == AUTO
    assert correlation_profile(base, 0, 1).kind == CROSS


def test_auto_profile_peak(small_sets):
    base, _ = small_sets
    profile = correlation_profile(base, 2, 2)
    assert profile.values[0] == 31


def test_symmetry_identity(small_sets):
    # G_uv(d) == G_vu(n - d mod n)
    base, _ = small_sets
    n = base.length
    p_uv = correlation_profile(base, 0, 3).values
    p_vu = correlation_profile(base, 3, 0).values
    for d in range(n):
        assert p_uv[d] == p_vu[(n - d) % n]


def test_double_counting_identity(small_sets):
    # sum over delays equals the histogram dot product
    for sset in small_sets:
        mat = sset.as_matrix()
        for u in range(sset.q):
            for v in range(sset.q):
                profile = naive_profile(mat[u].tolist(), mat[v].tolist())
                h_u = np.bincount(mat[u], minlength=4)
                h_v = np.bincount(mat[v], minlength=4)
                assert sum(profile) == int(h_u @ h_v)


def test_inexact_fft_result_is_a_math_error(small_sets, monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
    with pytest.raises(HopsetError, match="not integral"):
        pairwise_profiles(small_sets[0])


def test_pairwise_profiles_cover_upper_triangle(small_sets):
    base, _ = small_sets
    profiles = pairwise_profiles(base)
    assert [p.pair for p in profiles] == [(u, v) for u in range(4) for v in range(u, 4)]
    for p in profiles:
        assert p.kind == (AUTO if p.pair[0] == p.pair[1] else CROSS)


# --- bound ------------------------------------------------------------------

def test_bound_zero_when_numerator_vanishes():
    assert peng_fan_bound(4, 4, 16) == 0


def test_bound_exact_fraction_at_paper_scale():
    bound = peng_fan_bound(4095, 4, 16)
    assert bound == Fraction(16364 * 4095, 16379 * 16)
    assert float(bound) == pytest.approx(255.70, abs=0.005)


def test_bound_small_family_case():
    assert peng_fan_bound(15, 5, 15) == Fraction(60, 74)
    assert float(peng_fan_bound(15, 5, 15)) == pytest.approx(0.811, abs=0.0005)


def test_bound_degenerate_division():
    with pytest.raises(ZeroDivisionError):
        peng_fan_bound(1, 1, 4)


# --- set-level checks -------------------------------------------------------

def test_balanced_set_is_orthogonal(small_sets):
    _, balanced = small_sets
    assert verify_orthogonality(balanced) == []


def test_base_set_has_violations(small_sets):
    base, _ = small_sets
    violations = verify_orthogonality(base)
    assert violations
    mat = base.as_matrix().tolist()
    counts = {(u, v): naive_hamming(mat[u], mat[v], 0) for u in range(4) for v in range(u + 1, 4)}
    assert violations == [(u, v, c) for (u, v), c in counts.items() if c]


def test_single_member_vacuously_orthogonal(ms6, plan_b2):
    sset = build_base_set(ms6, FamilyConfig(q=1, tau=5), plan_b2)
    assert verify_orthogonality(sset) == []


def test_histogram_counts(plan_b2):
    plan_b1 = FrequencyPlan(p=2, b=1)
    assert frequency_histogram(SequenceSet([[0, 0, 1]], plan_b1, BASE)).tolist() == [[2, 1]]
    sset = SequenceSet([[3, 3, 3, 0], [1, 2, 1, 2]], plan_b2, BASE)
    hist = frequency_histogram(sset)
    assert hist.tolist() == [[1, 0, 0, 3], [0, 2, 2, 0]]
    assert (hist.sum(axis=1) == sset.length).all()


def test_no_hit_zone_single_member(ms6, plan_b2):
    sset = build_base_set(ms6, FamilyConfig(q=1, tau=5), plan_b2)
    assert analyze_set(sset).no_hit_zone == 30


def test_no_hit_zone_sentinel_for_colliders(small_sets):
    base, _ = small_sets
    assert analyze_set(base).no_hit_zone == -1


def test_no_hit_zone_matches_bruteforce(small_sets):
    _, balanced = small_sets
    zone = analyze_set(balanced).no_hit_zone
    assert zone >= 0
    mat = balanced.as_matrix()
    n = balanced.length

    def hit_free(d):
        return all(
            naive_hamming(mat[u].tolist(), mat[v].tolist(), d) == 0
            for u in range(4) for v in range(4) if u != v
        )

    expected = 0
    for d in range(1, n):
        if not hit_free(d):
            break
        expected = d
    assert zone == expected


def test_no_hit_zone_disjoint_supports_span_full_period(plan_b2):
    # members on disjoint spot alphabets never collide at any delay
    sset = SequenceSet([[0, 1, 0, 1, 0, 1], [2, 3, 2, 3, 2, 3]], plan_b2, BASE)
    assert verify_orthogonality(sset) == []
    assert analyze_set(sset).no_hit_zone == 5


def test_analyze_report_consistency(small_sets):
    base, balanced = small_sets
    for sset in (base, balanced):
        report = analyze_set(sset)
        mat = sset.as_matrix()
        # max over cross pairs at all delays and autos at nonzero delay
        expected_max = 0
        for u in range(sset.q):
            for v in range(sset.q):
                profile = naive_profile(mat[u].tolist(), mat[v].tolist())
                expected_max = max(expected_max, max(profile[1:] if u == v else profile))
        assert report.max_hamming == expected_max
        assert report.orthogonal_at_zero == (verify_orthogonality(sset) == [])
        assert report.peng_fan == peng_fan_bound(sset.length, sset.q, 4)
        assert report.histograms.shape == (sset.q, 4)
        assert (report.histograms.sum(axis=1) == sset.length).all()
        # Peng-Fan is a floor under the observed maximum for constructed sets
        assert report.max_hamming >= report.peng_fan


# --- property test over p > 2 --------------------------------------------------

@st.composite
def random_sets(draw):
    plan = FrequencyPlan(p=draw(st.sampled_from((2, 3, 5))), b=draw(st.integers(1, 2)))
    q, n = draw(st.integers(1, 5)), draw(st.integers(1, 40))
    rows = st.lists(st.integers(0, plan.M - 1), min_size=n, max_size=n)
    return SequenceSet(draw(st.lists(rows, min_size=q, max_size=q)), plan, BASE)


@settings(derandomize=True, deadline=None)
@given(random_sets())
def test_fft_engine_matches_bruteforce(sset):
    mat = sset.as_matrix().tolist()
    q, n, M = sset.q, sset.length, sset.plan.M
    naive = {(u, v): naive_profile(mat[u], mat[v]) for u in range(q) for v in range(q)}
    profiles = pairwise_profiles(sset)
    assert [p.pair for p in profiles] == [(u, v) for u in range(q) for v in range(u, q)]
    for p in profiles:
        u, v = p.pair
        assert p.values.tolist() == naive[u, v]
        h_u, h_v = (np.bincount(mat[w], minlength=M) for w in (u, v))
        assert int(p.values.sum()) == int(h_u @ h_v)

    expected_max = max(max(naive[u, v][1:] if u == v else naive[u, v], default=0)
                       for u in range(q) for v in range(q))
    zero = [naive[u, v][0] for u in range(q) for v in range(q) if u != v]
    if q == 1:
        expected_zone = n - 1
    elif any(zero):
        expected_zone = -1
    else:
        hit = [d for d in range(1, n) if any(naive[u, v][d] for u in range(q)
                                             for v in range(q) if u != v)]
        expected_zone = hit[0] - 1 if hit else n - 1
    report = analyze_set(sset, profiles=profiles)
    assert (report.peng_fan is None) == (n * q == 1)  # the bound divides by L*q - 1
    assert report.max_hamming == expected_max
    assert report.orthogonal_at_zero == (not any(zero))
    assert report.no_hit_zone == expected_zone
