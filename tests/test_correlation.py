from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopset import correlation
from hopset.balancer import cfb_balance
from hopset.correlation import (
    analyze_set,
    correlation_profile,
    frequency_histogram,
    hamming_correlation,
    peng_fan_bound,
    zero_delay_hits,
)
from hopset.errors import HopsetError
from hopset.lfsr import default_polynomial
from hopset.mapping import BASE, FrequencyPlan, SequenceSet, build_base_set, default_shift

from conftest import TAPS6, make_mseq


# --- independent oracle ---------------------------------------------------

def naive_hamming(u, v, d):
    n = len(u)
    return sum(1 for i in range(n) if u[i] == v[(i + d) % n])


def naive_profile(u, v):
    return [naive_hamming(u, v, d) for d in range(len(u))]


def naive_zero_delay_hits(mat):
    q = len(mat)
    return [[naive_hamming(mat[u], mat[v], 0) if u != v else 0 for v in range(q)]
            for u in range(q)]


@pytest.fixture(scope="module")
def small_sets(plan_b2):
    base = build_base_set(plan_b2, TAPS6, 4, 7)
    balanced, _ = cfb_balance(base)
    return base, balanced


# --- hamming correlation --------------------------------------------------

def test_hand_counted_zero_delay(plan_b2):
    sset = SequenceSet([[0, 1, 2], [0, 2, 1]], plan_b2, BASE)
    assert hamming_correlation(sset, 0, 1, 0) == 1


def test_auto_peak_equals_length(plan_b2):
    sset = build_base_set(plan_b2, TAPS6, 1, 5)
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
                assert profile.tolist() == naive_profile(mat[u].tolist(), mat[v].tolist())


def test_auto_profile_peak(small_sets):
    base, _ = small_sets
    assert correlation_profile(base, 2, 2)[0] == 31


def test_symmetry_identity(small_sets):
    # G_uv(d) == G_vu(n - d mod n)
    base, _ = small_sets
    n = base.length
    p_uv = correlation_profile(base, 0, 3)
    p_vu = correlation_profile(base, 3, 0)
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
        analyze_set(small_sets[0])


@pytest.mark.parametrize("member", [0, 3])  # a full block and a one-row block
def test_broken_identity_is_a_math_error(small_sets, monkeypatch, member):
    # an accumulator that misses one spot for one member breaks its identities
    cross_spectra = correlation._cross_spectra

    def skip_one_spot(matrix, M):
        cross = cross_spectra(matrix, M)
        spec = np.fft.rfft(matrix == 1, axis=-1)
        cross[member] -= spec[member].conj() * spec[member:]
        return cross

    monkeypatch.setattr(correlation, "_cross_spectra", skip_one_spot)
    with pytest.raises(HopsetError, match=f"member {member} break"):
        analyze_set(small_sets[1])


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
    assert not zero_delay_hits(balanced.as_matrix()).any()
    assert analyze_set(balanced).orthogonal_at_zero


def test_base_set_has_violations(small_sets):
    base, _ = small_sets
    hits = zero_delay_hits(base.as_matrix())
    assert hits.any() and not analyze_set(base).orthogonal_at_zero
    assert hits.tolist() == naive_zero_delay_hits(base.as_matrix().tolist())


def test_single_member_vacuously_orthogonal(plan_b2):
    sset = build_base_set(plan_b2, TAPS6, 1, 5)
    assert zero_delay_hits(sset.as_matrix()).tolist() == [[0]]
    assert analyze_set(sset).orthogonal_at_zero


@pytest.mark.parametrize("top, narrower", [
    (255, None), (256, np.uint8), (65535, np.uint8), (65536, np.uint16), (2**24 - 1, np.uint16),
])
def test_zero_delay_hits_at_the_narrow_dtype_boundaries(top, narrower):
    # spots that a too-narrow cast would fold together: 256 and 0, 65536 and 0, 2^24-1 and 65535
    spots = [v for v in (0, 1, 255, 256, 257, 65535, 65536, 2**24 - 1) if v < top] + [top]
    rng = np.random.default_rng(top)
    sset = SequenceSet(rng.choice(spots, size=(5, 64)), FrequencyPlan(p=2, b=24), BASE)
    mat = sset.as_matrix()
    expected = naive_zero_delay_hits(mat.tolist())
    assert zero_delay_hits(mat).tolist() == expected
    if narrower is not None:  # the data would catch a cast one size too narrow
        assert naive_zero_delay_hits(mat.astype(narrower).tolist()) != expected


def test_zero_delay_hits_of_no_columns_and_one_member(small_sets):
    base, _ = small_sets
    assert zero_delay_hits(base.as_matrix()[:, :0]).tolist() == [[0] * 4] * 4
    assert zero_delay_hits(base.as_matrix()[:1]).tolist() == [[0]]


def test_histogram_counts(plan_b2):
    plan_b1 = FrequencyPlan(p=2, b=1)
    assert frequency_histogram(SequenceSet([[0, 0, 1]], plan_b1, BASE)).tolist() == [[2, 1]]
    sset = SequenceSet([[3, 3, 3, 0], [1, 2, 1, 2]], plan_b2, BASE)
    hist = frequency_histogram(sset)
    assert hist.tolist() == [[1, 0, 0, 3], [0, 2, 2, 0]]
    assert (hist.sum(axis=1) == sset.length).all()


def test_no_hit_zone_single_member(plan_b2):
    sset = build_base_set(plan_b2, TAPS6, 1, 5)
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
    assert not zero_delay_hits(sset.as_matrix()).any()
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
        assert report.orthogonal_at_zero == (not zero_delay_hits(mat).any())
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
    report = analyze_set(sset)
    # block u holds G_uv for v = u..q-1, in that order, read-only
    assert [block.shape for block in report.profiles] == [(q - u, n) for u in range(q)]
    for u, block in enumerate(report.profiles):
        assert block.dtype == np.int64 and not block.flags.writeable
        for v, values in enumerate(block, start=u):
            assert values.tolist() == naive[u, v]
            h_u, h_v = (np.bincount(mat[w], minlength=M) for w in (u, v))
            assert int(values.sum()) == int(h_u @ h_v)

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
    assert (report.peng_fan is None) == (n * q == 1)  # the bound divides by L*q - 1
    assert report.max_hamming == expected_max
    assert report.orthogonal_at_zero == (not any(zero))
    assert report.no_hit_zone == expected_zone


# --- closed form at full length -----------------------------------------------

@pytest.mark.parametrize("p,l,b,taps", [
    (2, 10, 4, None),
    (2, 16, 6, None),
    (3, 9, 2, (1, 0, 0, 0, 0, 0, 2, 1, 0, 1)),  # criterion 10's taps
    (5, 6, 2, (2, 0, 0, 0, 0, 1, 1)),
    (3, 4, 2, (2, 1, 0, 0, 1)),
    (3, 4, 4, (2, 1, 0, 0, 1)),  # b = l: every window of l symbols is nonzero
])
def test_window_sequence_autocorrelation_is_closed_form(p, l, b, taps):
    """The window sequence W(t) = sum_{i<b} s(t+i) p^i of Lempel & Greenberger
    (IEEE Trans. IT 20(1), 1974), hopping at every t of the period n = p^l - 1.

    For d != 0, s(t) - s(t+d) is another shift of s, so W(t) = W(t+d) exactly
    where that shift starts b zeros: p^(l-b) - 1 times per period.
    """
    s = make_mseq(l, p=p, taps=taps)
    n = p**l - 1
    wrapped = np.concatenate([s, s[:b]])
    words = sum(wrapped[i:i + n] * p**i for i in range(b))
    sset = SequenceSet(words[None, :], FrequencyPlan(p=p, b=b), BASE)
    auto = analyze_set(sset).profiles[0][0]
    assert auto.size == n and auto[0] == n
    assert (auto[1:] == p**(l - b) - 1).all()


@pytest.mark.parametrize("l,b,q", [
    (12, 4, 16), (14, 4, 8), (14, 4, 16), (13, 5, 32), (15, 4, 16), (16, 4, 16),
])
def test_base_peak_is_at_least_the_shift_closed_form(l, b, q):
    """Member a hops on W(a*tau + j*b mod n), so member v's word j is member u's
    word j + k whenever k*b = (v-u)*tau (mod n): about L - |k| coincidences at
    that delay. The largest over member distances is a lower bound on the
    base set's peak; at these configs the peak is within 2% of L above it.
    """
    n = 2**l - 1
    assert gcd(b, n) == 1
    L, tau, inverse = n // b, default_shift(n, q), pow(b, -1, n)
    shifts = (delta * tau * inverse % n for delta in range(1, q))
    prediction = max(L - min(r, n - r) for r in shifts)
    base = build_base_set(FrequencyPlan(p=2, b=b), default_polynomial(2, l), q)
    assert prediction <= analyze_set(base).max_hamming <= prediction + 0.02 * L
