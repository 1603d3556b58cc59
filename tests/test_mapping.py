import numpy as np
import pytest
from hypothesis import given, settings

from hopset.correlation import analyze_set, correlation_profile, frequency_histogram
from hopset.errors import EmptySequenceError, FamilySizeError, HopsetError, InvalidPolynomialError
from hopset.lfsr import default_polynomial, is_prime, m_sequence
from hopset.mapping import (
    BALANCED,
    BASE,
    FrequencyPlan,
    SequenceSet,
    build_base_set,
    collided_columns,
    default_shift,
    validate_family,
)

from conftest import TAPS3, TAPS6, base_families


# --- independent oracle ---------------------------------------------------

def formula_rows(plan, taps, q, tau):
    """Member a, hop j: sum_i s((a*tau + j*b + i) mod n) * p^i, one symbol at a time."""
    s, b, p = m_sequence(plan.p, taps).tolist(), plan.b, plan.p
    n = len(s)
    return [[sum(s[(a * tau + j * b + i) % n] * p**i for i in range(b))
             for j in range(n // b)] for a in range(q)]


def tuple_map(plan, taps):
    """Member 0 of a base set: the unrotated sequence mapped word by word."""
    return build_base_set(plan, taps, 1, 2).as_matrix()[0]


# --- hop mapping ------------------------------------------------------------

def test_tuple_map_hand_evaluated(ms3):
    # symbols 1,0,0,1,0,1,1 -> words (1,0),(0,1),(0,1) -> 1, 2, 2
    assert ms3.tolist() == [1, 0, 0, 1, 0, 1, 1]
    assert tuple_map(FrequencyPlan(p=2, b=2), TAPS3).tolist() == [1, 2, 2]


def test_tuple_map_b1_is_identity(ms6):
    assert np.array_equal(tuple_map(FrequencyPlan(p=2, b=1), TAPS6), ms6)


def test_tuple_map_drops_trailing_symbols():
    assert tuple_map(FrequencyPlan(p=2, b=2), TAPS3).size == 3  # 7 // 2, last symbol unused


def test_degree14_width4_gives_4095_hops():
    sset = build_base_set(FrequencyPlan(p=2, b=4), default_polynomial(2, 14), 1, 2)
    assert sset.length == 4095
    assert sset.plan.M == 16


def test_tuple_map_values_below_m(plan_b3):
    hops = tuple_map(plan_b3, TAPS6)
    assert hops.min() >= 0
    assert hops.max() < 8


def test_tuple_map_gf3():
    s = m_sequence(3, (2, 1, 1))
    expected = [s[2 * j] + 3 * s[2 * j + 1] for j in range(4)]
    assert tuple_map(FrequencyPlan(p=3, b=2), (2, 1, 1)).tolist() == expected


def test_taps_are_read_over_the_plan_modulus():
    # x^2 + 2x + 2 is primitive over GF(3); its coefficient 2 is not a GF(2) symbol
    with pytest.raises(InvalidPolynomialError, match=r"coefficients must lie in \[0, 2\)"):
        build_base_set(FrequencyPlan(p=2, b=1), (2, 2, 1), 1)


def test_width_at_least_period_rejected():
    with pytest.raises(EmptySequenceError):
        tuple_map(FrequencyPlan(p=2, b=7), TAPS3)


def test_all_spots_used_when_long_enough(plan_b2):
    # 31 hops over 4 spots: all spots occur (31 >= 4*4)
    assert set(tuple_map(plan_b2, TAPS6).tolist()) == {0, 1, 2, 3}


def test_shift_zero_reproduces_tuple_map(plan_b2):
    sset = build_base_set(plan_b2, TAPS6, 3, 5)
    assert np.array_equal(sset.as_matrix()[0], tuple_map(plan_b2, TAPS6))


def test_shifted_member_hand_evaluated(ms3):
    # a=1, tau=3, b=2 on the period-7 sequence: words s(3+2j), s(4+2j) mod 7
    sset = build_base_set(FrequencyPlan(p=2, b=2), TAPS3, 2, 3)
    s = ms3.tolist()
    expected = [s[(3 + 2 * j) % 7] + 2 * s[(4 + 2 * j) % 7] for j in range(3)]
    assert sset.as_matrix()[1].tolist() == expected == [1, 3, 1]


@pytest.mark.parametrize("a", [0, 1, 2, 3, 4])
def test_length_same_for_every_member(plan_b3, a):
    sset = build_base_set(plan_b3, TAPS6, 5, 11)
    assert sset.as_matrix()[a].size == sset.length == 21  # 63 // 3


def test_member_index_out_of_range(plan_b2):
    sset = build_base_set(plan_b2, TAPS6, 2, 5)
    with pytest.raises(IndexError):
        correlation_profile(sset, 2, 0)


def test_shift_must_stay_below_period(plan_b2):
    with pytest.raises(HopsetError):
        build_base_set(plan_b2, TAPS3, 2, 7)


@settings(derandomize=True, deadline=None)
@given(base_families())
def test_base_set_gather_matches_member_formula(family):
    sset = build_base_set(*family)
    assert sset.kind == BASE
    assert sset.as_matrix().tolist() == formula_rows(*family)


def test_family_shift_must_be_prime(plan_b2):
    with pytest.raises(HopsetError):
        build_base_set(plan_b2, TAPS6, 2, 4)


def test_family_size_bounds(plan_b2):
    validate_family(1, plan_b2)
    validate_family(4, plan_b2)
    with pytest.raises(FamilySizeError):
        validate_family(5, plan_b2)
    with pytest.raises(FamilySizeError):
        validate_family(0, plan_b2)


def test_base_set_single_member_is_tuple_map(plan_b2):
    sset = build_base_set(plan_b2, TAPS6, 1, 5)
    assert sset.kind == BASE
    assert sset.q == 1
    assert sset.as_matrix().tolist() == formula_rows(plan_b2, TAPS6, 1, 5)


def test_base_set_members_differ(plan_b2):
    sset = build_base_set(plan_b2, TAPS6, 4, 7)
    mat = sset.as_matrix()
    for u in range(4):
        for v in range(u + 1, 4):
            assert not np.array_equal(mat[u], mat[v])


def test_base_set_size_violation(plan_b2):
    with pytest.raises(FamilySizeError):
        build_base_set(plan_b2, TAPS6, 5, 7)


def test_default_shift_rule():
    # smallest prime >= floor(n/q)
    assert default_shift(16383, 5) == 3299
    assert is_prime(default_shift(16383, 5))
    assert default_shift(63, 4) == 17  # 63//4 = 15 -> 17
    assert default_shift(63, 63) == 2


def test_default_shift_fallback_below_period():
    # n=7, q=1: rule lands on 7 = n, fall back to the largest prime below
    assert default_shift(7, 1) == 5
    # n=31 (prime), q=1: fall back to 29
    assert default_shift(31, 1) == 29


def test_set_kind_and_shape_validation(plan_b2):
    with pytest.raises(HopsetError):
        SequenceSet([[0, 1]], plan_b2, "other")
    for not_a_matrix in ([0, 1, 2], [[[0, 1]]], [[]], []):
        with pytest.raises(HopsetError):
            SequenceSet(not_a_matrix, plan_b2, BASE)


def test_set_adopts_an_owned_array_and_copies_the_rest(plan_b2):
    owned = np.array([[0, 1, 2], [3, 2, 1]], dtype=np.int64)
    sset = SequenceSet(owned, plan_b2, BASE)
    assert sset.as_matrix() is owned and not owned.flags.writeable
    assert (sset.q, sset.length) == (2, 3)
    with pytest.raises(ValueError):
        sset.as_matrix()[0, 0] = 1
    # a list, another dtype, a view and a Fortran-order array are copied
    writable = np.array([[0, 1, 2, 3], [3, 2, 1, 0]], dtype=np.int64)
    for matrix in ([[0, 1], [3, 2]], writable.astype(np.int32), writable[:, :2],
                   np.asfortranarray(writable)):
        sset = SequenceSet(matrix, plan_b2, BASE)
        hops = sset.as_matrix()
        assert hops.dtype == np.int64 and hops.flags.c_contiguous and hops.base is None
        assert not hops.flags.writeable
    writable[0, 0] = 3  # still writable, and the last set's copy does not see it
    assert sset.as_matrix()[0, 0] == 0


def test_balanced_kind_requires_distinct_columns(plan_b2):
    with pytest.raises(HopsetError):
        SequenceSet([[0, 1], [0, 2]], plan_b2, BALANCED)
    sset = SequenceSet([[0, 1], [1, 2]], plan_b2, BALANCED)
    assert sset.kind == BALANCED


def test_spots_must_lie_in_the_plan(plan_b2):
    with pytest.raises(HopsetError, match=r"\[0, 4\)"):
        frequency_histogram(SequenceSet([[0, 5], [1, 2]], plan_b2, BASE))
    with pytest.raises(HopsetError, match=r"\[0, 4\)"):
        analyze_set(SequenceSet([[0, -1], [1, 2]], plan_b2, BASE))
    with pytest.raises(HopsetError):
        SequenceSet([[0, 4]], plan_b2, BASE)
    assert SequenceSet([[0, 3]], plan_b2, BASE).as_matrix().tolist() == [[0, 3]]


def test_collided_columns_names_columns_with_a_repeated_spot():
    matrix = np.array([[0, 1, 2, 3], [0, 2, 1, 2], [3, 1, 0, 2]])
    assert collided_columns(matrix).tolist() == [0, 1, 3]
    assert collided_columns(matrix[:1]).tolist() == []
