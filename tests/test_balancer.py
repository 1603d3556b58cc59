from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from hopset import balancer
from hopset.balancer import cfb_balance, fit_linear, mean_operation_curve
from hopset.correlation import analyze_set, frequency_histogram
from hopset.errors import FamilySizeError, HopsetError, SingularFitError
from hopset.lfsr import default_polynomial
from hopset.mapping import (
    BALANCED,
    BASE,
    FrequencyPlan,
    SequenceSet,
    build_base_set,
)

from conftest import TAPS6, base_families


def spot_histograms(matrix, M):
    return np.array([np.bincount(row, minlength=M) for row in matrix])


def test_single_member_passes_through(plan_b2):
    base = build_base_set(plan_b2, TAPS6, 1, 5)
    balanced, ledger = cfb_balance(base)
    assert np.array_equal(balanced.as_matrix(), base.as_matrix())
    assert ledger.op_count.tolist() == [0]


def test_hand_traced_two_member_collision(plan_b2):
    # column 0 collides on spot 1; equal operation counts, so the lower
    # index keeps and member 1 moves to its least-used free spot 0
    base = SequenceSet([[1, 2], [1, 3]], plan_b2, BASE)
    balanced, ledger = cfb_balance(base)
    assert balanced.as_matrix().tolist() == [[1, 2], [0, 3]]
    assert ledger.op_count.tolist() == [0, 1]
    assert balanced.kind == BALANCED


def test_hand_traced_most_operated_keeps(plan_b2):
    # both columns collide; after column 0 member 1 has one operation, so
    # in column 1 it keeps the spot and member 0 moves instead
    base = SequenceSet([[1, 1], [1, 1]], plan_b2, BASE)
    balanced, ledger = cfb_balance(base)
    assert balanced.as_matrix().tolist() == [[1, 0], [0, 1]]
    assert ledger.op_count.tolist() == [1, 1]


@pytest.mark.parametrize("l,b,q", [(6, 2, 2), (6, 2, 4), (6, 3, 5), (6, 3, 8), (8, 4, 16)])
def test_columns_become_pairwise_distinct(l, b, q):
    base = build_base_set(FrequencyPlan(p=2, b=b), default_polynomial(2, l), q, 7)
    balanced, _ = cfb_balance(base)
    mat = balanced.as_matrix()
    for i in range(mat.shape[1]):
        assert len(set(mat[:, i])) == q


def test_only_colliding_entries_change(plan_b2):
    base = build_base_set(plan_b2, TAPS6, 4, 7)
    balanced, ledger = cfb_balance(base)
    before, after = base.as_matrix(), balanced.as_matrix()
    changed = before != after
    assert changed.sum() == ledger.op_count.sum()
    assert np.array_equal(changed.sum(axis=1), ledger.op_count)
    # a change can only sit in a column that had a duplicate in the base set
    for i in np.nonzero(changed.any(axis=0))[0]:
        col = before[:, i]
        assert len(set(col)) < len(col)
    # untouched columns survive unchanged
    for i in range(before.shape[1]):
        col = before[:, i]
        if len(set(col)) == len(col):
            assert np.array_equal(col, after[:, i])


@settings(derandomize=True, deadline=None)
@given(base_families())
def test_balancing_properties_over_gf_p(family):
    base = build_base_set(*family)
    balanced, ledger = cfb_balance(base)
    before, after = base.as_matrix(), balanced.as_matrix()
    assert all(len(set(col)) == base.q for col in after.T.tolist())
    clean = [i for i, col in enumerate(before.T.tolist()) if len(set(col)) == base.q]
    assert np.array_equal(after[:, clean], before[:, clean])
    changed = before != after
    assert changed.sum() == ledger.op_count.sum()
    assert np.array_equal(changed.sum(axis=1), ledger.op_count)
    assert np.array_equal(ledger.usage, frequency_histogram(balanced))
    # a rewritten entry of u or v changes one term of G_uv(d), two when u = v
    ops = ledger.op_count
    for u, (G, G_after) in enumerate(zip(analyze_set(base).profiles, analyze_set(balanced).profiles)):
        assert (np.abs(G_after - G) <= ops[u] + ops[u:, None]).all()


def reference_balance(base):
    """The tie-break rules of the balancer's docstring, one pass per rule, group by group."""
    matrix = np.array(base.as_matrix())
    usage = frequency_histogram(base).tolist()
    op_count = [0] * base.q
    for i in range(matrix.shape[1]):
        col = matrix[:, i].tolist()
        holders = {}
        for a, f in enumerate(col):
            holders.setdefault(f, []).append(a)
        available = [f for f in range(base.plan.M) if f not in holders]
        collided = sorted(f for f, mem in holders.items() if len(mem) > 1)
        for f in collided:
            members = holders[f]
            top = max(op_count[a] for a in members)
            keeper = min(a for a in members if op_count[a] == top)
            movers = sorted((a for a in members if a != keeper),
                            key=lambda a: (op_count[a], a))
            for a in movers:
                row_usage = usage[a]
                f_new = min(available, key=row_usage.__getitem__)
                available.remove(f_new)
                matrix[a, i] = f_new
                row_usage[f] -= 1
                row_usage[f_new] += 1
                op_count[a] += 1
    return matrix, np.array(op_count), np.array(usage)


def assert_matches_reference(base):
    balanced, ledger = cfb_balance(base)
    matrix, op_count, usage = reference_balance(base)
    assert np.array_equal(balanced.as_matrix(), matrix)
    assert np.array_equal(ledger.op_count, op_count)
    assert np.array_equal(ledger.usage, usage)


@settings(derandomize=True, deadline=None)
@given(base_families())
def test_tie_breaks_match_the_reference_over_gf_p(family):
    assert_matches_reference(build_base_set(*family))


@pytest.mark.parametrize("l,M,q", [(10, 16, 16), (12, 64, 40)])
def test_tie_breaks_match_the_reference(l, M, q):
    plan = FrequencyPlan(p=2, b=M.bit_length() - 1)
    assert_matches_reference(build_base_set(plan, default_polynomial(2, l), q))


def test_broken_usage_identity_is_a_math_error(plan_b2, monkeypatch):
    # usage counts that start one off no longer equal the balanced set's spot counts
    monkeypatch.setattr(balancer, "frequency_histogram",
                        lambda sset: frequency_histogram(sset) + (sset.kind == BASE))
    base = build_base_set(plan_b2, TAPS6, 4, 7)
    with pytest.raises(HopsetError, match="usage"):
        cfb_balance(base)


def test_broken_total_identity_is_a_math_error(plan_b2, monkeypatch):
    # a sort of the base columns that sees member 0 twice counts L more
    # repeated spots than the balancer moved
    sort = lambda m, axis: np.sort(np.vstack([m, m[:1]]), axis=axis)
    monkeypatch.setattr(balancer, "np", SimpleNamespace(**{**vars(np), "sort": sort}))
    base = build_base_set(plan_b2, TAPS6, 4, 7)
    with pytest.raises(HopsetError, match="total op_count"):
        cfb_balance(base)


def test_usage_tracks_balanced_histograms(plan_b3):
    base = build_base_set(plan_b3, TAPS6, 6, 3)
    balanced, ledger = cfb_balance(base)
    hist = spot_histograms(balanced.as_matrix(), 8)
    assert np.array_equal(ledger.usage, hist)
    assert (ledger.usage.sum(axis=1) == balanced.length).all()


# q = M at very small n'/M (e.g. l=8, b=2, q=4) can exceed the +1 slack:
# with zero free spots of slack the last mover per column has no choice.
# At the scales the toolkit targets the property holds, q = M included.
@pytest.mark.parametrize("l,b,q", [(6, 2, 3), (6, 2, 4), (10, 2, 4), (12, 2, 4), (8, 4, 9), (10, 4, 16)])
def test_spread_does_not_degrade(l, b, q):
    plan = FrequencyPlan(p=2, b=b)
    base = build_base_set(plan, default_polynomial(2, l), q, 11)
    balanced, _ = cfb_balance(base)
    before = spot_histograms(base.as_matrix(), plan.M)
    after = spot_histograms(balanced.as_matrix(), plan.M)
    for a in range(q):
        spread_before = before[a].max() - before[a].min()
        spread_after = after[a].max() - after[a].min()
        assert spread_after <= spread_before + 1


def test_balancing_is_deterministic(plan_b2):
    base = build_base_set(plan_b2, TAPS6, 4, 7)
    first, led1 = cfb_balance(base)
    second, led2 = cfb_balance(base)
    assert np.array_equal(first.as_matrix(), second.as_matrix())
    assert np.array_equal(led1.op_count, led2.op_count)


def test_rejects_non_base_input(plan_b2):
    balanced = SequenceSet([[0, 1], [1, 2]], plan_b2, BALANCED)
    with pytest.raises(HopsetError, match="expected a base set"):
        cfb_balance(balanced)


def test_rejects_oversized_family(plan_b2):
    base = SequenceSet([[0], [1], [2], [3], [0]], plan_b2, BASE)
    with pytest.raises(FamilySizeError):
        cfb_balance(base)


# --- least-squares fit ----------------------------------------------------

def test_fit_exact_line():
    xs = np.arange(10.0)
    slope, intercept = fit_linear(xs, 2 * xs + 1)
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)


def test_fit_constant_data():
    slope, intercept = fit_linear([0, 1, 2, 3], [4.5, 4.5, 4.5, 4.5])
    assert slope == pytest.approx(0.0)
    assert intercept == pytest.approx(4.5)


def test_fit_three_point_closed_form():
    slope, intercept = fit_linear([0, 1, 2], [0, 1, 1])
    assert slope == pytest.approx(0.5)
    assert intercept == pytest.approx(1 / 6)


def test_fit_degenerate_inputs():
    with pytest.raises(SingularFitError):
        fit_linear([2, 2, 2], [1, 2, 3])
    with pytest.raises(SingularFitError):
        fit_linear([1], [1])


# --- family-size sweep ----------------------------------------------------

def test_mean_operation_curve_small(plan_b2):
    report = mean_operation_curve(plan_b2, TAPS6, tau=7)
    assert report.q_values.tolist() == [1, 2, 3, 4]
    assert report.mean_ops[0] == 0.0
    assert report.normalized.max() == 1.0
    assert ((report.normalized >= 0) & (report.normalized <= 1)).all()
    assert report.slope > 0


def test_mean_operation_curve_balances_prefixes_of_one_base_set():
    # the balancer is the oracle: over GF(2), GF(3) and GF(5), every prefix's
    # balanced operations over q equal the counted mean to the last bit
    for p, taps, b in ((2, default_polynomial(2, 6), 2), (3, (1, 2, 0, 1), 2), (5, (2, 3, 0, 1), 2)):
        plan = FrequencyPlan(p=p, b=b)
        report = mean_operation_curve(plan, taps, tau=7)
        for q in report.q_values.tolist():
            _, ledger = cfb_balance(build_base_set(plan, taps, q, 7))
            assert report.mean_ops[q - 1] == ledger.op_count.sum() / q


def test_mean_operation_curve_default_tau(plan_b2):
    with_default = mean_operation_curve(plan_b2, TAPS6)
    explicit = mean_operation_curve(plan_b2, TAPS6, tau=17)  # 63 // 4 = 15 -> 17
    assert np.array_equal(with_default.mean_ops, explicit.mean_ops)
