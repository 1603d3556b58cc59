"""Collision removal and balance accounting for base sequence sets.

The balancer walks the set column by column (hop by hop). Wherever two or
more members occupy the same frequency spot in a column, one member keeps
the spot and each other colliding member is moved to a spot that no member
currently holds in that column. Spot choice steers every member's usage
histogram toward uniform. The result is collision free at zero delay: every
column holds q distinct spots. Whatever the tie-breaks, a column with D(i)
distinct base spots costs q - D(i) moves, which is why the fairness sweep counts.

Deterministic tie-break rules, applied in this order:
  * columns are processed left to right, collision groups within a column
    in ascending spot value;
  * the group member with the largest operation count so far keeps its
    entry (ties: lowest member index keeps);
  * the remaining members are reassigned in ascending operation count
    (ties: ascending member index);
  * the replacement spot is the free spot the member has used least so far
    (ties: lowest spot index).
"""

from dataclasses import dataclass, field

import numpy as np

from .correlation import frequency_histogram
from .errors import HopsetError, SingularFitError
from .mapping import (
    BALANCED,
    BASE,
    FrequencyPlan,
    SequenceSet,
    build_base_set,
    collided_columns,
    validate_family,
)


@dataclass(frozen=True, eq=False)
class OperationLedger:
    """Replacement accounting for one balancing run.

    op_count[a] is the number of entries of member a that were rewritten;
    usage[a][f] is how often member a uses spot f after balancing, so every
    row of usage sums to the sequence length.
    """

    op_count: np.ndarray
    usage: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class FairnessReport:
    """Mean operation counts over a family-size sweep, with a linear fit."""

    q_values: np.ndarray
    mean_ops: np.ndarray
    normalized: np.ndarray
    slope: float
    intercept: float


def cfb_balance(base: SequenceSet):
    """Rewrite a base set into a collision-free balanced set.

    Returns (balanced_set, ledger). Entries that never collide are carried
    over unchanged; q <= M guarantees a free spot always exists, so the
    result has q distinct values in every column.
    """
    if base.kind != BASE:
        raise HopsetError(f"expected a base set, got kind={base.kind!r}")
    validate_family(base.q, base.plan)

    matrix = base.as_matrix().copy()  # the one writable copy, C order
    usage = frequency_histogram(base).tolist()
    op_count = [0] * base.q

    for i in collided_columns(matrix):
        col = matrix[:, i].tolist()
        keeper = {}  # spot -> first member with the most operations so far
        for a, f in enumerate(col):
            if f not in keeper or op_count[a] > op_count[keeper[f]]:
                keeper[f] = a
        free = [f for f in range(base.plan.M) if f not in keeper]
        # exact for every group: a member's count changes only when it moves
        for f, _, a in sorted((f, op_count[a], a) for a, f in enumerate(col) if keeper[f] != a):
            row = usage[a]
            f_new = min(free, key=row.__getitem__)  # the first least-used spot
            col[a] = f_new
            free.remove(f_new)
            row[f] -= 1
            row[f_new] += 1
            op_count[a] += 1
        matrix[:, i] = col

    balanced = SequenceSet(matrix, base.plan, BALANCED)  # checks every column
    ledger = OperationLedger(op_count=np.array(op_count, dtype=np.int64),
                             usage=np.array(usage, dtype=np.int64))
    if not np.array_equal((matrix != base.as_matrix()).sum(axis=1), ledger.op_count):
        raise HopsetError("balancer broke an identity: changed entries per member != op_count")
    if not np.array_equal(frequency_histogram(balanced), ledger.usage):
        raise HopsetError("balancer broke an identity: usage != balanced spot counts")
    cols = np.sort(base.as_matrix(), axis=0)
    if ledger.op_count.sum() != (cols[1:] == cols[:-1]).sum():
        raise HopsetError("balancer broke an identity: total op_count != repeated base spots")
    return balanced, ledger


def fit_linear(xs, ys):
    """Ordinary least-squares line fit; returns (slope, intercept).

    Raises SingularFitError when fewer than two points are given or all x
    values coincide.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.size < 2:
        raise SingularFitError("need at least two (x, y) points")
    dx = xs - xs.mean()
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        raise SingularFitError("all x values are equal")
    slope = float(np.dot(dx, ys - ys.mean())) / sxx
    intercept = float(ys.mean() - slope * xs.mean())
    return slope, intercept


def mean_operation_curve(plan: FrequencyPlan, taps, tau=None) -> FairnessReport:
    """Count the mean operations of families of every size q = 1..M and fit the trend.

    One base set of M members is built with rotation step tau (default: the
    rule for the full-size family); its first q rows are the base set of q
    members. Balancing those costs q - D_q(i) moves in column i, so the sweep
    counts and does not balance: row a adds one operation per column whose
    spot an earlier row holds. The curve is normalized by its maximum entry
    and fitted with a least-squares line over q.
    """
    M = plan.M
    full = build_base_set(plan, taps, M, tau).as_matrix()
    cols = np.arange(full.shape[1])
    held = np.zeros((M, full.shape[1]), dtype=bool)  # spot x column
    repeats = np.zeros(M, dtype=np.int64)
    for a, row in enumerate(full):
        repeats[a] = held[row, cols].sum()
        held[row, cols] = True
    q_values = np.arange(1, M + 1)
    mean_ops = np.cumsum(repeats) / q_values
    peak = mean_ops.max()
    normalized = mean_ops / peak if peak > 0 else np.zeros_like(mean_ops)
    slope, intercept = fit_linear(q_values, normalized)
    return FairnessReport(
        q_values=q_values,
        mean_ops=mean_ops,
        normalized=normalized,
        slope=slope,
        intercept=intercept,
    )
