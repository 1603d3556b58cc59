"""Collision removal and balance accounting for base sequence sets.

The balancer walks the set column by column (hop by hop). Wherever two or
more members occupy the same frequency spot in a column, one member keeps
the spot and each other colliding member is moved to a spot that no member
currently holds in that column. Spot choice steers every member's usage
histogram toward uniform. The resulting set is collision free at zero
delay: every column holds q pairwise distinct spots.

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
from .lfsr import MSequence
from .mapping import (
    BALANCED,
    BASE,
    FamilyConfig,
    FrequencyPlan,
    SequenceSet,
    build_base_set,
    collided_columns,
    default_shift,
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
    per_sequence_ops: tuple
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

    matrix = np.array(base.as_matrix(), order="F")  # the one writable copy
    M = base.plan.M
    usage = frequency_histogram(base).tolist()
    op_count = [0] * base.q

    for i in collided_columns(matrix):
        col = matrix[:, i].tolist()
        holders = {}
        for a, f in enumerate(col):
            holders.setdefault(f, []).append(a)
        available = [f for f in range(M) if f not in holders]
        collided = sorted(f for f, mem in holders.items() if len(mem) > 1)
        for f in collided:
            members = holders[f]
            top = max(op_count[a] for a in members)
            keeper = min(a for a in members if op_count[a] == top)
            movers = sorted((a for a in members if a != keeper),
                            key=lambda a: (op_count[a], a))
            for a in movers:
                row_usage = usage[a]
                # min() keeps the first (lowest-index) spot among ties
                f_new = min(available, key=row_usage.__getitem__)
                available.remove(f_new)
                matrix[a, i] = f_new
                row_usage[f] -= 1
                row_usage[f_new] += 1
                op_count[a] += 1

    ledger = OperationLedger(op_count=np.array(op_count, dtype=np.int64),
                             usage=np.array(usage, dtype=np.int64))
    return SequenceSet(matrix, base.plan, BALANCED), ledger


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


def mean_operation_curve(mseq: MSequence, plan: FrequencyPlan, tau=None) -> FairnessReport:
    """Balance families of every size q = 1..M and fit the mean-operation trend.

    For each q the base set is rebuilt with the same rotation step tau
    (default: the rule for the full-size family) and balanced; the mean
    operation count per member is recorded. The curve is normalized by its
    maximum entry and fitted with a least-squares line over q.
    """
    M = plan.M
    if tau is None:
        tau = default_shift(mseq.n, M)
    per_sequence = []
    means = []
    q_values = np.arange(1, M + 1)
    for q in q_values:
        base = build_base_set(mseq, FamilyConfig(q=int(q), tau=tau), plan)
        _, ledger = cfb_balance(base)
        per_sequence.append(ledger.op_count)
        means.append(float(ledger.op_count.mean()))
    mean_ops = np.array(means)
    peak = mean_ops.max()
    normalized = mean_ops / peak if peak > 0 else np.zeros_like(mean_ops)
    slope, intercept = fit_linear(q_values, normalized)
    return FairnessReport(
        q_values=q_values,
        per_sequence_ops=tuple(per_sequence),
        mean_ops=mean_ops,
        normalized=normalized,
        slope=slope,
        intercept=intercept,
    )
