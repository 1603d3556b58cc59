"""Map m-sequences onto frequency spots and build shifted base sequence sets.

Each hop is read off the source sequence as a non-overlapping word of b
symbols with little-endian base-p weights:

    hop(j) = sum_{i=0}^{b-1} s(j*b + i) * p^i,   0 <= j < floor(n/b)

A base set of q sequences reuses one mother m-sequence, cyclically rotated
by a*tau symbols for member a, so all members share the same length and
frequency plan. A set is one q x L array of spot indices, row a for member a.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptySequenceError, FamilySizeError, HopsetError
from .lfsr import is_prime, m_sequence, prime_factors

BASE = "base"
BALANCED = "balanced"

# Largest p, p^l, spot count M and set size q*L a plan, family or file header
# may have: trial division stays fast and no array is sized from an
# unchecked number.
SIZE_LIMIT = 2**24


@dataclass(frozen=True)
class FrequencyPlan:
    """Frequency alphabet of M = p^b spots, indexed 0..M-1."""

    p: int
    b: int

    def __post_init__(self):
        if self.b < 1:
            raise HopsetError(f"tuple width b={self.b} must be positive")
        if self.b >= SIZE_LIMIT.bit_length() or self.M > SIZE_LIMIT:  # before p is factored
            raise HopsetError(f"spot count M={self.p}^{self.b} exceeds the limit {SIZE_LIMIT}")
        if not is_prime(self.p):
            raise HopsetError(f"plan modulus p={self.p} is not prime")

    @property
    def M(self):
        return self.p**self.b


class SequenceSet:
    """An ordered family of q hop sequences sharing one plan and length L.

    The hops live in one read-only q x L int64 array; row a is member a. An
    int64 C-order array that owns its data is handed over: the set adopts it
    and makes it read-only. Anything else (a list, another dtype, a view) is
    copied. Every spot lies in [0, M), and every column of a balanced set
    holds distinct spots.
    """

    def __init__(self, matrix, plan: FrequencyPlan, kind):
        if kind not in (BASE, BALANCED):
            raise HopsetError(f"unknown set kind {kind!r}")
        hops = matrix
        if not (type(hops) is np.ndarray and hops.dtype == np.int64
                and hops.flags.c_contiguous and hops.base is None):
            hops = np.array(matrix, dtype=np.int64, order="C")
        if hops.ndim != 2:
            raise HopsetError(f"a sequence set is a q x L matrix, got {hops.ndim} dimensions")
        if not hops.size:
            raise HopsetError("sequence set needs at least one member and one hop")
        if hops.min() < 0 or hops.max() >= plan.M:
            raise HopsetError(f"spot indices must lie in [0, {plan.M})")
        if kind == BALANCED and (repeated := collided_columns(hops)).size:
            raise HopsetError(f"balanced set has repeated spots in hop column {repeated[0]}")
        hops.setflags(write=False)
        self._hops, self.plan, self.kind = hops, plan, kind

    @property
    def q(self):
        return self._hops.shape[0]

    @property
    def length(self):
        return self._hops.shape[1]

    def as_matrix(self):
        """The stored q x length array, rows in member order (read-only, not a copy)."""
        return self._hops


def collided_columns(matrix):
    """Indices of the columns of a q x L matrix in which two members share a spot."""
    cols = np.sort(matrix, axis=0)
    return np.flatnonzero((cols[1:] == cols[:-1]).any(axis=0))


def validate_family(q, plan: FrequencyPlan):
    """Raise FamilySizeError unless 1 <= q <= M."""
    if q < 1 or q > plan.M:
        raise FamilySizeError(q, plan.M)


def plan_from_spot_count(M) -> FrequencyPlan:
    """Recover the (p, b) plan from M = p^b; unique since p is prime."""
    if M > SIZE_LIMIT:
        raise HopsetError(f"spot count M={M} exceeds the limit {SIZE_LIMIT}")
    factors = prime_factors(M)
    if len(factors) != 1:
        raise HopsetError(f"spot count M={M} is not a prime power")
    p, b = factors[0], 1
    while p**b < M:
        b += 1
    return FrequencyPlan(p=p, b=b)


def default_shift(n, q):
    """Default rotation step: the smallest prime >= floor(n/q), kept below n.

    Spaces the q member start phases as far apart as possible. When the rule
    overshoots the period (tiny n or q=1) the largest prime below n is used
    instead, which is as good as any: member 0 never rotates.
    """
    if n < 3:
        raise HopsetError(f"period n={n} admits no prime shift below it")
    tau = max(n // q, 2)
    while not is_prime(tau):
        tau += 1
    if tau >= n:
        tau = n - 1
        while not is_prime(tau):
            tau -= 1
    return tau


def check_family(plan: FrequencyPlan, l, q, tau=None):
    """Refuse a bad family before any work; return the period n = p^l - 1 and tau.

    Each rule runs before the next one's cost: tau is compared with n before
    it is factored. tau=None takes default_shift(n, q).
    """
    validate_family(q, plan)
    if not 1 <= l < SIZE_LIMIT.bit_length() or plan.p**l > SIZE_LIMIT:
        raise HopsetError(f"l={l} must be at least 1 with p^l={plan.p}^{l} "
                          f"at most the limit {SIZE_LIMIT}")
    n = plan.p**l - 1
    if n < 3 or plan.b >= n:
        raise EmptySequenceError(f"period n={n} must be at least 3 and above the word width b={plan.b}")
    if (entries := q * (n // plan.b)) > SIZE_LIMIT:
        raise HopsetError(f"largest set holds {entries} entries, above the limit {SIZE_LIMIT}")
    if tau is None:
        return n, default_shift(n, q)
    if tau >= n:
        raise HopsetError(f"tau={tau} must be below the period n={n}")
    if not is_prime(tau):
        raise HopsetError(f"tau={tau} must be prime")
    return n, tau


def build_base_set(plan: FrequencyPlan, taps, q, tau=None) -> SequenceSet:
    """Construct the (generally non-orthogonal) base set of q members rotated by tau.

    check_family (l = len(taps) - 1) refuses a bad family before s =
    m_sequence(plan.p, taps), read over the plan's modulus, is built.
    hop_a(j) = sum_i s((a*tau + j*b + i) mod n) * p^i: the word starting at
    symbol k is W(k) = sum_i s((k + i) mod n) * p^i, so member a reads W at
    the starts a*tau + j*b; trailing n mod b symbols of each rotation go unused.
    """
    n, tau = check_family(plan, len(taps) - 1, q, tau)
    symbols = m_sequence(plan.p, taps)
    words = np.zeros(n, dtype=np.int64)
    for i in range(plan.b):
        words += np.roll(symbols, -i) * plan.p**i
    starts = (np.arange(q)[:, None] * tau + np.arange(n // plan.b) * plan.b) % n
    return SequenceSet(words[starts], plan, BASE)
