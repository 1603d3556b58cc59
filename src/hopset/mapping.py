"""Map m-sequences onto frequency spots and build shifted base sequence sets.

Each hop is read off the source sequence as a non-overlapping word of b
symbols with little-endian base-p weights:

    hop(j) = sum_{i=0}^{b-1} s(j*b + i) * p^i,   0 <= j < floor(n/b)

A base set of q sequences reuses one mother m-sequence, cyclically rotated
by a*tau symbols for member a, so all members share the same length and
frequency plan.
"""

from dataclasses import dataclass, field

import numpy as np
import sympy

from .errors import EmptySequenceError, FamilySizeError, HopsetError
from .lfsr import MSequence

BASE = "base"
BALANCED = "balanced"


@dataclass(frozen=True)
class FrequencyPlan:
    """Frequency alphabet of M = p^b spots, indexed 0..M-1."""

    p: int
    b: int

    def __post_init__(self):
        if not sympy.isprime(self.p):
            raise HopsetError(f"plan modulus p={self.p} is not prime")
        if self.b < 1:
            raise HopsetError(f"tuple width b={self.b} must be positive")

    @property
    def M(self):
        return self.p**self.b


@dataclass(frozen=True, eq=False)
class HopSequence:
    """A sequence of frequency-spot indices, one per hop."""

    hops: np.ndarray = field(repr=False)
    plan: FrequencyPlan

    @property
    def length(self):
        return len(self.hops)


@dataclass(frozen=True)
class FamilyConfig:
    """Family size q and the prime rotation step tau between members."""

    q: int
    tau: int

    def __post_init__(self):
        if self.q < 1:
            raise FamilySizeError(self.q)
        if not sympy.isprime(self.tau):
            raise HopsetError(f"shift tau={self.tau} must be prime")


@dataclass(frozen=True, eq=False)
class SequenceSet:
    """An ordered family of hop sequences sharing one plan and length."""

    members: tuple
    kind: str

    def __post_init__(self):
        if self.kind not in (BASE, BALANCED):
            raise HopsetError(f"unknown set kind {self.kind!r}")
        if not self.members:
            raise HopsetError("sequence set needs at least one member")
        first = self.members[0]
        for m in self.members[1:]:
            if m.length != first.length or m.plan != first.plan:
                raise HopsetError("set members must share length and plan")
        if self.kind == BALANCED and len(self.members) > 1:
            cols = np.sort(self.as_matrix(), axis=0)
            repeated = np.flatnonzero((cols[1:] == cols[:-1]).any(axis=0))
            if repeated.size:
                raise HopsetError(f"balanced set has repeated spots in hop column {repeated[0]}")

    @property
    def q(self):
        return len(self.members)

    @property
    def length(self):
        return self.members[0].length

    @property
    def plan(self):
        return self.members[0].plan

    def as_matrix(self):
        """Stack members into a q x length array (copy, rows in member order)."""
        return np.array([m.hops for m in self.members], dtype=np.int64)


def set_from_matrix(matrix, plan, kind):
    """Build a SequenceSet from a q x length array of spot indices."""
    members = []
    for row in np.asarray(matrix, dtype=np.int64):
        hops = row.copy()
        hops.setflags(write=False)
        members.append(HopSequence(hops=hops, plan=plan))
    return SequenceSet(members=tuple(members), kind=kind)


def validate_family(q, plan: FrequencyPlan):
    """Raise FamilySizeError unless 1 <= q <= M."""
    if q < 1 or q > plan.M:
        raise FamilySizeError(q, plan.M)


def default_shift(n, q):
    """Default rotation step: the smallest prime >= floor(n/q), kept below n.

    Spaces the q member start phases as far apart as possible. When the rule
    overshoots the period (tiny n or q=1) the largest prime below n is used
    instead, which is as good as any: member 0 never rotates.
    """
    if n < 3:
        raise HopsetError(f"period n={n} admits no prime shift below it")
    k = max(n // q, 2)
    tau = k if sympy.isprime(k) else int(sympy.nextprime(k))
    if tau >= n:
        tau = int(sympy.prevprime(n))
    return tau


def _map_words(symbols, plan: FrequencyPlan):
    n = len(symbols)
    if plan.b >= n:
        raise EmptySequenceError(f"tuple width b={plan.b} too large for period n={n}")
    n_hops = n // plan.b
    words = np.asarray(symbols[: n_hops * plan.b]).reshape(n_hops, plan.b)
    weights = plan.p ** np.arange(plan.b, dtype=np.int64)
    hops = words @ weights
    hops.setflags(write=False)
    return hops


def tuple_map(mseq: MSequence, plan: FrequencyPlan) -> HopSequence:
    """Map an m-sequence to hops word by word; trailing n mod b symbols are dropped."""
    if plan.p != mseq.p:
        raise HopsetError(f"plan modulus p={plan.p} differs from sequence modulus {mseq.p}")
    return HopSequence(hops=_map_words(mseq.symbols, plan), plan=plan)


def shifted_hop_sequence(mseq: MSequence, a, fam: FamilyConfig, plan: FrequencyPlan) -> HopSequence:
    """Member a of the family: the tuple map of the mother sequence rotated by a*tau.

    hop(j) = sum_i s((a*tau + j*b + i) mod n) * p^i, so a=0 reproduces
    tuple_map exactly and every member has the same length floor(n/b).
    """
    if a < 0 or a >= fam.q:
        raise IndexError(f"member index {a} outside family of size {fam.q}")
    if plan.p != mseq.p:
        raise HopsetError(f"plan modulus p={plan.p} differs from sequence modulus {mseq.p}")
    if fam.tau >= mseq.n:
        raise HopsetError(f"shift tau={fam.tau} must be smaller than period n={mseq.n}")
    rotated = np.roll(mseq.symbols, -(a * fam.tau) % mseq.n)
    return HopSequence(hops=_map_words(rotated, plan), plan=plan)


def build_base_set(mseq: MSequence, fam: FamilyConfig, plan: FrequencyPlan) -> SequenceSet:
    """Construct the (generally non-orthogonal) base set of q rotated members."""
    validate_family(fam.q, plan)
    members = tuple(shifted_hop_sequence(mseq, a, fam, plan) for a in range(fam.q))
    return SequenceSet(members=members, kind=BASE)
