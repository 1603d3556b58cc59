"""Synchronous FHMA slot-collision simulator.

All users hop at the same rate and are frame synchronized; per-user delays
are restricted to a fraction of one dwell, so at hop t user u sits on spot
member_u(t mod L) and a collision is two users on the same spot in the
same hop slot. Sequences repeat cyclically when the simulated horizon
exceeds their length.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import IncompatibleSetError, ScenarioError, UnsupportedDelayError
from .mapping import SequenceSet


@dataclass(frozen=True, eq=False)
class SimScenario:
    """A deterministic run: a sequence set, a hop horizon, sub-dwell offsets.

    Offsets model receive-time jitter below one dwell; they are validated
    (anything >= 1 dwell is out of the synchronous model) but do not move
    the hop index.
    """

    sset: SequenceSet
    hops: int
    offsets: tuple = None

    def __post_init__(self):
        if self.hops < 1:
            raise ScenarioError(f"hop count must be >= 1, got {self.hops}")
        offsets = self.offsets
        if offsets is None:
            offsets = (0.0,) * self.sset.q
        offsets = tuple(float(x) for x in offsets)
        if len(offsets) != self.sset.q:
            raise ScenarioError(f"need one offset per user: got {len(offsets)} for q={self.sset.q}")
        for x in offsets:
            if not 0.0 <= x < 1.0:
                raise UnsupportedDelayError(
                    f"offset {x} outside [0, 1) dwell; delays of a hop or more "
                    "are not modeled"
                )
        object.__setattr__(self, "offsets", offsets)


@dataclass(frozen=True, eq=False)
class CollisionReport:
    """Pairwise slot-coincidence counts over the simulated horizon."""

    total_collisions: int
    per_pair: np.ndarray = field(repr=False)
    collision_rate: float


def simulate(scn: SimScenario) -> CollisionReport:
    """Count per-pair slot coincidences over scn.hops synchronized hops."""
    matrix = scn.sset.as_matrix()
    q, n = matrix.shape
    spots = matrix[:, np.arange(scn.hops) % n]
    per_pair = np.zeros((q, q), dtype=np.int64)
    for u in range(q):
        for v in range(u + 1, q):
            hits = int(np.count_nonzero(spots[u] == spots[v]))
            per_pair[u, v] = hits
            per_pair[v, u] = hits
    total = int(np.triu(per_pair, 1).sum())
    pairs = q * (q - 1) // 2
    rate = total / (scn.hops * pairs) if pairs else 0.0
    return CollisionReport(total_collisions=total, per_pair=per_pair, collision_rate=rate)


def compare_sets(base: SequenceSet, balanced: SequenceSet, hops):
    """Run the identical scenario on two sets; returns (base_report, balanced_report)."""
    if (base.q, base.length, base.plan) != (balanced.q, balanced.length, balanced.plan):
        raise IncompatibleSetError(
            "sets differ in shape: "
            f"({base.q}, {base.length}) vs ({balanced.q}, {balanced.length})"
        )
    return (
        simulate(SimScenario(sset=base, hops=hops)),
        simulate(SimScenario(sset=balanced, hops=hops)),
    )
