"""Synchronous FHMA slot-collision simulator.

All users hop at the same rate and are frame synchronized, so at hop t
user u sits on spot member_u(t mod L) and a collision is two users on the
same spot in the same hop slot. Sequences repeat cyclically, so a horizon
of hops = k*L + r slots counts the zero-delay hits of the first r columns
k+1 times and those of the other L-r columns k times: each column is
compared once. A run costs O(q^2 * L) whatever its horizon.
"""

from dataclasses import dataclass, field

import numpy as np

from .correlation import zero_delay_hits
from .errors import ScenarioError
from .mapping import SequenceSet


def check_horizon(hops, q):
    """Refuse a horizon below one hop or one whose largest collision total,
    hops * max(1, q(q-1)/2), overflows int64; a file header's q is enough."""
    if hops < 1:
        raise ScenarioError(f"hop count must be >= 1, got {hops}")
    if int(hops) * max(q * (q - 1) // 2, 1) > np.iinfo(np.int64).max:
        raise ScenarioError(f"hop count {hops} overflows the int64 collision counts")


@dataclass(frozen=True, eq=False)
class SimScenario:
    """A deterministic run: a sequence set and a horizon that check_horizon admits."""

    sset: SequenceSet
    hops: int

    def __post_init__(self):
        check_horizon(self.hops, self.sset.q)


@dataclass(frozen=True, eq=False)
class CollisionReport:
    """Pairwise slot-coincidence counts over the simulated horizon."""

    total_collisions: int
    per_pair: np.ndarray = field(repr=False)
    collision_rate: float


def simulate(scn: SimScenario) -> CollisionReport:
    """Count per-pair slot coincidences over scn.hops synchronized hops."""
    matrix = scn.sset.as_matrix()
    periods, rest = divmod(scn.hops, matrix.shape[1])
    # each term stays <= hops; (periods + 1) * head would overflow at hops = 2^63 - 1, L = 1
    head, tail = zero_delay_hits(matrix[:, :rest]), zero_delay_hits(matrix[:, rest:])
    per_pair = periods * (head + tail) + head
    total = int(np.triu(per_pair, 1).sum())
    pairs = scn.sset.q * (scn.sset.q - 1) // 2
    rate = total / (scn.hops * pairs) if pairs else 0.0
    return CollisionReport(total_collisions=total, per_pair=per_pair, collision_rate=rate)
