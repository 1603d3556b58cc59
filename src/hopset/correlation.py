"""Hamming correlation, correlation bound, and set-level quality reports.

The Hamming correlation of members u, v of one set at integer delay d
counts positional coincidences under a cyclic shift:

    G(d) = |{ i : u(i) == v((i + d) mod L) }|,  0 <= i < L

All delays are cyclic, so exactly L terms are summed and an auto
correlation peaks at G(0) = L.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import HopsetError
from .mapping import SequenceSet


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Set-level correlation summary and the profiles it is read from.

    max_hamming is the largest correlation over all cross pairs at any
    delay and all members at nonzero auto delay; peng_fan is the exact
    rational lower bound on that maximum for any set of the same shape, or
    None for a one-member set of one hop (L*q = 1), where it is undefined.
    profiles[u] is member u's read-only (q-u) x L int64 block: row v-u is
    G_uv for v >= u, so row 0 is u's auto profile.
    """

    max_hamming: int
    peng_fan: Fraction | None
    histograms: np.ndarray
    no_hit_zone: int
    orthogonal_at_zero: bool
    profiles: list = field(repr=False)


def hamming_correlation(sset: SequenceSet, u, v, delay) -> int:
    """Count positions where member u coincides with member v cyclically shifted by `delay`."""
    matrix = sset.as_matrix()
    d = int(delay) % sset.length
    return int(np.count_nonzero(matrix[u] == np.roll(matrix[v], -d)))


def _cross_spectra(matrix, M):
    """Per member u, (q-u, L//2+1) sums of conj(F_uf) * F_vf, v >= u; F_uf = rfft of 1[u=f]."""
    q, n = matrix.shape
    cross = [np.zeros((q - u, n // 2 + 1), dtype=np.complex128) for u in range(q)]
    for f in range(M):  # one spot's indicator rows and spectra at a time
        spec = np.fft.rfft(matrix == f, axis=-1)
        for u in range(q):
            cross[u] += spec[u].conj() * spec[u:]
    return cross


def _correlate(cross_u, n):
    """Profiles G_uv(d) = sum_f corr(1[u=f], 1[v=f])(d): the rounded inverse rfft."""
    real = np.fft.irfft(cross_u, n=n, axis=-1)
    values = np.rint(real).astype(np.int64)
    if np.abs(real - values).max() > 0.25:
        raise HopsetError(f"FFT correlation is not integral at length {n}")
    values.setflags(write=False)
    return values


def correlation_profile(sset: SequenceSet, u, v) -> np.ndarray:
    """Hamming correlation of members u and v at every delay, from those two members alone."""
    rows = sset.as_matrix()[[u, v]]
    return _correlate(_cross_spectra(rows, sset.plan.M)[0], sset.length)[1]


def peng_fan_bound(n_hops, q, M) -> Fraction:
    """Exact lower bound (L*q - M)*L / ((L*q - 1)*M) on the maximum correlation.

    Returned as a Fraction; raises ZeroDivisionError when L*q = 1.
    """
    n_hops, q, M = int(n_hops), int(q), int(M)
    return Fraction((n_hops * q - M) * n_hops, (n_hops * q - 1) * M)


def frequency_histogram(sset: SequenceSet) -> np.ndarray:
    """q x M occurrences of each spot 0..M-1 per member; every row sums to L."""
    return np.array([np.bincount(row, minlength=sset.plan.M) for row in sset.as_matrix()])


def zero_delay_hits(matrix) -> np.ndarray:
    """q x q counts of the columns of a q x L matrix where members u != v share a spot."""
    q = len(matrix)
    # spots are non-negative: compare in the narrowest type that holds them (1 byte at M <= 256)
    matrix = matrix.astype(np.min_scalar_type(matrix.max(initial=0)))
    hits = np.zeros((q, q), dtype=np.int64)
    for u in range(q - 1):  # member u against every later member in one call
        hits[u, u + 1:] = np.count_nonzero(matrix[u] == matrix[u + 1:], axis=1)
    return hits + hits.T


def analyze_set(sset: SequenceSet) -> AnalysisReport:
    """Full correlation survey of a set: every pairwise profile, peak sidelobe, bound, histograms.

    Cost grows with q^2 * M * L log L. Each member's block is checked
    against exact identities (row sums h_u . h_v, G_uu(0) = L, G_uv(0) the
    zero-delay hits); a failure is a HopsetError.
    """
    matrix, q, n = sset.as_matrix(), sset.q, sset.length
    histograms = frequency_histogram(sset)
    zero = zero_delay_hits(matrix)
    cross = _cross_spectra(matrix, sset.plan.M)
    profiles, max_hamming, hits = [], 0, np.zeros(n, dtype=bool)
    for u in range(q):
        # each member's cross-spectra are freed once its profiles exist
        block, cross[u] = _correlate(cross[u], n), None
        if (block[0, 0] != n or (block[1:, 0] != zero[u, u + 1:]).any()
                or (block.sum(axis=1) != histograms[u] @ histograms[u:].T).any()):
            raise HopsetError(f"correlation profiles of member {u} break an exact identity")
        max_hamming = max(max_hamming, int(block[0, 1:].max(initial=0)),
                          int(block[1:].max(initial=0)))
        hits |= block[1:].any(axis=0)
        profiles.append(block)

    # a hit at cyclic delay d is also a hit at -(n-d); only delay 0 maps to -1
    dist = np.minimum(np.arange(n), n - np.arange(n)) - 1
    zone = int(dist[hits].min(initial=n - 1))
    peng_fan = peng_fan_bound(n, q, sset.plan.M) if n * q > 1 else None
    return AnalysisReport(max_hamming, peng_fan, histograms, zone, zone >= 0, profiles)
