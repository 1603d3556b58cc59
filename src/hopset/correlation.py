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

AUTO = "auto"
CROSS = "cross"


@dataclass(frozen=True, eq=False)
class CorrelationProfile:
    """Hamming correlation counts for every delay 0..L-1 of one pair."""

    values: np.ndarray = field(repr=False)
    kind: str
    pair: tuple


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Set-level correlation summary.

    max_hamming is the largest correlation over all cross pairs at any
    delay and all members at nonzero auto delay; peng_fan is the exact
    rational lower bound on that maximum for any set of the same shape, or
    None for a one-member set of one hop (L*q = 1), where it is undefined.
    """

    max_hamming: int
    peng_fan: Fraction | None
    histograms: np.ndarray
    no_hit_zone: int
    orthogonal_at_zero: bool


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


def correlation_profile(sset: SequenceSet, u, v) -> CorrelationProfile:
    """Hamming correlation of members u and v at every delay; kind is auto iff u == v."""
    rows = sset.as_matrix()[[u, v]]
    values = _correlate(_cross_spectra(rows, sset.plan.M)[0], sset.length)[1]
    return CorrelationProfile(values=values, kind=AUTO if u == v else CROSS, pair=(u, v))


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
    hits = np.zeros((q, q), dtype=np.int64)
    for u in range(q - 1):  # member u against every later member in one call
        hits[u, u + 1:] = np.count_nonzero(matrix[u] == matrix[u + 1:], axis=1)
    return hits + hits.T


def verify_orthogonality(sset: SequenceSet):
    """Zero-delay collision check across all member pairs.

    Returns a list of (u, v, count), u < v in index order, for every pair
    with a nonzero correlation at delay 0; an empty list means the set is
    orthogonal.
    """
    hits = np.triu(zero_delay_hits(sset.as_matrix()))
    return [(int(u), int(v), int(hits[u, v])) for u, v in zip(*np.nonzero(hits))]


def pairwise_profiles(sset: SequenceSet):
    """Profiles for every member pair u <= v, autos included, in index order."""
    cross = _cross_spectra(sset.as_matrix(), sset.plan.M)
    profiles = []
    for u in range(sset.q):
        # each member's cross-spectra are freed once its profiles exist
        rows, cross[u] = _correlate(cross[u], sset.length), None
        for v, values in enumerate(rows, start=u):
            profiles.append(CorrelationProfile(values, AUTO if u == v else CROSS, (u, v)))
    return profiles


def analyze_set(sset: SequenceSet, profiles=None) -> AnalysisReport:
    """Full correlation survey of a set: peak sidelobes, bound, histograms.

    Computes every pairwise profile (cost grows with q^2 * M * L log L)
    unless a precomputed list from pairwise_profiles is passed in.
    """
    q, n = sset.q, sset.length
    if profiles is None:
        profiles = pairwise_profiles(sset)

    # a hit at cyclic delay d is also a hit at -(n-d); only delay 0 maps to -1
    dist = np.minimum(np.arange(n), n - np.arange(n)) - 1
    max_hamming = 0
    zone = n - 1
    for profile in profiles:
        if profile.kind == AUTO:
            max_hamming = max(max_hamming, int(profile.values[1:].max(initial=0)))
        else:
            max_hamming = max(max_hamming, int(profile.values.max()))
            zone = min(zone, int(dist[profile.values != 0].min(initial=zone)))

    return AnalysisReport(
        max_hamming=max_hamming,
        peng_fan=peng_fan_bound(n, q, sset.plan.M) if n * q > 1 else None,
        histograms=frequency_histogram(sset),
        no_hit_zone=zone,
        orthogonal_at_zero=zone >= 0,
    )
