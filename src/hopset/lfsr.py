"""GF(p) LFSR machinery: primitive polynomial checks and m-sequence generation.

Polynomials over GF(p) are given as coefficient tuples ``(c_0, c_1, ..., c_l)``
in ascending degree order, so ``x^3 + x + 1`` over GF(2) is ``(1, 1, 0, 1)``.
The generator runs the Fibonacci-form recurrence

    s(t) = -(c_0*s(t-l) + c_1*s(t-l+1) + ... + c_{l-1}*s(t-1)) / c_l  (mod p)

and emits the seed symbols first, so a valid configuration produces one full
period p^l - 1 of a maximal-length sequence.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSeedError, InvalidPolynomialError, UnsupportedDegreeError

# Exponents with nonzero coefficients of one primitive polynomial over GF(2)
# per degree, e.g. (0, 1, 3) is x^3 + x + 1. Classic maximal-LFSR taps.
_GF2_PRIMITIVE_EXPONENTS = {
    3: (0, 1, 3),
    4: (0, 1, 4),
    5: (0, 2, 5),
    6: (0, 1, 6),
    7: (0, 1, 7),
    8: (0, 2, 3, 4, 8),
    9: (0, 4, 9),
    10: (0, 3, 10),
    11: (0, 2, 11),
    12: (0, 1, 4, 6, 12),
    13: (0, 1, 3, 4, 13),
    14: (0, 1, 6, 10, 14),
    15: (0, 1, 15),
    16: (0, 1, 3, 12, 16),
    17: (0, 3, 17),
    18: (0, 7, 18),
}


def _check_poly_shape(p, taps):
    """Reject polynomials that are not usable as an LFSR characteristic."""
    taps = tuple(int(c) for c in taps)
    if len(taps) < 2:
        raise InvalidPolynomialError(f"polynomial must have degree >= 1, got {len(taps) - 1}")
    if any(c < 0 or c >= p for c in taps):
        raise InvalidPolynomialError(f"coefficients must lie in [0, {p})")
    if taps[-1] == 0:
        raise InvalidPolynomialError("leading coefficient is zero")
    return taps


def _poly_mulmod(a, b, modulus, p):
    """Multiply polynomials a*b over GF(p) and reduce modulo `modulus`."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_mod(prod, modulus, p)


def _poly_mod(a, modulus, p):
    """Reduce polynomial a modulo `modulus` over GF(p).

    Always returns exactly deg(modulus) coefficients, zero-padded, so
    reduced polynomials compare canonically as lists.
    """
    deg = len(modulus) - 1
    inv_lead = pow(modulus[-1], -1, p)
    a = list(a)
    for i in range(len(a) - 1, deg - 1, -1):
        if a[i]:
            factor = (a[i] * inv_lead) % p
            for j, cj in enumerate(modulus):
                a[i - deg + j] = (a[i - deg + j] - factor * cj) % p
    del a[deg:]
    return a + [0] * (deg - len(a))


def is_prime(k):
    """Trial division; callers bound k (at most 2^24 from outside) before asking."""
    if k < 2:
        return False
    return all(k % d for d in range(2, math.isqrt(k) + 1))


def prime_factors(k):
    """The distinct prime factors of k, ascending, by trial division; none for k < 2."""
    factors = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            factors.append(d)
            while k % d == 0:
                k //= d
        d += 1
    return factors + [k] if k > 1 else factors


@functools.lru_cache(maxsize=None)
def _x_order_is_maximal(p, taps):
    """True iff x has multiplicative order p^l - 1 in GF(p)[x]/(taps).

    That order is maximal exactly when the polynomial is primitive: it is
    checked by confirming x^(p^l - 1) = 1 while x^((p^l - 1)/r) != 1 for
    every prime factor r of p^l - 1.
    """
    l = len(taps) - 1
    n = p**l - 1

    def x_pow(e):
        result = _poly_mod([0, 1], taps, p)
        if e == 0:
            return _poly_mod([1], taps, p)
        bits = bin(e)[3:]  # skip the leading 1; start from x itself
        for bit in bits:
            result = _poly_mulmod(result, result, taps, p)
            if bit == "1":
                result = _poly_mulmod(result, [0, 1], taps, p)
        return result

    one = [1] + [0] * (l - 1)
    if x_pow(n) != one:
        return False
    return all(x_pow(n // r) != one for r in prime_factors(n))


def validate_primitive_polynomial(p, taps):
    """Check whether `taps` is a primitive polynomial over GF(p).

    Returns True iff the LFSR with this characteristic polynomial cycles
    through all p^l - 1 nonzero states from any nonzero seed, which holds
    exactly when x has multiplicative order p^l - 1 modulo the polynomial.

    Raises InvalidPolynomialError for malformed input (degree 0, leading
    coefficient 0, coefficients outside [0, p)).
    """
    if not is_prime(p):
        raise InvalidPolynomialError(f"modulus p={p} is not prime")
    return _x_order_is_maximal(p, _check_poly_shape(p, taps))


def default_polynomial(p, l):
    """Return built-in primitive polynomial coefficients for GF(p), degree l.

    Only p=2 with 3 <= l <= 18 is tabulated; other moduli or degrees must be
    supplied by the caller. Raises UnsupportedDegreeError for entries outside
    the table.
    """
    if p != 2 or l not in _GF2_PRIMITIVE_EXPONENTS:
        raise UnsupportedDegreeError(
            f"no built-in primitive polynomial for p={p}, l={l}; supply taps explicitly"
        )
    exps = _GF2_PRIMITIVE_EXPONENTS[l]
    taps = tuple(1 if i in exps else 0 for i in range(l + 1))
    if not validate_primitive_polynomial(p, taps):
        raise InvalidPolynomialError(f"built-in table entry for (p={p}, l={l}) failed validation")
    return taps


@dataclass(frozen=True)
class LfsrConfig:
    """Validated LFSR configuration: prime modulus, primitive taps, nonzero seed."""

    p: int
    taps: tuple
    seed: tuple

    def __post_init__(self):
        object.__setattr__(self, "taps", tuple(int(c) for c in self.taps))
        object.__setattr__(self, "seed", tuple(int(s) for s in self.seed))
        if not validate_primitive_polynomial(self.p, self.taps):
            raise InvalidPolynomialError(
                f"taps {self.taps} are not primitive over GF({self.p})"
            )
        if len(self.seed) != self.l:
            raise DegenerateSeedError(
                f"seed length {len(self.seed)} does not match degree {self.l}"
            )
        if any(s < 0 or s >= self.p for s in self.seed):
            raise DegenerateSeedError(f"seed symbols must lie in [0, {self.p})")
        if not any(self.seed):
            raise DegenerateSeedError("all-zero seed generates the zero sequence")

    @property
    def l(self):
        return len(self.taps) - 1

    @property
    def period(self):
        return self.p**self.l - 1


@dataclass(frozen=True, eq=False)
class MSequence:
    """One full period of a maximal-length sequence over GF(p)."""

    symbols: np.ndarray = field(repr=False)
    origin: LfsrConfig

    @property
    def n(self):
        return len(self.symbols)

    @property
    def p(self):
        return self.origin.p


def generate_m_sequence(cfg: LfsrConfig) -> MSequence:
    """Run the LFSR for one full period and return the emitted symbols.

    The output has length n = p^l - 1, starts with the seed symbols, and is
    identical on every call with the same configuration.
    """
    p = cfg.p
    l = cfg.l
    inv_lead = pow(cfg.taps[-1], -1, p)
    terms = [(i - l, c) for i, c in enumerate(cfg.taps[:-1]) if c]
    out = list(cfg.seed)
    for t in range(l, cfg.period):
        acc = 0
        for off, c in terms:
            acc += c * out[t + off]
        out.append((-acc * inv_lead) % p)
    symbols = np.array(out, dtype=np.int64)
    symbols.setflags(write=False)
    return MSequence(symbols=symbols, origin=cfg)
