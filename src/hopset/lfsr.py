"""GF(p) LFSR machinery: primitive polynomial checks and m-sequence generation.

Polynomials over GF(p) are given as coefficient tuples ``(c_0, c_1, ..., c_l)``
in ascending degree order, so ``x^3 + x + 1`` over GF(2) is ``(1, 1, 0, 1)``.
The generator follows the Fibonacci-form recurrence

    s(t) = -(c_0*s(t-l) + c_1*s(t-l+1) + ... + c_{l-1}*s(t-1)) / c_l  (mod p)

from the state (1, 0, ..., 0), which it emits first, so a primitive polynomial
produces one full period p^l - 1 of a maximal-length sequence. One routine,
`_x_power`, computes x^e mod f: the primitivity test raises x to the group
order and its cofactors, and the generator uses x^t mod f to write the
recurrence a block at a time.
"""

import numpy as np

from .errors import InvalidPolynomialError, UnsupportedDegreeError

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


def is_prime(k):
    """True iff k is prime, by trial division; FrequencyPlan bounds p, check_family n and tau."""
    return prime_factors(k) == [k]


def _x_power(p, taps, e):
    """The l coefficients of x^e mod f over GF(p), lowest first, by square and multiply.

    The one reduction rule is x^l = sum_i fold_i * x^i with fold_i = -c_i / c_l.
    """
    l = len(taps) - 1
    inv_lead = pow(taps[-1], -1, p)
    fold = [(-c * inv_lead) % p for c in taps[:-1]]

    def mulmod(a, b):
        prod = [0] * (2 * l - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for k in range(2 * l - 2, l - 1, -1):
            if high := prod[k] % p:
                for i, fi in enumerate(fold, start=k - l):
                    prod[i] += high * fi
        return [c % p for c in prod[:l]]

    x = fold if l == 1 else [0, 1] + [0] * (l - 2)
    result = [1] + [0] * (l - 1)
    for bit in bin(e)[2:]:
        result = mulmod(result, result)
        if bit == "1":
            result = mulmod(result, x)
    return result


def _x_order_is_maximal(p, taps):
    """True iff x has multiplicative order p^l - 1 in GF(p)[x]/(taps).

    That order is maximal exactly when the polynomial is primitive: it is
    checked by confirming x^(p^l - 1) = 1 while x^((p^l - 1)/r) != 1 for
    every prime factor r of p^l - 1.
    """
    n = p ** (len(taps) - 1) - 1
    one = _x_power(p, taps, 0)
    return _x_power(p, taps, n) == one and all(
        _x_power(p, taps, n // r) != one for r in prime_factors(n))


def validate_primitive_polynomial(p, taps):
    """Check whether `taps` is a primitive polynomial over GF(p).

    Returns True iff the LFSR with this characteristic polynomial cycles
    through all p^l - 1 nonzero states from any nonzero state, which holds
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
    the table. Entries are returned as tabulated: `m_sequence` checks every
    polynomial it is given, so a run checks its polynomial once.
    """
    if p != 2 or l not in _GF2_PRIMITIVE_EXPONENTS:
        raise UnsupportedDegreeError(
            f"no built-in primitive polynomial for p={p}, l={l}; supply taps explicitly"
        )
    exps = _GF2_PRIMITIVE_EXPONENTS[l]
    return tuple(1 if i in exps else 0 for i in range(l + 1))


def m_sequence(p, taps):
    """One full period of the m-sequence of `taps` over GF(p), as a read-only int64 array.

    Raises InvalidPolynomialError unless `taps` is primitive over GF(p). The
    register starts from the state (1, 0, ..., 0), which it emits first; any
    other nonzero state only rotates the same period of n = p^l - 1 symbols.
    The recurrence jumps ahead in blocks: with r = x^t mod f,
    s(t + j) = sum_i r_i * s(j + i), and for j < t - l + 1 every symbol on the
    right is already known, so each block is l multiply-adds over earlier
    symbols and about log2(n) blocks fill the period.
    """
    taps = tuple(int(c) for c in taps)
    if not validate_primitive_polynomial(p, taps):
        raise InvalidPolynomialError(f"taps {taps} are not primitive over GF({p})")
    l = len(taps) - 1
    n = p**l - 1
    symbols = np.zeros(n, dtype=np.int64)
    symbols[0] = 1
    t = l
    while t < n:
        k = min(t - l + 1, n - t)
        block = symbols[t:t + k]  # zero until summed; exact while l*(p-1)^2 < 2^63
        for i, ri in enumerate(_x_power(p, taps, t)):
            if ri:
                block += symbols[i:i + k] if ri == 1 else ri * symbols[i:i + k]
        block %= p
        t += k
    symbols.setflags(write=False)
    return symbols
