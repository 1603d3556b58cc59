import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopset.errors import InvalidPolynomialError, UnsupportedDegreeError
from hopset.lfsr import (
    _GF2_PRIMITIVE_EXPONENTS,
    _x_power,
    default_polynomial,
    is_prime,
    m_sequence,
    prime_factors,
    validate_primitive_polynomial,
)

from conftest import PRIMITIVE, make_mseq


# --- independent oracles -------------------------------------------------

def walk_cycle_length(p, taps):
    """Step the register from state (1,0,...,0) until it recurs; None if the
    walk re-enters elsewhere (possible for reducible polynomials)."""
    l = len(taps) - 1
    inv = pow(taps[-1], -1, p)
    start = (1,) + (0,) * (l - 1)
    state = start
    for count in range(1, p**l + 1):
        fb = (-sum(c * s for c, s in zip(taps[:-1], state)) * inv) % p
        state = state[1:] + (fb,)
        if state == start:
            return count
    return None


def x_powers_by_stepping(p, taps, count):
    """x^0, x^1, ..., x^(count-1) mod taps, each from the last by one multiplication by x."""
    l = len(taps) - 1
    inv = pow(taps[-1], -1, p)
    fold = [(-c * inv) % p for c in taps[:-1]]
    cur = [1] + [0] * (l - 1)
    for _ in range(count):
        yield cur
        high = cur[l - 1]
        cur = [0] + cur[:-1]
        if high:
            cur = [(a + high * f) % p for a, f in zip(cur, fold)]


def order_of_x(p, taps):
    """Smallest k >= 1 with x^k = 1 mod taps, by repeated multiplication; None if
    x never returns to 1 within p^l steps (x not invertible)."""
    one = [1] + [0] * (len(taps) - 2)
    powers = enumerate(x_powers_by_stepping(p, taps, p ** (len(taps) - 1) + 1))
    return next((k for k, cur in powers if k and cur == one), None)


def reference_m_sequence(p, taps, start=None):
    """The recurrence one symbol at a time from `start` (default (1, 0, ..., 0)): the oracle for the block generator."""
    l = len(taps) - 1
    inv_lead = pow(taps[-1], -1, p)
    terms = [(i - l, c) for i, c in enumerate(taps[:-1]) if c]
    out = [1] + [0] * (l - 1) if start is None else list(start)
    for t in range(l, p**l - 1):
        acc = 0
        for off, c in terms:
            acc += c * out[t + off]
        out.append((-acc * inv_lead) % p)
    return out


def sieve(limit):
    """Sieve of Eratosthenes: flags[k] is True iff k is prime, 0 <= k <= limit."""
    flags = [False, False] + [True] * (limit - 1)
    for k in range(2, int(limit**0.5) + 1):
        if flags[k]:
            flags[k * k::k] = [False] * len(flags[k * k::k])
    return flags


# --- prime helpers --------------------------------------------------------

def test_prime_helpers_match_sieve():
    flags = sieve(10**4)
    primes = [k for k, prime in enumerate(flags) if prime]
    assert [is_prime(k) for k in range(10**4 + 1)] == flags
    assert not is_prime(-7)
    for k in range(1, 10**4 + 1):
        factors = prime_factors(k)
        assert factors == sorted(r for r in primes if k % r == 0), k
        rest = k
        for r in factors:
            while rest % r == 0:
                rest //= r
        assert rest == 1, k


# --- primitivity validation ----------------------------------------------

def test_x3_x_1_is_primitive():
    assert validate_primitive_polynomial(2, (1, 1, 0, 1)) is True


def test_reducible_cubic_rejected():
    # x^3+x^2+x+1 = (x+1)(x^2+1); the walk oracle confirms a short cycle
    assert validate_primitive_polynomial(2, (1, 1, 1, 1)) is False
    assert walk_cycle_length(2, (1, 1, 1, 1)) != 7


def test_degree14_pentanomial_by_state_enumeration():
    taps = default_polynomial(2, 14)
    assert validate_primitive_polynomial(2, taps) is True
    assert walk_cycle_length(2, taps) == 2**14 - 1


@pytest.mark.parametrize("bad", [(1,), (1, 1, 0), (1, 2, 1, 1)])
def test_malformed_polynomials_raise(bad):
    with pytest.raises(InvalidPolynomialError):
        validate_primitive_polynomial(2, bad)


def test_nonprime_modulus_raises():
    with pytest.raises(InvalidPolynomialError):
        validate_primitive_polynomial(4, (1, 1, 0, 1))


def test_validator_agrees_with_x_order_bruteforce():
    # every polynomial with nonzero lead of degree 1-4 over GF(2) and GF(3)
    # and of degree 1-3 over GF(5), against both brute-force oracles; the
    # square-and-multiply x-power against stepping for every e < 2 p^l
    for p, degrees in ((2, range(1, 5)), (3, range(1, 5)), (5, range(1, 4))):
        for l in degrees:
            for mid in itertools.product(range(p), repeat=l):
                for lead in range(1, p):
                    taps = mid + (lead,)
                    stepped = list(x_powers_by_stepping(p, taps, 2 * p**l))
                    assert [_x_power(p, taps, e) for e in range(2 * p**l)] == stepped, taps
                    expected = order_of_x(p, taps) == p**l - 1
                    assert (walk_cycle_length(p, taps) == p**l - 1) is expected, taps
                    assert validate_primitive_polynomial(p, taps) is expected, taps


def test_validator_walk_and_order_paths_agree_degree8():
    # spot-check the multiplicative-order test against the walk oracle at degree 8
    polys = [default_polynomial(2, 8), (1, 1, 1, 1, 1, 1, 1, 1, 1), (1, 0, 0, 0, 0, 0, 0, 0, 1)]
    for taps in polys:
        assert validate_primitive_polynomial(2, taps) is (walk_cycle_length(2, taps) == 255)


def test_order_path_agrees_with_bruteforce_at_small_degrees():
    # the multiplicative-order test called directly, reducibles included
    from hopset.lfsr import _x_order_is_maximal

    for mid in itertools.product((0, 1), repeat=4):
        taps = mid + (1,)
        assert _x_order_is_maximal(2, taps) is (order_of_x(2, taps) == 15), taps
    for mid in itertools.product((0, 1, 2), repeat=2):
        taps = mid + (1,)
        assert _x_order_is_maximal(3, taps) is (order_of_x(3, taps) == 8), taps
    for exps in [(0, 2, 3, 4, 8), (0, 8), (0, 1, 8), (0, 4, 8), (0, 1, 2, 7, 8)]:
        taps = tuple(1 if i in exps else 0 for i in range(9))
        assert _x_order_is_maximal(2, taps) is (order_of_x(2, taps) == 255), taps


# --- built-in table -------------------------------------------------------

def test_default_polynomial_pinned_entries():
    assert default_polynomial(2, 14) == (1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert default_polynomial(2, 15) == (1, 1) + (0,) * 13 + (1,)


def test_default_polynomial_table_all_primitive():
    for l in _GF2_PRIMITIVE_EXPONENTS:
        taps = default_polynomial(2, l)
        assert len(taps) == l + 1
        assert validate_primitive_polynomial(2, taps)


@pytest.mark.parametrize("p,l", [(2, 2), (2, 19), (3, 2), (5, 4)])
def test_default_polynomial_unknown_entries(p, l):
    with pytest.raises(UnsupportedDegreeError):
        default_polynomial(p, l)


# --- sequence generation --------------------------------------------------

def test_hand_iterated_period7_sequence(ms3):
    assert ms3.tolist() == [1, 0, 0, 1, 0, 1, 1]


@pytest.mark.parametrize("p,taps", [(2, default_polynomial(2, l)) for l in range(3, 19)]
                         + [(5, (3, 1))] + [(p, taps) for p, taps in PRIMITIVE if p > 2])
def test_generator_matches_reference(p, taps):
    # the table entries, l=1, where x mod f is the constant -c_0/c_1, and GF(3), GF(5)
    assert m_sequence(p, taps).tolist() == reference_m_sequence(p, taps)


@pytest.mark.parametrize("p,taps", PRIMITIVE)
@settings(derandomize=True, deadline=None, max_examples=20)
@given(data=st.data())
def test_generator_matches_reference_over_seeds(p, taps, data):
    # every nonzero state lies on the one cycle: the recurrence from a drawn
    # state is the generator's output rotated to where that state occurs
    l = len(taps) - 1
    seed = data.draw(st.lists(st.integers(0, p - 1), min_size=l, max_size=l).filter(any))
    ms = m_sequence(p, taps)
    n = ms.size
    k = next(i for i in range(n) if all(ms[(i + j) % n] == seed[j] for j in range(l)))
    assert np.roll(ms, -k).tolist() == reference_m_sequence(p, taps, start=seed)


def test_generation_is_deterministic():
    assert np.array_equal(make_mseq(6), make_mseq(6))


def test_degree14_default_period():
    assert make_mseq(14).size == 16383


@pytest.mark.parametrize("p,l,taps", [
    (2, 3, None), (2, 4, None), (2, 5, None), (2, 6, None),
    (3, 2, (2, 1, 1)), (3, 3, (1, 2, 0, 1)),
])
def test_symbol_balance(p, l, taps):
    # zeros appear p^(l-1)-1 times, every nonzero symbol p^(l-1) times
    ms = make_mseq(l, p=p, taps=taps)
    counts = np.bincount(ms, minlength=p)
    assert counts[0] == p ** (l - 1) - 1
    assert all(c == p ** (l - 1) for c in counts[1:])


@pytest.mark.parametrize("p,l,taps", [(2, 5, None), (2, 6, None), (3, 2, (2, 1, 1))])
def test_every_nonzero_window_occurs_once(p, l, taps):
    sym = make_mseq(l, p=p, taps=taps).tolist()
    n = len(sym)
    windows = set()
    for i in range(n):
        windows.add(tuple(sym[(i + j) % n] for j in range(l)))
    assert len(windows) == n
    assert tuple([0] * l) not in windows


def test_period_is_exact():
    ms = make_mseq(5)
    doubled = np.concatenate([ms, ms])
    for shift in range(1, ms.size):
        assert not np.array_equal(ms, doubled[shift:shift + ms.size])


def test_non_primitive_taps_rejected_at_config():
    # a list of taps is named as a tuple, as `--poly` errors always were
    with pytest.raises(InvalidPolynomialError,
                       match=r"^taps \(1, 1, 1, 1\) are not primitive over GF\(2\)$"):
        m_sequence(2, [1, 1, 1, 1])


def test_generated_symbols_are_read_only():
    ms = make_mseq(4)
    with pytest.raises(ValueError):
        ms[0] = 1
