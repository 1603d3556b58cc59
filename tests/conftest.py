import pytest
from hypothesis import strategies as st

from hopset.lfsr import default_polynomial, is_prime, m_sequence
from hopset.mapping import FrequencyPlan


def make_mseq(l, p=2, taps=None):
    """One period from (p, taps); the built-in polynomial of degree l when taps is None."""
    return m_sequence(p, default_polynomial(p, l) if taps is None else taps)


# one primitive polynomial per (p, l): x^3+x+1 ... over GF(2), then GF(3), GF(5)
PRIMITIVE = [(2, (1, 1, 0, 1)), (2, (1, 1, 0, 0, 1)), (2, (1, 0, 1, 0, 0, 1)),
             (3, (2, 1, 1)), (3, (1, 2, 0, 1)), (3, (2, 1, 0, 0, 1)),
             (5, (2, 1, 1)), (5, (2, 3, 0, 1))]


@st.composite
def base_families(draw):
    """build_base_set's (plan, taps, q, tau) over p in {2, 3, 5} with small l, b and q <= min(M, 9)."""
    p, taps = draw(st.sampled_from(PRIMITIVE))
    n = p ** (len(taps) - 1) - 1
    plan = FrequencyPlan(p=p, b=draw(st.integers(1, min(4, n - 1))))
    tau = draw(st.sampled_from([t for t in range(2, n) if is_prime(t)]))
    q = draw(st.integers(1, min(plan.M, 9)))
    return plan, taps, q, tau


TAPS3 = (1, 1, 0, 1)  # x^3 + x + 1
TAPS6 = default_polynomial(2, 6)


@pytest.fixture(scope="session")
def ms3():
    """Period-7 sequence 1,0,0,1,0,1,1 from x^3 + x + 1."""
    return make_mseq(3, taps=TAPS3)


@pytest.fixture(scope="session")
def ms6():
    return make_mseq(6)


@pytest.fixture(scope="session")
def plan_b2():
    return FrequencyPlan(p=2, b=2)


@pytest.fixture(scope="session")
def plan_b3():
    return FrequencyPlan(p=2, b=3)
