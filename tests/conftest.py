import pytest
from hypothesis import strategies as st

from hopset.lfsr import LfsrConfig, default_polynomial, generate_m_sequence, is_prime
from hopset.mapping import FrequencyPlan


def make_mseq(l, p=2, taps=None, seed=None):
    if taps is None:
        taps = default_polynomial(p, l)
    if seed is None:
        seed = (1,) + (0,) * (l - 1)
    return generate_m_sequence(LfsrConfig(p=p, taps=taps, seed=seed))


# one primitive polynomial per (p, l): x^3+x+1 ... over GF(2), then GF(3), GF(5)
PRIMITIVE = [(2, (1, 1, 0, 1)), (2, (1, 1, 0, 0, 1)), (2, (1, 0, 1, 0, 0, 1)),
             (3, (2, 1, 1)), (3, (1, 2, 0, 1)), (3, (2, 1, 0, 0, 1)),
             (5, (2, 1, 1)), (5, (2, 3, 0, 1))]


@st.composite
def base_families(draw):
    """(m-sequence, plan, q, tau) over p in {2, 3, 5} with small l, b and q <= min(M, 9)."""
    p, taps = draw(st.sampled_from(PRIMITIVE))
    l = len(taps) - 1
    seed = draw(st.lists(st.integers(0, p - 1), min_size=l, max_size=l).filter(any))
    mseq = make_mseq(l, p=p, taps=taps, seed=tuple(seed))
    plan = FrequencyPlan(p=p, b=draw(st.integers(1, min(4, mseq.n - 1))))
    tau = draw(st.sampled_from([t for t in range(2, mseq.n) if is_prime(t)]))
    q = draw(st.integers(1, min(plan.M, 9)))
    return mseq, plan, q, tau


@pytest.fixture(scope="session")
def ms3():
    """Period-7 sequence 1,0,0,1,0,1,1 from x^3 + x + 1, seed (1,0,0)."""
    return make_mseq(3, taps=(1, 1, 0, 1))


@pytest.fixture(scope="session")
def ms6():
    return make_mseq(6)


@pytest.fixture(scope="session")
def plan_b2():
    return FrequencyPlan(p=2, b=2)


@pytest.fixture(scope="session")
def plan_b3():
    return FrequencyPlan(p=2, b=3)
