"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The family-size fairness sweep (criterion 4) covers nine (l, M)
configurations up to l=18 and counts repeated spots, so it takes well
under a second. Criterion 10 repeats the sweep's 1/M law over GF(3) and
GF(5). Both hold every slope within 1% of the occupancy (balls-in-bins)
model.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from hopset.balancer import cfb_balance, fit_linear, mean_operation_curve
from hopset.cli import main as cli_main
from hopset.correlation import analyze_set, correlation_profile, hamming_correlation
from hopset.errors import FamilySizeError
from hopset.lfsr import default_polynomial, m_sequence, validate_primitive_polynomial
from hopset.mapping import (
    FrequencyPlan,
    build_base_set,
    validate_family,
)
from hopset.sim import SimScenario, simulate


def report(num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def naive_hamming(u, v, d):
    n = len(u)
    return sum(1 for i in range(n) if u[i] == v[(i + d) % n])


def columns_distinct(sset):
    """True iff no column repeats a spot, i.e. every pair has G_uv(0) = 0."""
    cols = np.sort(sset.as_matrix(), axis=0)
    return not (cols[1:] == cols[:-1]).any()


def histogram_check(base, balanced):
    """(every balanced histogram within 10% of n'/M, no member's spread grew
    by more than 1, worst relative deviation from n'/M)."""
    M = balanced.plan.M
    target = balanced.length / M
    hist_before = np.array([np.bincount(r, minlength=M) for r in base.as_matrix()])
    hist_after = np.array([np.bincount(r, minlength=M) for r in balanced.as_matrix()])
    deviation = np.abs(hist_after - target) / target
    spreads_kept = (np.ptp(hist_after, axis=1) <= np.ptp(hist_before, axis=1) + 1).all()
    return bool((deviation <= 0.1).all()), bool(spreads_kept), float(deviation.max())


@pytest.fixture(scope="module")
def plan16():
    return FrequencyPlan(p=2, b=4)


@pytest.fixture(scope="module")
def family16(plan16):
    """(base, balanced, ledger) for every q in 2..16 at M=16, l=14, plus build time."""
    start = time.perf_counter()
    families = {}
    for q in range(2, 17):
        base = build_base_set(plan16, default_polynomial(2, 14), q)
        balanced, ledger = cfb_balance(base)
        families[q] = (base, balanced, ledger)
    return families, time.perf_counter() - start


def test_criterion_1_scale_reproduction():
    taps = default_polynomial(2, 14)
    start = time.perf_counter()
    hops = build_base_set(FrequencyPlan(p=2, b=4), taps, 1, 2)
    elapsed = time.perf_counter() - start
    n = m_sequence(2, taps).size
    ok = n == 16383 and hops.length == 4095 and hops.plan.M == 16 and elapsed < 1.0
    report(1, "scale reproduction p=2 l=14 b=4",
           ok, f"n={n}, n'={hops.length}, M={hops.plan.M}, {elapsed:.3f}s")


def test_criterion_2_orthogonality_all_family_sizes(family16):
    families, build_time = family16
    start = time.perf_counter()
    ok = True
    for q, (_, balanced, _) in families.items():
        matrix = balanced.as_matrix()
        if not columns_distinct(balanced):
            ok = False
        for u in range(q):
            for v in range(u + 1, q):
                if np.count_nonzero(matrix[u] == matrix[v]):
                    ok = False
    elapsed = build_time + (time.perf_counter() - start)
    ok = ok and elapsed < 10.0
    report(2, "zero-delay orthogonality, q=2..16", ok,
           f"all columns distinct, all G_uv(0)=0, {elapsed:.2f}s")


def test_criterion_3_balance(family16):
    families, _ = family16
    ok = True
    worst = (0.0, 0)
    for q, (base, balanced, _) in families.items():
        within, spreads_kept, deviation = histogram_check(base, balanced)
        ok = ok and within and spreads_kept
        worst = max(worst, (deviation, q))
    report(3, "balanced histograms within 10% of n'/M", ok,
           f"worst deviation {worst[0] * 100:.1f}% at q={worst[1]}, spreads never degrade")


def occupancy_slope(M):
    """h1 of the balls-in-bins curve, normalized and fitted the way the sweep is.

    With a column's q base entries independent and uniform on M spots,
    E[D_q] = M(1 - (1 - 1/M)^q), so a member costs 1 - (M/q)(1 - (1 - 1/M)^q)
    operations per column on average, for q = 1..M.
    """
    q = np.arange(1, M + 1)
    curve = 1 - (M / q) * (1 - (1 - 1 / M) ** q)
    return fit_linear(q, curve / curve.max())[0]


TABLE_SLOPES = {
    (14, 16): 0.06955, (15, 16): 0.06897, (18, 16): 0.06949,
    (14, 32): 0.03278, (15, 32): 0.03253, (18, 32): 0.03278,
    (14, 64): 0.01586, (15, 64): 0.0161, (18, 64): 0.01593,
}


def test_criterion_4_fairness_slopes():
    ok = True
    intercepts = []
    for (l, M), target in TABLE_SLOPES.items():
        b = M.bit_length() - 1
        start = time.perf_counter()
        curve = mean_operation_curve(FrequencyPlan(p=2, b=b), default_polynomial(2, l))
        elapsed = time.perf_counter() - start
        ratio = curve.slope / target
        product = curve.slope * M
        model = occupancy_slope(M)
        within = (abs(curve.slope - target) <= 0.15 * target and 0.85 <= product <= 1.25
                  and abs(curve.slope / model - 1) <= 0.01)
        ok = ok and within
        intercepts.append(curve.intercept)
        print(f"    l={l} M={M}: h1={curve.slope:.5f} target={target} "
              f"ratio={ratio:.3f} h1*M={product:.3f} h2={curve.intercept:+.4f} "
              f"model={model:.5f} [{elapsed:.1f}s]{'' if within else '  <-- out of tolerance'}")
    # the intercept is not pinned by the acceptance gate (unpublished
    # tie-breaks); it is still expected to be small and to cluster
    spread = max(intercepts) - min(intercepts)
    ok = ok and all(abs(h2) < 0.1 for h2 in intercepts) and spread < 0.1
    report(4, "mean-operation slopes vs published table", ok,
           f"9 configurations, slopes within 15%, h1*M in [0.85,1.25], "
           f"within 1% of the occupancy model, intercepts cluster within {spread:.3f}")


def test_criterion_5_peng_fan_bound(family16):
    families, _ = family16
    bound = analyze_set(families[4][1]).peng_fan
    expected = Fraction(16364 * 4095, 16379 * 16)
    measured = analyze_set(families[4][1]).max_hamming
    ok = bound == expected and Fraction(measured) >= bound
    report(5, "Peng-Fan bound, exact rational", ok,
           f"bound={bound.numerator}/{bound.denominator}~{float(bound):.4f}, "
           f"measured G_m={measured}")


def test_criterion_6_autocorrelation_preservation(family16):
    families, _ = family16
    base, balanced, _ = families[5]
    limit = 0.1 * (4095 / 16)
    ok = True
    worst = 0.0
    for a in range(5):
        auto_before = correlation_profile(base, a, a)
        auto_after = correlation_profile(balanced, a, a)
        if auto_before[0] != 4095 or auto_after[0] != 4095:
            ok = False
        mean_diff = float(np.abs(auto_before - auto_after).mean())
        worst = max(worst, mean_diff)
        if mean_diff > limit:
            ok = False
    report(6, "auto peak n' preserved, sidelobes similar", ok,
           f"peak 4095 before/after, worst mean |diff| {worst:.2f} <= {limit:.2f}")


def test_criterion_7_family_bound_enforced(tmp_path, capsys):
    raised = False
    try:
        validate_family(17, FrequencyPlan(p=2, b=4))
    except FamilySizeError as err:
        raised = err.q == 17 and err.M == 16
    exit_code = cli_main(["generate", "--l", "14", "--M", "16", "--q", "17",
                          "--out", str(tmp_path)])
    capsys.readouterr()
    ok = raised and exit_code == 2
    report(7, "q = M+1 rejected", ok,
           f"FamilySizeError raised, CLI exit {exit_code}")


def test_criterion_8_simulator_matches_analysis(family16):
    families, _ = family16
    base, balanced, _ = families[5]
    ok = True
    for sset in (base, balanced):
        rep = simulate(SimScenario(sset=sset, hops=sset.length))
        for u in range(5):
            for v in range(u + 1, 5):
                if rep.per_pair[u, v] != hamming_correlation(sset, u, v, 0):
                    ok = False
    balanced_total = simulate(SimScenario(sset=balanced, hops=4095)).total_collisions
    ok = ok and balanced_total == 0
    report(8, "one-period simulation equals zero-delay correlation", ok,
           f"both sets consistent, balanced total collisions = {balanced_total}")


def test_criterion_9_bruteforce_oracle_equivalence():
    ok = True
    for l, b, q in ((4, 2, 3), (5, 2, 4), (6, 2, 4), (6, 3, 6)):
        plan = FrequencyPlan(p=2, b=b)
        base = build_base_set(plan, default_polynomial(2, l), q)
        balanced, _ = cfb_balance(base)
        for sset in (base, balanced):
            mat = sset.as_matrix()
            hists = [np.bincount(row, minlength=plan.M) for row in mat]
            for u in range(q):
                for v in range(q):
                    rows_u, rows_v = mat[u].tolist(), mat[v].tolist()
                    profile = correlation_profile(sset, u, v)
                    naive = [naive_hamming(rows_u, rows_v, d) for d in range(sset.length)]
                    if profile.tolist() != naive:
                        ok = False
                    if int(profile.sum()) != int(hists[u] @ hists[v]):
                        ok = False
    report(9, "profiles match brute force, double-counting identity", ok,
           "l in {4,5,6}, base and balanced sets")


# the first primitive taps in lexicographic (c_0, ..., c_{l-1}) order of monic
# polynomials: GF(3) at l=9, GF(5) at l=6
FIRST_PRIMITIVE = {3: (1, 0, 0, 0, 0, 0, 2, 1, 0, 1), 5: (2, 0, 0, 0, 0, 1, 1)}


def test_criterion_10_fairness_law_beyond_gf2():
    ok = all(validate_primitive_polynomial(p, taps) for p, taps in FIRST_PRIMITIVE.items())
    products = []
    for p, b in ((3, 2), (3, 3), (5, 2)):
        plan = FrequencyPlan(p=p, b=b)
        start = time.perf_counter()
        curve = mean_operation_curve(plan, FIRST_PRIMITIVE[p])
        elapsed = time.perf_counter() - start
        product = curve.slope * plan.M
        model = occupancy_slope(plan.M)
        within = 0.85 <= product <= 1.25 and abs(curve.slope / model - 1) <= 0.01
        ok = ok and within
        products.append(f"{product:.3f}")
        print(f"    p={p} l={len(FIRST_PRIMITIVE[p]) - 1} M={plan.M}: h1={curve.slope:.5f} "
              f"h1*M={product:.3f} h2={curve.intercept:+.4f} model={model:.5f} "
              f"[{elapsed:.1f}s]{'' if within else '  <-- out of tolerance'}")
    # criteria 2 and 3 at p=3, l=9, M=q=27, default tau
    base = build_base_set(FrequencyPlan(p=3, b=3), FIRST_PRIMITIVE[3], 27)
    balanced, _ = cfb_balance(base)
    within, spreads_kept, deviation = histogram_check(base, balanced)
    ok = ok and columns_distinct(balanced) and within and spreads_kept
    report(10, "1/M fairness law over GF(3) and GF(5)", ok,
           f"h1*M {', '.join(products)} in [0.85,1.25], within 1% of the occupancy model; "
           f"at p=3 M=q=27 columns distinct, "
           f"worst histogram deviation {deviation * 100:.1f}%, spreads never degrade")
