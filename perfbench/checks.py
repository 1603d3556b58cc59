"""Output checks, computed with numpy and plain Python only.

Nothing here imports hopset: every expected value is recomputed from the
documented file formats and definitions, so a fault in the layer under test
cannot hide in its own check. Each check returns a list of
(call index, problem) pairs; an empty list means the round's outputs hold.
"""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

SPOT_CHECKS = 256
_HEADER = re.compile(r"^# M=(\d+) n=(\d+) q=(\d+) kind=(base|balanced)$")


class CheckError(Exception):
    """An output file is missing or malformed."""


def read_ints(text, count):
    values = np.fromstring(text, sep=",", dtype=np.int64)
    if values.size != count:
        raise CheckError(f"expected {count} comma-separated integers, got {values.size}")
    return values


def read_set(path):
    """Parse a sequence-set file into (M, kind, q x L matrix)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    match = _HEADER.match(lines[0]) if lines else None
    if not match:
        raise CheckError(f"{Path(path).name}: bad header")
    M, L, q, kind = int(match[1]), int(match[2]), int(match[3]), match[4]
    rows = [line for line in lines[1:] if line.strip()]
    if len(rows) != q:
        raise CheckError(f"{Path(path).name}: {len(rows)} rows, header says q={q}")
    return M, kind, np.array([read_ints(row, L) for row in rows])


def read_csv(path, header):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if header is not None:
        if not lines or lines[0] != header:
            raise CheckError(f"{Path(path).name}: header is not {header!r}")
        lines = lines[1:]
    return lines


def m_sequence(taps):
    """One period of the GF(2) LFSR sequence from seed (1, 0, ..., 0).

    s(t) = c_0 s(t-l) + ... + c_{l-1} s(t-1) (mod 2), seed symbols first.
    """
    l = len(taps) - 1
    n = 2**l - 1
    s = bytearray(n)
    s[0] = 1
    lags = [l - i for i in range(l) if taps[i]]
    for t in range(l, n):
        bit = 0
        for lag in lags:
            bit ^= s[t - lag]
        s[t] = bit
    return np.frombuffer(bytes(s), dtype=np.uint8).astype(np.int64)


def column_counts(matrix, M):
    """counts[j, f] = members on spot f in column j."""
    q, L = matrix.shape
    keys = (np.arange(L) * M)[None, :] + matrix
    return np.bincount(keys.ravel(), minlength=L * M).reshape(L, M)


def check_generate(plan, out, inputs, rng):
    problems = []
    M_base, kind_base, base = read_set(out / "base.txt")
    M_bal, kind_bal, bal = read_set(out / "balanced.txt")
    q, L, M = plan.q, plan.L, plan.M
    if (M_base, kind_base, base.shape) != (M, "base", (q, L)):
        problems.append("base.txt has the wrong shape, M or kind")
    if (M_bal, kind_bal, bal.shape) != (M, "balanced", (q, L)):
        problems.append("balanced.txt has the wrong shape, M or kind")
    if problems:
        return [(0, p) for p in problems]

    s = m_sequence(plan.taps)
    members = rng.integers(0, q, SPOT_CHECKS)
    hops = rng.integers(0, L, SPOT_CHECKS)
    weights = 2 ** np.arange(plan.b)
    for a, j in zip(members, hops):
        pos = (a * plan.tau + j * plan.b + np.arange(plan.b)) % plan.n
        if base[a, j] != int(s[pos] @ weights):
            problems.append(f"base[{a}, {j}] is not the rotated word map of the m-sequence")
            break

    ordered = np.sort(bal, axis=0)
    if (ordered[1:] == ordered[:-1]).any():
        problems.append("a balanced column repeats a spot")
    counts = column_counts(base, M)
    cols = np.arange(L)[None, :]
    alone = counts[cols, base] == 1
    if not np.array_equal(bal[alone], base[alone]):
        problems.append("an entry with no collision was rewritten")
    changed = bal != base
    if not np.array_equal(changed.sum(axis=0), q - (counts > 0).sum(axis=1)):
        problems.append("a column rewrote more or fewer entries than its collisions need")
    kept = np.bincount((cols * M + base)[~alone & ~changed], minlength=L * M).reshape(L, M)
    if not np.array_equal(kept[counts > 1], np.ones(int((counts > 1).sum()), dtype=np.int64)):
        problems.append("a collision group does not keep exactly one member on its spot")

    ledger = read_csv(out / "ledger.csv", "seq_index,op_count")
    ops = np.array([[int(x) for x in row.split(",")] for row in ledger])
    if ops.shape != (q, 2) or not np.array_equal(ops[:, 0], np.arange(q)):
        problems.append("ledger.csv does not list members 0..q-1")
    elif not np.array_equal(ops[:, 1], changed.sum(axis=1)):
        problems.append("ledger.csv op counts differ from the entries that changed")
    usage = np.array([read_ints(row, M) for row in read_csv(out / "usage.csv", None)])
    expected = np.array([np.bincount(row, minlength=M) for row in bal])
    if not np.array_equal(usage, expected):
        problems.append("usage.csv differs from the per-member bincount")
    return [(0, p) for p in problems]


def read_profile(path, L):
    lines = read_csv(path, "delay,count")
    table = read_ints(",".join(lines), 2 * L).reshape(L, 2)
    if not np.array_equal(table[:, 0], np.arange(L)):
        raise CheckError(f"{path.name}: delays are not 0..L-1")
    return table[:, 1]


def check_analyze(plan, out, inputs, rng):
    problems = []
    for stem in ("balanced", "base"):
        M, kind, matrix = read_set(inputs / f"{stem}.txt")
        q, L = matrix.shape
        report = json.loads((out / f"{stem}.report.json").read_text(encoding="utf-8"))
        hist = np.array([np.bincount(row, minlength=M) for row in matrix])
        csv_hist = np.array([read_ints(r, M) for r in read_csv(out / f"{stem}.histograms.csv", None)])
        if not (np.array_equal(report["histograms"], hist) and np.array_equal(csv_hist, hist)):
            problems.append(f"{stem}: histograms differ from bincount")

        pairs = [(u, v) for u in range(q) for v in range(u, q)]
        files = sorted(out.glob(f"{stem}.profile.*.csv"))
        if len(files) != len(pairs):
            problems.append(f"{stem}: {len(files)} profile files for {len(pairs)} pairs")
            continue
        profiles = {(u, v): read_profile(out / f"{stem}.profile.{u}-{v}.csv", L)
                    for u, v in pairs}
        for k in rng.integers(0, len(pairs), SPOT_CHECKS):
            u, v = pairs[k]
            d = int(rng.integers(0, L))
            if profiles[u, v][d] != np.count_nonzero(matrix[u] == np.roll(matrix[v], -d)):
                problems.append(f"{stem}: profile {u}-{v} at delay {d} differs from a brute-force count")
                break

        peak, zone = 0, L - 1
        for (u, v), values in profiles.items():
            peak = max(peak, int(values[1:].max() if u == v else values.max()))
            hits = np.nonzero(values)[0]
            if u != v and hits.size:
                # a hit at delay d is also one at -(L-d); a hit at 0 means no zone
                zone = min(zone, int(np.where(hits == 0, -1, np.minimum(hits, L - hits) - 1).min()))
        bound = Fraction((L * q - M) * L, (L * q - 1) * M)
        stated = report["peng_fan_bound"]
        if Fraction(stated["numerator"], stated["denominator"]) != bound:
            problems.append(f"{stem}: Peng-Fan bound differs from (Lq-M)L/((Lq-1)M)")
        if report["max_hamming"] != peak or peak < math.ceil(bound):
            problems.append(f"{stem}: max_hamming is not the profile peak or is below Peng-Fan")
        if report["no_hit_zone"] != zone:
            problems.append(f"{stem}: no_hit_zone differs from the profiles")
        ordered = np.sort(matrix, axis=0)
        orthogonal = not (ordered[1:] == ordered[:-1]).any()
        if report["orthogonal_at_zero"] != orthogonal or (stem == "balanced" and not orthogonal):
            problems.append(f"{stem}: orthogonal_at_zero is wrong")
    return [(0, p) for p in problems]


def check_simulate(plan, out, inputs, rng):
    problems = []
    for index, kind in enumerate(plan.scenarios):
        hops = plan.scenarios[kind]["hops"]
        _, _, matrix = read_set(inputs / f"{kind}.txt")
        q, L = matrix.shape
        report = json.loads((out / f"stdout.{index}.txt").read_text(encoding="utf-8"))
        periods, rest = divmod(hops, L)
        expected = np.zeros((q, q), dtype=np.int64)
        for u in range(q):
            same = matrix[u] == matrix[u + 1:]
            expected[u, u + 1:] = periods * same.sum(axis=1) + same[:, :rest].sum(axis=1)
        expected += expected.T
        total = int(np.triu(expected, 1).sum())
        pairs = q * (q - 1) // 2
        if not np.array_equal(report["per_pair"], expected):
            problems.append((index, f"{kind}: per_pair differs from an independent count"))
        if report["total_collisions"] != total or (kind == "balanced" and total != 0):
            problems.append((index, f"{kind}: total_collisions is {report['total_collisions']}"))
        if not math.isclose(report["collision_rate"], total / (hops * pairs), rel_tol=1e-12):
            problems.append((index, f"{kind}: collision_rate is not total/(hops*pairs)"))
    return problems


CHECKS = {"generate": check_generate, "analyze": check_analyze, "simulate": check_simulate}


def check_round(plan, out, inputs, rng):
    """Problems of one round's outputs; a missing or malformed file fails every call."""
    try:
        return CHECKS[plan.command](plan, out, inputs, rng)
    except (CheckError, OSError, ValueError, KeyError, IndexError, AttributeError) as exc:
        return [(i, f"{type(exc).__name__}: {exc}") for i in range(len(plan.calls))]
