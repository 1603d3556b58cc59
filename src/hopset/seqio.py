"""File formats: sequence sets, ledgers, fairness curves, reports, scenarios.

Sequence sets travel as plain text, a single header line and then one
sequence per line of comma-separated spot indices:

    # M=<spots> n=<length> q=<members> kind=<base|balanced>

Every integer in outside text (header fields, sequence entries, CLI flags) is
a run of ASCII digits [0-9], with no sign, space, '_' or other digit: one
grammar, `integers`, the one the writer writes. The reader checks a row
against the grammar once and parses it with one `np.fromstring` call; only a
row that fails the range check is scanned entry by entry, to name its column.

All writes go through a temp file and rename, so partially written outputs
never appear under the target name. CSV output uses '.' decimals and '\n'
newlines regardless of locale.
"""

import contextlib
import functools
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from .correlation import AnalysisReport
from .errors import HopsetError, ScenarioError, SequenceFormatError
from .mapping import SIZE_LIMIT, SequenceSet, plan_from_spot_count
from .sim import CollisionReport, SimScenario, check_horizon

_DIGITS = "[0-9]+"
_INTEGERS_RE = re.compile(f"{_DIGITS}(?:,{_DIGITS})*")
_HEADER_RE = re.compile(rf"#\s*M=({_DIGITS})\s+n=({_DIGITS})\s+q=({_DIGITS})"
                        r"\s+kind=(base|balanced)\s*")


def integers(text, out=None):
    """Comma-separated integers in the one grammar, else ValueError; into int64 `out` if given."""
    if not _INTEGERS_RE.fullmatch(text):
        raise ValueError(f"not comma-separated ASCII integers: {text!r}")
    if out is None:
        return list(map(int, text.split(",")))
    # one C strtoll pass; it saturates at INT64_MAX and never wraps, so a
    # too-large entry still fails the caller's range check
    out[:] = np.fromstring(text, dtype=np.int64, sep=",")
    return out


def _atomic_write_text(path, text):
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            os.fchmod(fd, 0o666 & ~umask)  # the mode open() gives, not mkstemp's private 0600
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_sequence_set(path, sset: SequenceSet):
    lines = [f"# M={sset.plan.M} n={sset.length} q={sset.q} kind={sset.kind}"]
    template = ",".join(["%d"] * sset.length)
    lines += [template % tuple(row.tolist()) for row in sset.as_matrix()]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_header(line):
    """A sequence file's first line as (plan, n, q, kind); SequenceFormatError on line 1."""
    match = _HEADER_RE.fullmatch(line)
    if not match:
        raise SequenceFormatError(
            "expected header '# M=<M> n=<n> q=<q> kind=<base|balanced>'", line=1
        )
    try:
        M, n, q = integers(",".join(match.group(1, 2, 3)))
    except ValueError:  # a field past int()'s digit limit
        raise SequenceFormatError(f"a header field exceeds the limit {SIZE_LIMIT}", line=1) from None
    try:
        plan = plan_from_spot_count(M)
    except HopsetError as exc:
        raise SequenceFormatError(str(exc), line=1) from None
    if q * n > SIZE_LIMIT:
        raise SequenceFormatError(f"set size q*n={q * n} exceeds the limit {SIZE_LIMIT}", line=1)
    return plan, n, q, match[4]


def _echo(entry, unit, show=str):
    """show(entry) up to 40 characters; past that show(first 20), '…' and the length."""
    return show(entry) if len(entry) <= 40 else f"{show(entry[:20])}… ({len(entry)} {unit})"


def read_sequence_set(path) -> SequenceSet:
    """Parse a sequence-set file; raises SequenceFormatError naming line/column."""
    lines = Path(path).read_text(encoding="utf-8").splitlines() or [""]
    plan, n, q, kind = _parse_header(lines[0])
    M = plan.M

    # blank lines are skipped; each row keeps its file line number for errors
    rows = [(i, line) for i, line in enumerate(lines[1:], start=2) if line.strip()]
    if len(rows) != q:
        raise SequenceFormatError(
            f"header promises q={q} sequences but file holds {len(rows)}",
            line=len(lines),
        )
    for line_no, row in rows:  # before any array is sized from the header
        if (found := row.count(",") + 1) != n:
            raise SequenceFormatError(f"expected {n} entries, found {found}", line=line_no)
    matrix = np.empty((q, n), dtype=np.int64)
    for r, (line_no, row) in enumerate(rows):
        with contextlib.suppress(ValueError, OverflowError):
            if integers(row, out=matrix[r]).max() < M:
                continue
        column = 1  # a failing row alone is scanned, to name its first bad entry
        for token in row.split(","):
            value = token.lstrip("0") or "0"  # compared as text: int() refuses 4300+ digits
            if not _INTEGERS_RE.fullmatch(token):
                message = f"not an integer: {_echo(token, 'characters', repr)}"
            elif len(value) > len(str(M)) or int(value) >= M:
                message = f"spot index {_echo(value, 'digits')} outside [0, {M})"
            else:
                column += len(token) + 1
                continue
            raise SequenceFormatError(message, line=line_no, column=column)
    try:
        return SequenceSet(matrix, plan, kind)
    except HopsetError as exc:
        raise SequenceFormatError(str(exc)) from None


def write_ledger_csv(path, ledger):
    lines = ["seq_index,op_count"]
    lines += [f"{a},{int(c)}" for a, c in enumerate(ledger.op_count)]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_fairness_csv(path, report):
    lines = ["q,mean_ops,normalized"]
    for q, mean, norm in zip(report.q_values, report.mean_ops, report.normalized):
        lines.append(f"{int(q)},{float(mean)},{float(norm)}")
    lines.append(f"# h1 = {report.slope}")
    lines.append(f"# h2 = {report.intercept}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


@functools.lru_cache(maxsize=1)
def _profile_template(n):
    return "delay,count\n" + "".join(f"{d},%d\n" for d in range(n))


def write_profile_csv(path, values):
    """One pair's profile, a `delay,count` line per delay, from one `%d` template per length."""
    _atomic_write_text(path, _profile_template(len(values)) % tuple(values.tolist()))


def write_histograms_csv(path, histograms):
    """Any integer matrix, one comma-separated row per line: histograms, ledger usage."""
    lines = [",".join(str(int(x)) for x in row) for row in np.asarray(histograms)]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def analysis_report_payload(report: AnalysisReport) -> dict:
    bound = report.peng_fan
    return {
        "max_hamming": report.max_hamming,
        "peng_fan_bound": None if bound is None else {
            "numerator": bound.numerator,
            "denominator": bound.denominator,
            "decimal": round(float(bound), 4),
        },
        "orthogonal_at_zero": report.orthogonal_at_zero,
        "no_hit_zone": report.no_hit_zone,
        "histograms": report.histograms.tolist(),
    }


def write_analysis_report(path, report: AnalysisReport):
    _atomic_write_text(path, json.dumps(analysis_report_payload(report), indent=2) + "\n")


def collision_report_payload(report: CollisionReport) -> dict:
    return {
        "total_collisions": report.total_collisions,
        "per_pair": report.per_pair.tolist(),
        "collision_rate": report.collision_rate,
    }


def load_scenario(path) -> SimScenario:
    """Read a scenario JSON: integer hops and the path to a sequence file.

    Any other key is an error. A relative sequence path is resolved against
    the scenario file's directory. The horizon is checked against the
    sequence file's header before any row is read.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ScenarioError("scenario JSON nests deeper than the parser's recursion limit") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # int() refuses a literal past sys.get_int_max_str_digits()
        raise ScenarioError("scenario JSON holds an integer too long to parse") from None
    if not isinstance(payload, dict):
        raise ScenarioError("scenario JSON must hold an object")
    if unknown := set(payload) - {"hops", "sequences"}:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    hops, sequences = payload.get("hops"), payload.get("sequences")
    if type(hops) is not int or type(sequences) is not str:
        raise ScenarioError(f"need integer 'hops', string 'sequences': {hops!r}, {sequences!r}")
    sequences = path.parent / sequences
    with open(sequences, encoding="utf-8") as fh:
        first = fh.readline().splitlines() or [""]  # the line read_sequence_set sees first
    check_horizon(hops, _parse_header(first[0])[2])
    return SimScenario(sset=read_sequence_set(sequences), hops=hops)
