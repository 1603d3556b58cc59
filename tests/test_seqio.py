import json
import os
import re
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import base_families
from hopset import seqio
from hopset.balancer import cfb_balance, mean_operation_curve
from hopset.correlation import analyze_set, correlation_profile
from hopset.errors import ScenarioError, SequenceFormatError
from hopset.mapping import build_base_set
from hopset.sim import simulate


@pytest.fixture(scope="module")
def family(ms6, plan_b2):
    base = build_base_set(ms6, plan_b2, 4, 7)
    balanced, ledger = cfb_balance(base)
    return base, balanced, ledger


def test_round_trip_both_kinds(tmp_path, family):
    base, balanced, _ = family
    for name, sset in (("base.txt", base), ("balanced.txt", balanced)):
        path = tmp_path / name
        seqio.write_sequence_set(path, sset)
        loaded = seqio.read_sequence_set(path)
        assert loaded.kind == sset.kind
        assert loaded.plan == sset.plan
        assert np.array_equal(loaded.as_matrix(), sset.as_matrix())


@pytest.fixture(scope="module")
def round_trip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip")


@settings(derandomize=True, deadline=None)
@given(base_families())
def test_round_trip_over_gf_p(round_trip_dir, family):
    # p in {2, 3, 5} and M up to 625: spots of one to three digits
    base = build_base_set(*family)
    balanced, _ = cfb_balance(base)
    for sset in (base, balanced):
        path = round_trip_dir / f"{sset.kind}.txt"
        seqio.write_sequence_set(path, sset)
        loaded = seqio.read_sequence_set(path)
        assert (loaded.kind, loaded.plan) == (sset.kind, sset.plan)
        assert np.array_equal(loaded.as_matrix(), sset.as_matrix())


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_outputs_get_the_mode_open_gives(tmp_path, family, umask):
    base, _, _ = family
    previous = os.umask(umask)
    try:
        seqio.write_sequence_set(tmp_path / "base.txt", base)
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(previous)
    written, plain = (stat.S_IMODE((tmp_path / name).stat().st_mode)
                      for name in ("base.txt", "plain.txt"))
    assert written == plain == 0o666 & ~umask


def test_header_line(tmp_path, family):
    base, _, _ = family
    path = tmp_path / "set.txt"
    seqio.write_sequence_set(path, base)
    first = path.read_text().splitlines()[0]
    assert first == "# M=4 n=31 q=4 kind=base"


def test_no_temp_files_left_behind(tmp_path, family):
    base, _, _ = family
    seqio.write_sequence_set(tmp_path / "set.txt", base)
    assert [p.name for p in tmp_path.iterdir()] == ["set.txt"]


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(SequenceFormatError):
        seqio.read_sequence_set(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    # no '#', then header fields outside the integer grammar: an Arabic-Indic 4, a sign
    for header in ("M=4 n=2 q=1 kind=base", "# M=\u0664 n=2 q=1 kind=base",
                   "# M=4 n=+2 q=1 kind=base"):
        path.write_text(header + "\n0,1\n")
        with pytest.raises(SequenceFormatError) as err:
            seqio.read_sequence_set(path)
        assert err.value.line == 1


def test_non_prime_power_spot_count(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# M=12 n=2 q=1 kind=base\n0,1\n")
    with pytest.raises(SequenceFormatError):
        seqio.read_sequence_set(path)


def test_row_count_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# M=4 n=2 q=2 kind=base\n0,1\n")
    with pytest.raises(SequenceFormatError):
        seqio.read_sequence_set(path)


def test_entry_count_mismatch_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# M=4 n=3 q=1 kind=base\n0,1\n")
    with pytest.raises(SequenceFormatError) as err:
        seqio.read_sequence_set(path)
    assert err.value.line == 2


def test_short_rows_rejected_before_allocation(tmp_path):
    # the header asks for a 128 MB matrix; the rows' field counts refuse it first
    path = tmp_path / "bad.txt"
    path.write_text("# M=4 n=4000000 q=4 kind=base\n" + "0,1\n" * 4)
    tracemalloc.start()
    try:
        with pytest.raises(SequenceFormatError) as err:
            seqio.read_sequence_set(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.line == 2
    assert peak < 2**20


def test_bad_token_names_line_and_column(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# M=4 n=3 q=1 kind=base\n0,x,1\n")
    with pytest.raises(SequenceFormatError) as err:
        seqio.read_sequence_set(path)
    assert err.value.line == 2
    assert err.value.column == 3


def test_out_of_range_spot_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# M=4 n=2 q=1 kind=base\n0,4\n")
    with pytest.raises(SequenceFormatError) as err:
        seqio.read_sequence_set(path)
    assert err.value.column == 3


@pytest.mark.parametrize("value", [2**64 + 1, 2**63])
def test_too_large_spot_saturates_and_never_wraps(tmp_path, value):
    # 2^64 + 1 would wrap to 1; np.fromstring saturates at INT64_MAX, which fails < M
    path = tmp_path / "bad.txt"
    path.write_text(f"# M=4 n=2 q=1 kind=base\n0,{value}\n")
    with pytest.raises(SequenceFormatError,
                       match=re.escape(f"spot index {value} outside [0, 4)")) as err:
        seqio.read_sequence_set(path)
    assert (err.value.line, err.value.column) == (2, 3)


@pytest.mark.parametrize("row, message, column", [
    ("1,x", "not an integer: 'x'", 3),
    ("1,4", "spot index 4 outside [0, 4)", 3),
    ("1,2,3", "expected 2 entries, found 3", None),
], ids=["token", "spot", "entries"])
def test_errors_after_a_blank_line_name_the_file_line(tmp_path, row, message, column):
    path = tmp_path / "bad.txt"
    path.write_text(f"# M=4 n=2 q=2 kind=base\n\n0,1\n{row}\n")
    with pytest.raises(SequenceFormatError, match=re.escape(message)) as err:
        seqio.read_sequence_set(path)
    assert (err.value.line, err.value.column) == (4, column)


def test_ledger_csv_layout(tmp_path, family):
    _, _, ledger = family
    path = tmp_path / "ledger.csv"
    seqio.write_ledger_csv(path, ledger)
    lines = path.read_text().splitlines()
    assert lines[0] == "seq_index,op_count"
    assert len(lines) == 5
    assert lines[1] == f"0,{ledger.op_count[0]}"


def test_usage_csv_matches_matrix(tmp_path, family):
    _, _, ledger = family
    path = tmp_path / "usage.csv"
    seqio.write_histograms_csv(path, ledger.usage)
    rows = [list(map(int, line.split(","))) for line in path.read_text().splitlines()]
    assert np.array_equal(np.array(rows), ledger.usage)


def test_fairness_csv_rows_and_fit(tmp_path, ms6, plan_b2):
    report = mean_operation_curve(ms6, plan_b2, tau=7)
    path = tmp_path / "fairness.csv"
    seqio.write_fairness_csv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "q,mean_ops,normalized"
    assert len(lines) == 1 + 4 + 2
    assert lines[-2] == f"# h1 = {report.slope}"
    assert lines[-1] == f"# h2 = {report.intercept}"
    q, mean, norm = lines[1].split(",")
    assert (int(q), float(mean), float(norm)) == (1, 0.0, 0.0)


def test_profile_csv(tmp_path, family):
    base, _, _ = family
    profile = correlation_profile(base, 0, 1)
    path = tmp_path / "profile.csv"
    seqio.write_profile_csv(path, profile)
    lines = path.read_text().splitlines()
    assert lines[0] == "delay,count"
    assert lines[1:] == [f"{d},{c}" for d, c in enumerate(profile.tolist())]
    assert len(lines) == 1 + base.length


def test_analysis_report_payload_keys(family):
    _, balanced, _ = family
    report = analyze_set(balanced)
    payload = seqio.analysis_report_payload(report)
    assert set(payload) == {
        "max_hamming", "peng_fan_bound", "orthogonal_at_zero", "no_hit_zone", "histograms",
    }
    bound = payload["peng_fan_bound"]
    assert bound["numerator"] / bound["denominator"] == pytest.approx(float(report.peng_fan))
    assert bound["decimal"] == round(float(report.peng_fan), 4)
    assert payload["orthogonal_at_zero"] is True


def test_scenario_round_trip(tmp_path, family):
    base, _, _ = family
    seqio.write_sequence_set(tmp_path / "set.txt", base)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"hops": 31, "sequences": "set.txt"}))
    scn = seqio.load_scenario(scenario_path)
    assert scn.hops == 31
    report = simulate(scn)
    assert report.total_collisions > 0


def test_scenario_with_offsets_and_missing_keys(tmp_path, family):
    base, _, _ = family
    seqio.write_sequence_set(tmp_path / "set.txt", base)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"hops": 5, "offsets": [0.1, 0.2, 0.3, 0.4], "sequences": "set.txt"}))
    with pytest.raises(ScenarioError, match=r"unknown scenario keys: \['offsets'\]"):
        seqio.load_scenario(path)
    path.write_text(json.dumps({"hops": 5}))
    with pytest.raises(SequenceFormatError):
        seqio.load_scenario(path)
