import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopset import seqio
from hopset.balancer import mean_operation_curve
from hopset.cli import _resolve_config, build_parser, main
from hopset.errors import ConfigError
from hopset.mapping import SIZE_LIMIT

SMALL = ["--l", "6", "--M", "4", "--q", "3"]
PRIME_30_DIGITS = str(10**29 + 319)
# Integers in outside text are runs of ASCII digits joined by commas. These
# spellings break that grammar, except the last, which keeps it but exceeds int64.
SPELLINGS = [" 1", "+1", "1_0", "\u0661", "-0", "", "9" * 25]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_writes_expected_files(tmp_path, capsys):
    code, out, err = run(capsys, "generate", *SMALL, "--out", str(tmp_path))
    assert code == 0, err
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["balanced.txt", "base.txt", "ledger.csv", "usage.csv"]
    base = seqio.read_sequence_set(tmp_path / "base.txt")
    balanced = seqio.read_sequence_set(tmp_path / "balanced.txt")
    assert base.q == balanced.q == 3
    assert base.length == balanced.length == 31


def test_generate_repeated_runs_byte_identical(tmp_path, capsys):
    run(capsys, "generate", *SMALL, "--out", str(tmp_path / "one"))
    run(capsys, "generate", *SMALL, "--out", str(tmp_path / "two"))
    for name in ("base.txt", "balanced.txt", "ledger.csv", "usage.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_generate_rejects_oversized_family(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--l", "14", "--M", "16", "--q", "17",
                       "--out", str(tmp_path))
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert "q=17" in payload["message"] and "M=16" in payload["message"]


def test_generate_rejects_nonprime_tau(tmp_path, capsys):
    code, _, err = run(capsys, "generate", *SMALL, "--tau", "9", "--out", str(tmp_path))
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"


def test_m_not_a_prime_power_rejected(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--l", "6", "--M", "6", "--q", "3",
                       "--out", str(tmp_path))
    assert code == 2 and "not a prime power" in json.loads(err)["message"]


def resolve(*argv):
    return _resolve_config(build_parser().parse_args(["generate", *argv]))


@pytest.mark.parametrize("argv", [
    ["--l", "64"],
    ["--l", "25"],
    ["--M", str(3**16)],
    ["--M", "3", "--l", "16"],
    ["--M", PRIME_30_DIGITS, "--l", "1", "--q", "1"],
    ["--M", str(2**40)],
    ["--l", "22", "--M", "64", "--q", "64"],
    ["--l", "18", "--M", "64", "--q", "64", "--tau", PRIME_30_DIGITS],
])
def test_oversized_numbers_rejected_before_work(argv):
    with pytest.raises(ConfigError):
        resolve(*argv)


def test_largest_acceptance_config_within_limits():
    cfg = resolve("--l", "18", "--M", "64", "--q", "64")
    assert (cfg.n, cfg.plan.M, cfg.q) == (2**18 - 1, 64, 64)
    assert resolve("--l", "24", "--M", "2", "--q", "1").n == SIZE_LIMIT - 1


def test_explicit_polynomial_accepted(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--l", "6", "--M", "4", "--q", "2",
                       "--poly", "1,1,0,0,0,0,1", "--out", str(tmp_path))
    assert code == 0, err
    # M=9 gives p=3, b=2: a plan over GF(3) is named by M alone
    code, _, err = run(capsys, "generate", "--l", "3", "--M", "9", "--q", "2",
                       "--poly", "1,2,0,1", "--out", str(tmp_path / "gf3"))
    assert code == 0, err
    assert (tmp_path / "gf3" / "base.txt").read_text().startswith("# M=9 n=13 q=2 kind=base\n")


def test_non_primitive_polynomial_is_domain_error(tmp_path, capsys):
    # well-formed config, but x^6+1 is not primitive: math/domain exit
    code, _, err = run(capsys, "generate", "--l", "6", "--M", "4", "--q", "2",
                       "--poly", "1,0,0,0,0,0,1", "--out", str(tmp_path))
    assert code == 3
    assert json.loads(err)["error"] == "InvalidPolynomialError"


@pytest.mark.parametrize("argv", [
    ["generate", "--q", "abc"],
    ["generate", "--format", "xml"],
    ["generate", "--l", "1_6"],
    ["generate", "--bogus", "1"],
    ["generate", "--p", "2"],
    ["fairness", "--b", "2"],
    ["generate", "--o", "x"],
    ["fairness", "--q", "3"],
    ["generate", "--l"],
    [],
    ["bogus"],
    ["analyze"],
    ["simulate"],
    ["generate", "--config", "run.json"],
    ["fairness", "--format", "csv"],
])
def test_usage_error_is_one_json_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "ConfigError"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag, value", [
    *[(flag, value) for flag in ("--l", "--q", "--tau", "--M") for value in SPELLINGS + ["3,"]],
    *[("--poly", f"1,{value},0,1") for value in SPELLINGS],
    ("--poly", "1,1,0,1,"),
])
def test_integer_flag_grammar(tmp_path, capsys, flag, value):
    flags = {"--l": "3", "--M": "4", "--q": "2", "--tau": "5", "--poly": "1,1,0,1", flag: value}
    argv = [item for pair in flags.items() for item in pair]
    code, out, err = run(capsys, "generate", *argv, "--out", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "ConfigError"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row, message, column", [
    *[(f"0,{value},1", f"not an integer: {value!r}", 3) for value in SPELLINGS[:-1]],
    ("0,1,", "not an integer: ''", 5),
    (f"0,{SPELLINGS[-1]},1", f"spot index {SPELLINGS[-1]} outside [0, 4)", 3),
])
def test_sequence_row_grammar(tmp_path, capsys, row, message, column):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"# M=4 n=3 q=2 kind=base\n0,1,2\n{row}\n")
    code, out, err = run(capsys, "analyze", str(bad), "--out", str(tmp_path / "out"))
    assert code == 4 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["message"] == f"{message} (line 3, column {column})"


@pytest.mark.parametrize("text, where", [
    ("# M=4 n=3 q=1 kind=base\n0,x,1\n", "(line 2, column 3)"),
    ("# M=\u0664 n=3 q=1 kind=base\n0,1,2\n", "(line 1)"),  # an Arabic-Indic 4
], ids=["token", "header"])
def test_analyze_parse_error_leaves_no_out_dir(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    code, _, err = run(capsys, "analyze", str(bad), "--out", str(tmp_path / "out"))
    assert code == 4 and len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "SequenceFormatError" and payload["message"].endswith(where)
    assert not (tmp_path / "out").exists()


def test_non_utf8_input_is_io_error(tmp_path, capsys):
    junk = tmp_path / "junk.txt"
    junk.write_bytes(b"\xff\xfe")
    for argv in (["analyze", str(junk), "--out", str(tmp_path)],
                 ["simulate", str(junk)]):
        code, _, err = run(capsys, *argv)
        assert code == 4 and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "UnicodeDecodeError"


def test_analyze_reports(tmp_path, capsys):
    run(capsys, "generate", *SMALL, "--out", str(tmp_path))
    code, out, err = run(capsys, "analyze", str(tmp_path / "balanced.txt"),
                         str(tmp_path / "base.txt"), "--out", str(tmp_path / "analysis"))
    assert code == 0, err
    report = json.loads((tmp_path / "analysis" / "balanced.report.json").read_text())
    assert report["orthogonal_at_zero"] is True
    assert report["no_hit_zone"] >= 0
    base_report = json.loads((tmp_path / "analysis" / "base.report.json").read_text())
    assert base_report["orthogonal_at_zero"] is False
    assert base_report["no_hit_zone"] == -1
    # q=3 -> 6 pairwise profiles incl. autos, each a brute-force count per delay
    profiles = sorted(p.name for p in (tmp_path / "analysis").glob("balanced.profile.*"))
    assert len(profiles) == 6
    matrix = seqio.read_sequence_set(tmp_path / "balanced.txt").as_matrix().tolist()
    for u in range(3):
        for v in range(u, 3):
            counts = [sum(a == b for a, b in zip(matrix[u], matrix[v][d:] + matrix[v][:d]))
                      for d in range(31)]
            expected = "delay,count\n" + "".join(f"{d},{c}\n" for d, c in enumerate(counts))
            path = tmp_path / "analysis" / f"balanced.profile.{u}-{v}.csv"
            assert path.read_bytes() == expected.encode()
    hist = (tmp_path / "analysis" / "balanced.histograms.csv").read_text().splitlines()
    assert len(hist) == 3


def test_analyze_reads_the_plan_from_the_file(tmp_path, capsys):
    # M=4 with q=4: the file header alone sets the plan, no family flags apply
    run(capsys, "generate", "--l", "6", "--M", "4", "--q", "4", "--out", str(tmp_path))
    code, _, err = run(capsys, "analyze", str(tmp_path / "balanced.txt"),
                       "--out", str(tmp_path / "analysis"))
    assert code == 0, err
    report = json.loads((tmp_path / "analysis" / "balanced.report.json").read_text())
    assert len(report["histograms"]) == 4 and len(report["histograms"][0]) == 4
    code, out, err = run(capsys, "analyze", str(tmp_path / "balanced.txt"), "--M", "4")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "ConfigError"


def test_analyze_refuses_repeated_stems(tmp_path, capsys):
    run(capsys, "generate", *SMALL, "--out", str(tmp_path / "a"))
    run(capsys, "generate", "--l", "6", "--M", "4", "--q", "4", "--out", str(tmp_path / "b"))
    out_dir = tmp_path / "analysis"
    a, b = tmp_path / "a", tmp_path / "b"
    for files in ([a / "base.txt", b / "base.txt"],
                  [a / "base.txt", a / "base.txt"],
                  [a / "balanced.txt", b / "balanced.csv"],
                  [a / "base.txt", tmp_path / "missing" / "base.txt"]):  # refused before reading
        code, out, err = run(capsys, "analyze", *map(str, files), "--out", str(out_dir))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError" and files[0].stem in payload["message"]
        assert not out_dir.exists()


def test_analyze_round_trip_preserves_sets(tmp_path, capsys):
    run(capsys, "generate", *SMALL, "--out", str(tmp_path))
    written = seqio.read_sequence_set(tmp_path / "base.txt")
    again = seqio.read_sequence_set(tmp_path / "base.txt")
    assert np.array_equal(written.as_matrix(), again.as_matrix())


def test_analyze_mislabelled_balanced_file_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# M=4 n=3 q=2 kind=balanced\n0,1,2\n3,1,0\n")
    code, _, err = run(capsys, "analyze", str(bad), "--out", str(tmp_path))
    assert code == 4
    payload = json.loads(err)
    assert payload["error"] == "SequenceFormatError" and "hop column 1" in payload["message"]


@pytest.mark.parametrize("header", [
    f"# M={2**40} n=2 q=1 kind=base",
    f"# M=4 n={SIZE_LIMIT + 1} q=1 kind=base",
    f"# M=4 n={SIZE_LIMIT // 2 + 1} q=2 kind=base",
])
def test_analyze_oversized_header_is_parse_error(tmp_path, capsys, header):
    bad = tmp_path / "bad.txt"
    bad.write_text(header + "\n0,1\n1,0\n")
    code, _, err = run(capsys, "analyze", str(bad), "--out", str(tmp_path))
    assert code == 4
    payload = json.loads(err)
    assert payload["error"] == "SequenceFormatError" and "exceeds the limit" in payload["message"]


def test_analyze_one_member_one_hop(tmp_path, capsys):
    # L*q = 1: the Peng-Fan bound is undefined and reported as null
    code, _, err = run(capsys, "generate", "--l", "2", "--M", "4", "--q", "1",
                       "--poly", "1,1,1", "--out", str(tmp_path))
    assert code == 0, err
    assert (tmp_path / "balanced.txt").read_text().startswith("# M=4 n=1 q=1 kind=balanced\n")
    code, _, err = run(capsys, "analyze", str(tmp_path / "balanced.txt"),
                       "--out", str(tmp_path / "analysis"))
    assert code == 0, err
    report = json.loads((tmp_path / "analysis" / "balanced.report.json").read_text())
    assert report["peng_fan_bound"] is None
    assert report["max_hamming"] == 0 and report["no_hit_zone"] == 0


def test_cli_import_loads_no_dependency_but_numpy():
    probe = ("import sys; before = set(sys.modules); import hopset.cli; "
             "print(*{m.split('.')[0] for m in set(sys.modules) - before}"
             " - set(sys.stdlib_module_names))")
    # run from the import root of the hopset under test, so that `-c` finds it uninstalled
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=60, cwd=Path(seqio.__file__).parents[1])
    assert set(done.stdout.split()) == {"hopset", "numpy"}


def test_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# M=4 n=2 q=1 kind=base\n0,9\n")
    code, _, err = run(capsys, "analyze", str(bad), "--out", str(tmp_path))
    assert code == 4
    assert json.loads(err)["error"] == "SequenceFormatError"


def test_fairness_outputs(tmp_path, capsys):
    code, out, err = run(capsys, "fairness", "--l", "6", "--M", "4",
                         "--out", str(tmp_path))
    assert code == 0, err
    lines = (tmp_path / "fairness.csv").read_text().splitlines()
    assert lines[0] == "q,mean_ops,normalized"
    assert len(lines) == 1 + 4 + 2
    assert "h1 = " in out


def test_fairness_json_matches_csv(tmp_path, capsys, ms6, plan_b2):
    # fairness.csv parses back to the report the sweep computes (l=6, M=4): no digit is lost
    code, out, err = run(capsys, "fairness", "--l", "6", "--M", "4", "--out", str(tmp_path))
    assert code == 0, err
    assert out.splitlines()[0] == str(tmp_path / "fairness.csv")
    report = mean_operation_curve(ms6, plan_b2)
    lines = (tmp_path / "fairness.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:-2]]
    assert [int(q) for q, _, _ in rows] == report.q_values.tolist() == [1, 2, 3, 4]
    assert [float(mean) for _, mean, _ in rows] == report.mean_ops.tolist()
    assert [float(norm) for _, _, norm in rows] == report.normalized.tolist()
    h1, h2 = (float(line.split(" = ")[1]) for line in lines[-2:])
    assert (h1, h2) == (report.slope, report.intercept)


def test_simulate_balanced_is_collision_free(tmp_path, capsys):
    run(capsys, "generate", *SMALL, "--out", str(tmp_path))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"hops": 62, "sequences": "balanced.txt"}))
    code, out, err = run(capsys, "simulate", str(scenario))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["total_collisions"] == 0
    assert payload["collision_rate"] == 0.0


def test_simulate_base_counts_match_correlation(tmp_path, capsys):
    run(capsys, "generate", *SMALL, "--out", str(tmp_path))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"hops": 31, "sequences": "base.txt"}))
    code, out, _ = run(capsys, "simulate", str(scenario))
    assert code == 0
    payload = json.loads(out)
    from hopset.correlation import hamming_correlation
    base = seqio.read_sequence_set(tmp_path / "base.txt")
    for u in range(3):
        for v in range(u + 1, 3):
            assert payload["per_pair"][u][v] == hamming_correlation(base, u, v, 0)


def test_simulate_huge_horizon_folds_periods(tmp_path, capsys):
    run(capsys, "generate", *SMALL, "--out", str(tmp_path))
    hops = 10**12
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"hops": hops, "sequences": "base.txt"}))
    code, out, err = run(capsys, "simulate", str(scenario))
    assert code == 0, err
    matrix = seqio.read_sequence_set(tmp_path / "base.txt").as_matrix()
    periods, rest = divmod(hops, matrix.shape[1])
    same = matrix[:, None, :] == matrix[None, :, :]
    expected = periods * same.sum(axis=2) + same[:, :, :rest].sum(axis=2)
    np.fill_diagonal(expected, 0)
    payload = json.loads(out)
    assert payload["per_pair"] == expected.tolist()
    assert payload["total_collisions"] == int(expected.sum()) // 2 > 0


def test_simulate_malformed_scenario(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text("{oops")
    code, _, err = run(capsys, "simulate", str(scenario))
    assert code == 4
    assert json.loads(err)["error"] == "JSONDecodeError"


@pytest.mark.parametrize("fields", [
    {"hops": 0},
    {"hops": "x"},
    {"hops": 5, "offsets": 3},
    {"hops": 5, "offsets": [0.0, 0.5]},
    {"hops": 10**23},
])
def test_simulate_bad_scenario_is_parse_error(tmp_path, capsys, fields):
    run(capsys, "generate", *SMALL, "--out", str(tmp_path))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"sequences": "balanced.txt", **fields}))
    code, out, err = run(capsys, "simulate", str(scenario))
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "ScenarioError"


def test_simulate_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", str(tmp_path / "nope.json"))
    assert code == 4


def test_default_config_full_scale(tmp_path, capsys):
    # the built-in defaults (l=14, M=16, q=5) produce 5 sequences of 4095
    # hops; the balanced set is orthogonal with no hit zone beyond delay 0
    code, _, err = run(capsys, "generate", "--out", str(tmp_path))
    assert code == 0, err
    for name in ("base.txt", "balanced.txt"):
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 6
        assert all(len(line.split(",")) == 4095 for line in lines[1:])
    code, _, err = run(capsys, "analyze", str(tmp_path / "balanced.txt"),
                       "--out", str(tmp_path / "analysis"))
    assert code == 0, err
    report = json.loads((tmp_path / "analysis" / "balanced.report.json").read_text())
    assert report["orthogonal_at_zero"] is True
    assert report["no_hit_zone"] == 0
    assert all(sum(row) == 4095 for row in report["histograms"])


FUZZ_INTS = ["abc", "1_6", "-3", "", str(10**30), *map(str, range(11))]
FUZZ_VALUES = FUZZ_INTS + ["16", "csv", "json", "xml", "1,1,0,0,1", "1,0,0,0,1"]
FUZZ_FLAGS = {"generate": ["--M", "--q", "--tau", "--poly"],
              "fairness": ["--M", "--tau", "--poly"],
              "analyze": [], "simulate": []}
# bad<i>.txt holds SPELLINGS[i] as a spot; arabic_header.txt has M in Arabic-Indic digits
FUZZ_FILES = ["base.txt", "balanced.txt", "scenario.json", "broken.json", "junk.txt",
              "missing.txt", ".", "arabic_header.txt",
              *[f"bad{i}.txt" for i in range(len(SPELLINGS))]]


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    """A small l=4, M=4, q=3 set and the other files a fuzzed argv may name."""
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--l", "4", "--M", "4", "--q", "3", "--out", str(root)]) == 0
    (root / "scenario.json").write_text(json.dumps({"hops": 9, "sequences": "base.txt"}))
    (root / "broken.json").write_text("{oops")
    (root / "junk.txt").write_bytes(b"\xff\xfe")
    (root / "arabic_header.txt").write_text("# M=\u0664 n=3 q=1 kind=base\n0,1,2\n")
    for i, value in enumerate(SPELLINGS):
        (root / f"bad{i}.txt").write_text(f"# M=4 n=3 q=1 kind=base\n0,{value},1\n")
    return root


@st.composite
def fuzz_argvs(draw, root):
    """A subcommand (or none, or a bogus one), its inputs, its own flags, then junk.

    generate and fairness always get an --l from the value pool, so l is at
    most 10 or refused and every run stays small; every command but simulate
    writes under the fixture's directory.
    """
    values = st.sampled_from(FUZZ_VALUES + [str(root / name) for name in FUZZ_FILES])
    command = draw(st.sampled_from([*FUZZ_FLAGS, "bogus", None]))
    argv = [] if command is None else [command]
    if command in ("generate", "fairness"):
        argv += ["--l", draw(st.sampled_from(FUZZ_INTS))]
    elif command in ("analyze", "simulate"):
        argv += draw(st.lists(values, min_size=1, max_size=2))
    if own := FUZZ_FLAGS.get(command):
        for flag in draw(st.lists(st.sampled_from(own), unique=True)):
            argv += [flag, draw(values)]
    argv += draw(st.lists(st.one_of(st.sampled_from(["--M", "--q", "--bogus"]), values),
                          max_size=2))
    if command != "simulate":
        argv += ["--out", str(root / "out")]
    return argv


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_cli_fuzz_exit_codes_and_json_errors(fuzz_root, data):
    argv = data.draw(fuzz_argvs(fuzz_root))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and "Traceback" not in lines[0]
        assert set(json.loads(lines[0])) == {"error", "message"}
