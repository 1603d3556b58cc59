"""Tests of the benchmark itself, on the tiny smoke sizes (l=8).

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import read_set  # noqa: E402
from run import judge_rounds  # noqa: E402
from spans import round_metrics  # noqa: E402
from workloads import SPECS, make_plan  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_checks_every_workload(trace):
    code, out, err = bench("--workload", "all", "--seed", "3", "--seconds", "0",
                           "--trace", trace, "--smoke")
    assert code == 0, err
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(SPECS)
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    for workload in SPECS:
        reported = {k.split("/", 1)[1]: m for k, m in result["metrics"].items()
                    if k.startswith(workload + "/")}
        assert {k: m["unit"] for k, m in reported.items()} == {m["name"]: m["unit"] for m in listed}


def test_same_seed_gives_same_digests():
    digests = []
    for _ in range(2):
        code, _, err = bench("--workload", "generate-l16", "--seed", "5", "--seconds", "0",
                             "--smoke")
        assert code == 0, err
        report = ROOT / ".perfbench_work/results/generate-l16-smoke-seed5.json"
        digests.append(json.loads(report.read_text(encoding="utf-8"))["files"])
    assert digests[0] == digests[1] and len(digests[0]) == 5


def generate_round(tmp_path, seed):
    """One smoke `generate` round's outputs in tmp_path/r0, made by the CLI."""
    plan = make_plan("generate-l16", seed, smoke=True)
    out = tmp_path / "r0"
    argv = [a.replace("{out}", str(out)) for a in plan.calls[0]]
    subprocess.run([sys.executable, "-c", f"from hopset import cli; cli.main({argv!r})"],
                   env={"PYTHONPATH": str(ROOT / "src")}, check=True, capture_output=True)
    return plan, out


def test_repeated_spot_in_a_balanced_column_counts_as_failed(tmp_path):
    plan, out = generate_round(tmp_path, seed=4)
    lines = (out / "balanced.txt").read_text(encoding="utf-8").splitlines()
    rows = [row.split(",") for row in lines[1:]]
    rows[1][0] = rows[0][0]
    (out / "balanced.txt").write_text(
        "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n", encoding="utf-8")
    _, _, matrix = read_set(out / "balanced.txt")
    assert matrix[0, 0] == matrix[1, 0]

    failed, _, problems = judge_rounds(plan, [{"codes": [0]}], tmp_path, tmp_path, seed=4)
    assert failed == 1
    assert any("repeats a spot" in p for p in problems)


def test_round_differing_from_round_zero_counts_as_failed(tmp_path):
    plan, out = generate_round(tmp_path, seed=4)
    shutil.copytree(out, tmp_path / "r1")
    with open(tmp_path / "r1" / "usage.csv", "a", encoding="utf-8") as fh:
        fh.write("\n")
    failed, _, problems = judge_rounds(plan, [{"codes": [0]}, {"codes": [0]}], tmp_path,
                                       tmp_path, seed=4)
    assert failed == 1 and problems == ["round 1: outputs differ from round 0"]


def test_nonzero_exit_counts_as_failed(tmp_path):
    plan, _ = generate_round(tmp_path, seed=4)
    failed, _, problems = judge_rounds(plan, [{"codes": [2]}], tmp_path, tmp_path, seed=4)
    assert failed == 1 and problems == ["round 0 call 0: exit code 2"]


def test_self_time_excludes_child_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 1],
        ["balancer.cfb_balance", 1.0, 8.0, 0, 1],
        ["mapping.as_matrix", 1.0, 2.0, 1, 1],
        ["mapping.set_from_matrix", 7.0, 8.0, 1, 1],
    ]
    counters = [{"balancer.moved_entries": 10}]
    (metrics,) = round_metrics(spans, counters)
    assert metrics["cli.self_s"] == 3.0
    assert metrics["balancer.balance_s"] == 5.0
    assert metrics["balancer.moved_per_s"] == 2.0
    assert metrics["mapping.as_matrix_calls"] == 1 and metrics["balancer.calls"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, out, _ = bench("--workload", "generate-l16", "--seed", "1", "--seconds", "1",
                         cwd=tmp_path)
    assert code != 0 and out == ""
