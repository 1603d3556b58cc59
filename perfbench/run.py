"""Benchmark of the hopset CLI: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout; hopset is imported from ./src:

    python3 perfbench/run.py --workload generate-l16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --smoke

A run is a closed loop: one client in one worker process makes the
workload's CLI calls through hopset.cli.main, one at a time, until
--seconds have passed. Inputs the CLI reads (sequence files, scenarios) are
made beforehand by `hopset generate` in a separate process, outside every
timed process and metric. Every round's outputs are checked (checks.py) and
digested with sha256. --trace 0 reports the end-to-end metrics; --trace 1
wraps hopset's public functions (spans.py) and reports per-layer metrics.
Scratch files live under .perfbench_work/ in the checkout; results of each
run, with digests and run metadata, stay in .perfbench_work/results/.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import check_round
from spans import median_metrics, round_metrics, unit
from workloads import SPECS, make_plan

BENCH = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
# set-up is sampled before and after the workload, so that the machine's
# faster and slower spells of a few seconds even out in the median
SETUP_BEFORE, SETUP_AFTER = 3, 4
DEADLINE_S = 170
END_TO_END = {"setup_s": "s", "wall_s": "s", "entries_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not measure: no program, or a worker that died."""


class Runner:
    """Spawns the workers of one workload's run, within one deadline."""

    def __init__(self, root):
        self.root = root
        self.src = root / "src"
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(self.src))

    def worker(self, *args):
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        try:
            done = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), *args], cwd=self.root,
                env=self.env, stdout=subprocess.PIPE, timeout=max(remaining, 1), check=False,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args[0]} ran past the {DEADLINE_S} s deadline") from None
        if done.returncode != 0:
            raise BenchError(f"worker {args[0]} exited with {done.returncode}")
        return done.stdout.decode("utf-8")

    def setup_samples(self, count):
        """Seconds a fresh interpreter takes to import hopset.cli and build the parser."""
        samples = [json.loads(self.worker("setup")) for _ in range(count)]
        for sample in samples:
            self.check_origin(sample["hopset"])
        return [sample["setup_s"] for sample in samples]

    def check_origin(self, path):
        if not Path(path).resolve().is_relative_to(self.src.resolve()):
            raise BenchError(f"hopset was imported from {path}, not from {self.src}")


def digest_round(path):
    files = {p.relative_to(path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(path.rglob("*")) if p.is_file()}
    summary = "".join(f"{name} {d}\n" for name, d in files.items())
    return hashlib.sha256(summary.encode()).hexdigest(), files


def judge_rounds(plan, rounds, rounds_dir, inputs, seed):
    """Check round 0's outputs; later rounds must reproduce them byte for byte.

    Returns (failed calls, per-round (digest, files), problems). A call fails
    on a nonzero exit code or when its outputs fail a check.
    """
    first, failed, digests, problems = set(), 0, [], []
    rng = np.random.default_rng(abs(seed))
    for index, info in enumerate(rounds):
        digest, files = digest_round(rounds_dir / f"r{index}")
        if index == 0:
            found = check_round(plan, rounds_dir / "r0", inputs, rng)
            problems += [f"call {i}: {p}" for i, p in found]
            first = bad = {i for i, _ in found}
        elif digest != digests[0][0]:
            problems.append(f"round {index}: outputs differ from round 0")
            bad = set(range(len(plan.calls)))
        else:
            bad = set(first)
        for i, code in enumerate(info["codes"]):
            if code != 0:
                bad.add(i)
                problems.append(f"round {index} call {i}: exit code {code}")
        failed += len(bad)
        digests.append((digest, files))
        shutil.rmtree(rounds_dir / f"r{index}")
    return failed, digests, problems


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def src_lines(src):
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((src / "hopset").rglob("*.py")))


def run_workload(runner, workload, seed, seconds, trace, smoke):
    plan = make_plan(workload, seed, smoke)
    base = WORK / workload
    inputs, rounds_dir = base / "inputs", base / "rounds"
    shutil.rmtree(runner.root / base, ignore_errors=True)
    (runner.root / inputs).mkdir(parents=True)
    (runner.root / rounds_dir).mkdir()
    try:
        setup = [] if trace else runner.setup_samples(SETUP_BEFORE)
        spec = {"calls": plan.calls, "prep": plan.prep, "seconds": seconds, "trace": trace,
                "out": str(base / "out"), "inputs": str(inputs), "rounds": str(rounds_dir),
                "result": str(base / "worker.json")}
        spec_path = runner.root / base / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        if plan.prep:
            runner.worker("prep", str(spec_path))
        for kind, scenario in plan.scenarios.items():
            (runner.root / inputs / f"{kind}.json").write_text(json.dumps(scenario), encoding="utf-8")

        runner.worker("run", str(spec_path))
        result = json.loads((runner.root / spec["result"]).read_text(encoding="utf-8"))
        runner.check_origin(result["hopset"])
        rounds = result["rounds"]
        failed, digests, problems = judge_rounds(
            plan, rounds, runner.root / rounds_dir, runner.root / inputs, seed)
        attempted = len(plan.calls) * len(rounds)

        timed = [r for r in rounds if not r["traced"]]
        if trace:
            traced = [r for r in rounds if r["traced"]]
            metrics = median_metrics(round_metrics(result["spans"], result["counters"]))
            metrics["proc.cpu_s"] = statistics.median(r["cpu_s"] for r in timed)
            metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                           - statistics.median(r["wall_s"] for r in timed))
            units = {k: unit(k) for k in metrics}
        else:
            setup += runner.setup_samples(SETUP_AFTER)
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(r["wall_s"] for r in timed),
                "entries_per_s": statistics.median(plan.work / r["wall_s"] for r in timed),
                "peak_rss_mb": result["peak_rss_mb"],
            }
            units = END_TO_END
    finally:
        shutil.rmtree(runner.root / base, ignore_errors=True)

    report = {
        "workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
        "sizes": plan.sizes(), "rounds": len(rounds), "attempted": attempted,
        "failed": failed, "failed_frac": failed / attempted, "problems": problems,
        "round_walls_s": [r["wall_s"] for r in rounds],
        "digest": digests[0][0], "files": digests[0][1],
        "meta": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                 "src_hopset_lines": src_lines(runner.src), **result["versions"]},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    results = runner.root / WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}{'-smoke' if smoke else ''}-seed{seed}{'-trace' if trace else ''}.json"
    (results / name).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def show(report):
    print(f"== {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"sizes={json.dumps(report['sizes'])}")
    print(f"   meta {json.dumps(report['meta'])}")
    print(f"   rounds={report['rounds']} attempted={report['attempted']} "
          f"failed={report['failed']} digest={report['digest']} ({len(report['files'])} files)")
    for problem in report["problems"]:
        print(f"   FAILED {problem}")
    print(f"   {'failed_frac':<28} {report['failed_frac']:.6g} ratio")
    for name, m in report["metrics"].items():
        print(f"   {name:<28} {m['value']:.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*SPECS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (l=8) on the same code path, for the benchmark's tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hopset" / "cli.py").is_file():
        print(f"error: no src/hopset/cli.py under {root}; run from a hopset checkout",
              file=sys.stderr)
        return 2
    names = list(SPECS) if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(Runner(root), name, args.seed, args.seconds, bool(args.trace),
                                args.smoke)
                   for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        show(report)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in reports for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
