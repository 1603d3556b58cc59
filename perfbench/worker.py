"""Benchmark worker: one fresh interpreter that drives hopset.cli.main in-process.

    python3 worker.py setup        time `import hopset.cli` plus build_parser()
    python3 worker.py prep SPEC    make the input files with SPEC's preparation calls
    python3 worker.py run SPEC     run the rounds SPEC describes, write SPEC's result

A round is the workload's CLI calls, made one at a time; each writes into
SPEC["out"], which is moved to SPEC["rounds"]/r<i> after the round so that
every round prints the same paths. Rounds repeat until SPEC["seconds"]
have passed. With tracing on, rounds alternate untraced and traced, at
least one of each, so the traced run also measures the tracing overhead.
"""

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def call(cli, argv, stdout_path):
    """Run one CLI call with stdout captured; returns its exit code."""
    with open(stdout_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            return -1


def cpu_seconds():
    """User plus system time of this process and of any children it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def fill(argv, spec):
    return [a.replace("{out}", spec["out"]).replace("{inputs}", spec["inputs"]) for a in argv]


def run(spec):
    from hopset import cli

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
    out, rounds_dir = Path(spec["out"]), Path(spec["rounds"])
    rounds = []
    started = time.perf_counter()
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        out.mkdir(parents=True)
        if traced:
            tracer.install(index)
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        codes = [call(cli, fill(argv, spec), out / f"stdout.{i}.txt")
                 for i, argv in enumerate(spec["calls"])]
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        if traced:
            tracer.uninstall()
        rounds.append({"wall_s": wall, "cpu_s": cpu, "codes": codes, "traced": traced})
        out.rename(rounds_dir / f"r{index}")
        done = time.perf_counter() - started >= spec["seconds"]
        if done and (tracer is None or len(rounds) >= 2):
            break
    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "hopset": cli.__file__,
        "versions": versions(),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


def versions():
    from importlib import metadata

    import numpy

    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "sympy": sympy}


def main(argv):
    if argv[0] == "setup":
        t0 = time.perf_counter()
        from hopset import cli
        cli.build_parser()
        print(json.dumps({"setup_s": time.perf_counter() - t0, "hopset": cli.__file__}))
        return 0
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    if argv[0] == "prep":
        from hopset import cli
        inputs = Path(spec["inputs"])
        codes = [call(cli, fill(a, spec), inputs / f"prep.{i}.txt")
                 for i, a in enumerate(spec["prep"])]
        return 1 if any(codes) else 0
    run(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
