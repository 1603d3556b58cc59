"""Command-line front end.

Subcommands cover the full pipeline: `generate` builds the base and
balanced sets and the operation ledger, `analyze` reports correlation and
histogram statistics for sequence files, `fairness` sweeps the family size
and fits the mean-operation trend, `simulate` runs the synchronous
slot-collision model on a scenario file.

Settings come from flags alone, each with its default in the parser, and
every artifact has one format: sequence sets as text, ledgers, usage and
fairness curves as CSV, reports as JSON. Exit codes: 0 ok, 2 bad
configuration, 3 math/domain failure, 4 I/O or parse failure. Errors, usage
errors included, are emitted as one JSON object per line on stderr.
"""

import argparse
import json
import sys
from pathlib import Path

from .balancer import cfb_balance, mean_operation_curve
from .correlation import analyze_set
from .errors import ConfigError, HopsetError, SequenceFormatError
from .lfsr import default_polynomial, is_prime
from .mapping import SIZE_LIMIT, FrequencyPlan, build_base_set, plan_from_spot_count, validate_family
from . import seqio
from .sim import simulate


def integer(value):
    """An integer flag: one run of ASCII digits (seqio.integers), else ValueError."""
    [number] = seqio.integers(value)  # '1,2' parses but does not unpack
    return number


def _resolve_config(args) -> FrequencyPlan:
    """Check each flag once, in a fixed order, before any work; return the plan.

    M alone names the plan: plan_from_spot_count splits it into the prime p
    and the word width b. fairness, which has no --q, is checked as its
    largest family, q = M. M, the period n = p^l - 1 and the set size are
    refused above SIZE_LIMIT before any of them is factored or allocated.
    """
    try:
        plan = plan_from_spot_count(args.M)
        q = getattr(args, "q", plan.M)
        validate_family(q, plan)
    except HopsetError as exc:
        raise ConfigError(str(exc)) from None
    l = args.l
    if not 1 <= l < SIZE_LIMIT.bit_length() or plan.p**l > SIZE_LIMIT:
        raise ConfigError(f"l={l} must be at least 1 with p^l={plan.p}^{l} "
                          f"at most the limit {SIZE_LIMIT}")
    n = plan.p**l - 1
    if n < 3 or plan.b >= n:  # no prime shift below n, or no whole word of b symbols
        raise ConfigError(f"period n={n} must be at least 3 and above the word width b={plan.b}")

    entries = q * (n // plan.b)
    if entries > SIZE_LIMIT:
        raise ConfigError(f"largest set holds {entries} entries, above the limit {SIZE_LIMIT}")

    if (tau := args.tau) is not None:
        if tau >= n:
            raise ConfigError(f"tau={tau} must be below the period n={n}")
        if not is_prime(tau):
            raise ConfigError(f"tau={tau} must be prime")
    if (poly := args.poly) is not None:
        if any(c >= plan.p for c in poly):
            raise ConfigError(f"polynomial coefficients must lie in [0, {plan.p})")
        if len(poly) != l + 1:
            raise ConfigError(f"polynomial has degree {len(poly) - 1}, expected l={l}")
    return plan


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args) -> int:
    plan = _resolve_config(args)
    base = build_base_set(plan, args.poly or default_polynomial(plan.p, args.l), args.q, args.tau)
    balanced, ledger = cfb_balance(base)

    out = _out_dir(args.out)
    seqio.write_sequence_set(out / "base.txt", base)
    seqio.write_sequence_set(out / "balanced.txt", balanced)
    seqio.write_ledger_csv(out / "ledger.csv", ledger)
    seqio.write_histograms_csv(out / "usage.csv", ledger.usage)
    for name in ("base.txt", "balanced.txt", "ledger.csv", "usage.csv"):
        print(out / name)
    return 0


def cmd_analyze(args) -> int:
    stems = [Path(path).stem for path in args.files]
    if repeated := sorted({stem for stem in stems if stems.count(stem) > 1}):
        raise ConfigError(f"inputs share the output stems {repeated}; each stem names its outputs")
    for input_path, stem in zip(args.files, stems):
        sset = seqio.read_sequence_set(input_path)
        report = analyze_set(sset)
        out = _out_dir(args.out)  # made only once there is an output to write
        seqio.write_analysis_report(out / f"{stem}.report.json", report)
        seqio.write_histograms_csv(out / f"{stem}.histograms.csv", report.histograms)
        for u, block in enumerate(report.profiles):
            for v, values in enumerate(block, start=u):
                seqio.write_profile_csv(out / f"{stem}.profile.{u}-{v}.csv", values)
        print(out / f"{stem}.report.json")
        del sset, report, block, values  # not held while the next file is analyzed
    return 0


def cmd_fairness(args) -> int:
    plan = _resolve_config(args)
    report = mean_operation_curve(plan, args.poly or default_polynomial(plan.p, args.l), tau=args.tau)
    out = _out_dir(args.out)
    seqio.write_fairness_csv(out / "fairness.csv", report)
    print(out / "fairness.csv")
    print(f"h1 = {report.slope:.5f}  h2 = {report.intercept:.5f}")
    return 0


def cmd_simulate(args) -> int:
    scenario = seqio.load_scenario(args.scenario)
    report = simulate(scenario)
    print(json.dumps(seqio.collision_report_payload(report), indent=2))
    return 0


def _add_config_flags(parser, with_family=True):
    parser.add_argument("--l", type=integer, default="14",
                        help="primitive polynomial degree (default %(default)s)")
    parser.add_argument("--M", type=integer, default="16",
                        help="frequency spot count p^b, a prime power (default %(default)s)")
    if with_family:
        parser.add_argument("--q", type=integer, default="5",
                            help="family size, 1 <= q <= M (default %(default)s)")
    parser.add_argument("--tau", type=integer, help="prime rotation step between members")
    parser.add_argument("--poly", type=seqio.integers,
                        help="polynomial taps c0,...,cl, lowest degree first")
    parser.add_argument("--out", default=".", help="output directory (default %(default)s)")


class _Parser(argparse.ArgumentParser):
    """Flags are spelled out in full; a usage error is a ConfigError (exit 2)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hopset",
        description="Build and analyze collision-free balanced frequency hopping sequence sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct base + balanced sets and the ledger")
    _add_config_flags(gen)
    gen.set_defaults(func=cmd_generate)

    ana = sub.add_parser("analyze", help="correlation/histogram reports for sequence files")
    ana.add_argument("files", nargs="+", help="sequence files to analyze")
    ana.add_argument("--out", default=".", help="output directory (default .)")
    ana.set_defaults(func=cmd_analyze)

    fair = sub.add_parser("fairness", help="sweep q=1..M and fit the mean-operation trend")
    _add_config_flags(fair, with_family=False)
    fair.set_defaults(func=cmd_fairness)

    sim = sub.add_parser("simulate", help="run the synchronous collision model on a scenario")
    sim.add_argument("scenario", help="scenario JSON: hops and sequences path")
    sim.set_defaults(func=cmd_simulate)
    return parser


def _emit_error(exc) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        _emit_error(exc)
        return 2
    except (SequenceFormatError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        _emit_error(exc)
        return 4
    except HopsetError as exc:
        _emit_error(exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
