"""Command-line front end.

Subcommands cover the full pipeline: `generate` builds the base and
balanced sets and the operation ledger, `analyze` reports correlation and
histogram statistics for sequence files, `fairness` sweeps the family size
and fits the mean-operation trend, `simulate` runs the synchronous
slot-collision model on a scenario file.

Settings resolve as CLI flags > JSON config file > built-in defaults.
Exit codes: 0 ok, 2 bad configuration, 3 math/domain failure, 4 I/O or
parse failure. Errors, usage errors included, are emitted as one JSON object
per line on stderr.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .balancer import cfb_balance, mean_operation_curve
from .correlation import analyze_set, pairwise_profiles
from .errors import ConfigError, FamilySizeError, HopsetError, SequenceFormatError
from .lfsr import LfsrConfig, default_polynomial, generate_m_sequence, is_prime
from .mapping import (
    SIZE_LIMIT,
    FamilyConfig,
    FrequencyPlan,
    build_base_set,
    default_shift,
    plan_from_spot_count,
)
from . import seqio
from .sim import simulate

_CONFIG_KEYS = {"l", "M", "q", "tau", "poly", "out", "format"}


@dataclass
class RunConfig:
    """Resolved run settings shared by the generate/fairness commands."""

    plan: FrequencyPlan
    l: int = 14
    q: int = 5
    tau: int = None
    poly: tuple = None
    out: str = "."
    format: str = "csv"

    @property
    def n(self):
        return self.plan.p**self.l - 1


def _parse_poly(value, p):
    if isinstance(value, str):
        value = value.split(",")
    try:
        taps = tuple(int(c) for c in value)
    except (TypeError, ValueError):
        raise ConfigError(f"polynomial taps must be integers, got {value!r}") from None
    if any(c < 0 or c >= p for c in taps):
        raise ConfigError(f"polynomial coefficients must lie in [0, {p})")
    return taps


def _as_int(key, value):
    """An integer setting from a flag or the config file; anything else is a ConfigError."""
    if type(value) not in (int, str) or not str(value).removeprefix("-").isdecimal():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _resolve_config(args, family=True) -> RunConfig:
    """Merge defaults, config file, and CLI flags; check each setting once.

    M alone names the plan (default 16, p=2 and b=4): plan_from_spot_count
    splits it into the prime p and the word width b. Commands without a
    family notion (fairness sweeps q internally) skip the q bound check. M,
    the period n = p^l - 1 and the set size are refused above SIZE_LIMIT
    before any of them is factored or allocated.
    """
    merged = {"M": 16}
    if getattr(args, "config", None):
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        if unknown := set(raw) - _CONFIG_KEYS:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(raw)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value

    try:
        cfg = RunConfig(plan_from_spot_count(_as_int("M", merged["M"])))
    except HopsetError as exc:
        raise ConfigError(str(exc)) from None
    cfg.l = _as_int("l", merged.get("l", cfg.l))
    if not 1 <= cfg.l < SIZE_LIMIT.bit_length() or cfg.plan.p**cfg.l > SIZE_LIMIT:
        raise ConfigError(f"l={cfg.l} must be at least 1 with p^l={cfg.plan.p}^{cfg.l} "
                          f"at most the limit {SIZE_LIMIT}")

    if family:
        cfg.q = _as_int("q", merged.get("q", cfg.q))
        if cfg.q < 1 or cfg.q > cfg.plan.M:
            raise ConfigError(str(FamilySizeError(cfg.q, cfg.plan.M)))
    else:
        cfg.q = 1
    # the largest set: q members, or M for the fairness sweep
    entries = (cfg.q if family else cfg.plan.M) * (cfg.n // cfg.plan.b)
    if entries > SIZE_LIMIT:
        raise ConfigError(f"largest set holds {entries} entries, above the limit {SIZE_LIMIT}")

    if merged.get("tau") is not None:
        cfg.tau = _as_int("tau", merged["tau"])
        if cfg.tau >= cfg.n:
            raise ConfigError(f"tau={cfg.tau} must be below the period n={cfg.n}")
        if not is_prime(cfg.tau):
            raise ConfigError(f"tau={cfg.tau} must be prime")
    if merged.get("poly") is not None:
        cfg.poly = _parse_poly(merged["poly"], cfg.plan.p)
        if len(cfg.poly) != cfg.l + 1:
            raise ConfigError(
                f"polynomial has degree {len(cfg.poly) - 1}, expected l={cfg.l}"
            )
    cfg.out = str(merged.get("out", cfg.out))
    cfg.format = str(merged.get("format", cfg.format))
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")
    return cfg


def _build_sequence(cfg: RunConfig):
    taps = cfg.poly if cfg.poly is not None else default_polynomial(cfg.plan.p, cfg.l)
    seed = (1,) + (0,) * (cfg.l - 1)
    return generate_m_sequence(LfsrConfig(p=cfg.plan.p, taps=taps, seed=seed))


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args) -> int:
    cfg = _resolve_config(args)
    mseq = _build_sequence(cfg)
    tau = cfg.tau if cfg.tau is not None else default_shift(mseq.n, cfg.q)
    base = build_base_set(mseq, FamilyConfig(q=cfg.q, tau=tau), cfg.plan)
    balanced, ledger = cfb_balance(base)

    out = _out_dir(cfg.out)
    seqio.write_sequence_set(out / "base.txt", base)
    seqio.write_sequence_set(out / "balanced.txt", balanced)
    if cfg.format == "json":
        seqio.write_ledger_json(out / "ledger.json", ledger)
        written = ["base.txt", "balanced.txt", "ledger.json"]
    else:
        seqio.write_ledger_csv(out / "ledger.csv", ledger)
        seqio.write_histograms_csv(out / "usage.csv", ledger.usage)
        written = ["base.txt", "balanced.txt", "ledger.csv", "usage.csv"]
    for name in written:
        print(out / name)
    return 0


def cmd_analyze(args) -> int:
    stems = [Path(path).stem for path in args.files]
    if repeated := sorted({stem for stem in stems if stems.count(stem) > 1}):
        raise ConfigError(f"inputs share the output stems {repeated}; each stem names its outputs")
    out = _out_dir(args.out)
    for input_path, stem in zip(args.files, stems):
        sset = seqio.read_sequence_set(input_path)
        profiles = pairwise_profiles(sset)
        report = analyze_set(sset, profiles=profiles)
        seqio.write_analysis_report(out / f"{stem}.report.json", report)
        seqio.write_histograms_csv(out / f"{stem}.histograms.csv", report.histograms)
        for profile in profiles:
            u, v = profile.pair
            seqio.write_profile_csv(out / f"{stem}.profile.{u}-{v}.csv", profile)
        print(out / f"{stem}.report.json")
        del sset, profiles, report, profile  # not held while the next file is analyzed
    return 0


def cmd_fairness(args) -> int:
    cfg = _resolve_config(args, family=False)
    mseq = _build_sequence(cfg)
    report = mean_operation_curve(mseq, cfg.plan, tau=cfg.tau)
    out = _out_dir(cfg.out)
    if cfg.format == "json":
        seqio.write_fairness_json(out / "fairness.json", report)
        print(out / "fairness.json")
    else:
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
    parser.add_argument("--l", help="primitive polynomial degree (default 14)")
    parser.add_argument("--M", help="frequency spot count p^b, a prime power (default 16)")
    if with_family:
        parser.add_argument("--q", help="family size, 1 <= q <= M (default 5)")
    parser.add_argument("--tau", help="prime rotation step between members")
    parser.add_argument("--poly", help="polynomial taps c0,...,cl, lowest degree first")
    parser.add_argument("--out", help="output directory (default .)")
    parser.add_argument("--format", help="ledger/curve format, csv or json (default csv)")
    parser.add_argument("--config", help="JSON config file, overridden by flags")


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
