"""Spans around hopset's public functions, installed from outside the package.

A Tracer replaces each target function with a wrapper at every name it is
looked up through (module globals of every loaded hopset module, or the
class attribute for methods), so calls made inside the package are seen
too. Spans (name, start, end, parent, round) stay in memory until the
worker writes them at exit; counters are taken after each round, outside
every span. `round_metrics` turns each traced round's spans and counters
into the per-layer metrics, using self time: a span's duration minus its
children's.
"""

import functools
import os
import statistics
import sys
import time

import numpy as np


def _symbols(args, result):
    return {"lfsr.symbols": len(result.symbols)}


def _balance(args, result):
    matrix = np.sort(args[0].as_matrix(), axis=0)
    ops = np.asarray(result[1].op_count)
    return {
        "balancer.collided_cols": int((matrix[1:] == matrix[:-1]).any(axis=0).sum()),
        "balancer.moved_entries": int(ops.sum()),
        "balancer.op_spread": int(ops.max() - ops.min()),
    }


def _profiles(args, result):
    return {"correlation.pairs": len(result),
            "correlation.pair_delays": sum(len(p.values) for p in result)}


def _read(args, result):
    return {"seqio.bytes_read": os.path.getsize(args[0])}


def _written(args, result):
    return {"seqio.bytes_written": os.path.getsize(args[0])}


def _simulate(args, result):
    q, hops = args[0].sset.q, args[0].hops
    return {"sim.slots": q * hops, "sim.pair_slots": q * (q - 1) // 2 * hops}


# a round that balances several families reports the widest spread among them
WIDEST = {"balancer.op_spread"}

# (module, attribute, counter); the span is named "<layer>.<attribute>"
TARGETS = (
    ("hopset.cli", "main", None),
    ("hopset.lfsr", "generate_m_sequence", _symbols),
    ("hopset.lfsr", "validate_primitive_polynomial", None),
    ("hopset.mapping", "build_base_set", None),
    ("hopset.mapping", "set_from_matrix", None),
    ("hopset.mapping", "SequenceSet.as_matrix", None),
    ("hopset.balancer", "cfb_balance", _balance),
    ("hopset.correlation", "pairwise_profiles", _profiles),
    ("hopset.correlation", "analyze_set", None),
    ("hopset.seqio", "read_sequence_set", _read),
    ("hopset.seqio", "write_sequence_set", _written),
    ("hopset.seqio", "write_profile_csv", _written),
    ("hopset.seqio", "write_histograms_csv", _written),
    ("hopset.seqio", "write_analysis_report", _written),
    ("hopset.seqio", "write_ledger_csv", _written),
    ("hopset.seqio", "write_usage_csv", _written),
    ("hopset.sim", "simulate", _simulate),
)


class Tracer:
    """Installs the wrappers for one round at a time and keeps what they record."""

    def __init__(self):
        self.spans = []
        self.counters = []
        self._stack = []
        self._patches = []
        self._pending = []
        self._round = None

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, tracer._round]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span[2] = time.perf_counter()
            if counter is not None:
                tracer._pending.append((counter, args, result))
            return result

        return traced

    def install(self, round_index):
        """Wrap every target found; targets a version of hopset lacks are skipped."""
        self._round = round_index
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "hopset" or k.startswith("hopset."))]
        for modname, attr, counter in TARGETS:
            module = sys.modules.get(modname)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(fn_name) if owner is not None else None
            if not callable(original):
                continue
            wrapped = self._wrap(f"{modname.split('.')[-1]}.{fn_name}", original, counter)
            owners = [owner] if owner_name else modules
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, value))
                        setattr(target, key, wrapped)

    def uninstall(self):
        """Restore every original, then take the round's counters."""
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches.clear()
        totals = {}
        for counter, args, result in self._pending:
            for key, value in counter(args, result).items():
                merge = max if key in WIDEST else sum
                totals[key] = merge((totals.get(key, 0), value))
        self._pending.clear()
        self.counters.append(totals)


# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "cli.self_s": "cli.main",
    "lfsr.generate_s": "lfsr.generate_m_sequence",
    "lfsr.validate_s": "lfsr.validate_primitive_polynomial",
    "mapping.build_base_s": "mapping.build_base_set",
    "mapping.set_from_matrix_s": "mapping.set_from_matrix",
    "mapping.as_matrix_s": "mapping.as_matrix",
    "balancer.balance_s": "balancer.cfb_balance",
    "correlation.profiles_s": "correlation.pairwise_profiles",
    "correlation.analyze_s": "correlation.analyze_set",
    "seqio.write_set_s": "seqio.write_sequence_set",
    "seqio.write_profiles_s": "seqio.write_profile_csv",
    "seqio.read_s": "seqio.read_sequence_set",
    "sim.simulate_s": "sim.simulate",
}
CALL_COUNTS = {
    "mapping.build_calls": "mapping.build_base_set",
    "mapping.as_matrix_calls": "mapping.as_matrix",
    "balancer.calls": "balancer.cfb_balance",
}
COUNTS = ("lfsr.symbols", "balancer.collided_cols", "balancer.moved_entries",
          "balancer.op_spread", "correlation.pairs", "correlation.pair_delays",
          "seqio.bytes_written", "seqio.bytes_read", "sim.slots")


def unit(metric):
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_MBps"):
        return "MB/s"
    if ".bytes_" in metric:
        return "B"
    return "s" if metric.endswith("_s") else "count"


def _rate(numerator, seconds):
    return numerator / seconds if seconds > 0 else 0.0


def layer_metrics(own, calls, counters):
    """Per-layer metrics of one round from its self times, call counts and counters."""
    out = {metric: own.get(span, 0.0) for metric, span in SELF_TIMES.items()}
    out.update({metric: calls.get(span, 0) for metric, span in CALL_COUNTS.items()})
    out.update({key: counters.get(key, 0) for key in COUNTS})
    write_s = sum(t for name, t in own.items() if name.startswith("seqio.write_"))
    out["balancer.moved_per_s"] = _rate(out["balancer.moved_entries"], out["balancer.balance_s"])
    out["correlation.values_per_s"] = _rate(out["correlation.pair_delays"],
                                            out["correlation.profiles_s"])
    out["seqio.read_MBps"] = _rate(out["seqio.bytes_read"] / 1e6, out["seqio.read_s"])
    out["seqio.write_MBps"] = _rate(out["seqio.bytes_written"] / 1e6, write_s)
    out["sim.pair_slots_per_s"] = _rate(counters.get("sim.pair_slots", 0), out["sim.simulate_s"])
    return out


def round_metrics(spans, counters):
    """Per-layer metrics of each traced round, in round order.

    A span's self time is its duration minus the durations of the spans it
    directly caused; the calls are sequential, so children never overlap.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    own, calls = {}, {}
    for (name, start, end, _, rnd), inner in zip(spans, child):
        own.setdefault(rnd, {})
        own[rnd][name] = own[rnd].get(name, 0.0) + (end - start) - inner
        calls.setdefault(rnd, {})
        calls[rnd][name] = calls[rnd].get(name, 0) + 1
    return [layer_metrics(own[r], calls[r], c) for r, c in zip(sorted(own), counters)]


def median_metrics(rounds):
    """Median of each metric over the traced rounds."""
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
