"""The benchmark's workloads: CLI inputs made from a seed, sizes and work counts.

The seed picks two inputs the program sees only as CLI flags: the LFSR
polynomial (the built-in GF(2) table entry for degree l or its reciprocal,
both primitive) and tau (one of the first few primes >= floor(n/q)).
"""

import random
from dataclasses import dataclass, field

# Exponents of hopset's built-in GF(2) primitive polynomials for the degrees
# used here; x^l * f(1/x) of a primitive f is primitive too.
TABLE_EXPONENTS = {8: (0, 2, 3, 4, 8), 12: (0, 1, 4, 6, 12), 16: (0, 1, 3, 12, 16)}
TAU_CHOICES = 3
P = 2

# name -> (command, full size, smoke size); sizes are (l, M, q). A full-size
# round takes one to two seconds, so that a run's median is taken over fifteen
# rounds or more and a few seconds' slow spell of a shared host does not move it.
SPECS = {
    "generate-l16": ("generate", (16, 64, 64), (8, 16, 16)),
    "analyze-l12": ("analyze", (12, 16, 16), (8, 16, 8)),
    "simulate-l16": ("simulate", (16, 64, 64), (8, 16, 16)),
}


def is_prime(k):
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


def primes_from(k, count):
    out = []
    while len(out) < count:
        if is_prime(k):
            out.append(k)
        k += 1
    return out


def poly_taps(l, reciprocal):
    exps = TABLE_EXPONENTS[l]
    if reciprocal:
        exps = tuple(l - e for e in exps)
    return tuple(1 if i in exps else 0 for i in range(l + 1))


@dataclass
class Plan:
    """One run's inputs: the CLI calls of a round and the sizes behind them.

    `calls` are argv lists for hopset.cli.main; "{out}" stands for the
    round's output directory and "{inputs}" for the prepared input files.
    """

    workload: str
    command: str
    seed: int
    l: int
    M: int
    q: int
    taps: tuple
    tau: int
    calls: list
    prep: list = field(default_factory=list)
    scenarios: dict = field(default_factory=dict)
    hops: int = 0

    @property
    def b(self):
        return self.M.bit_length() - 1

    @property
    def n(self):
        return P**self.l - 1

    @property
    def L(self):
        return self.n // self.b

    @property
    def poly(self):
        return ",".join(str(c) for c in self.taps)

    @property
    def work(self):
        """Entries a round processes: the numerator of entries_per_s."""
        if self.command == "generate":
            return self.q * self.L
        if self.command == "analyze":
            return 2 * (self.q * (self.q + 1) // 2) * self.L
        return 2 * self.q * self.hops

    def sizes(self):
        return {"p": P, "l": self.l, "M": self.M, "q": self.q, "n": self.n,
                "L": self.L, "hops": self.hops, "tau": self.tau, "poly": self.poly}


def make_plan(workload, seed, smoke=False):
    command, full, small = SPECS[workload]
    l, M, q = small if smoke else full
    rng = random.Random(f"{workload}:{seed}")
    taps = poly_taps(l, rng.random() < 0.5)
    n = P**l - 1
    tau = rng.choice(primes_from(n // q, TAU_CHOICES))
    family = ["--l", str(l), "--M", str(M), "--poly", ",".join(map(str, taps)),
              "--tau", str(tau)]
    plan = Plan(workload, command, seed, l, M, q, taps, tau, calls=[])
    if command == "generate":
        plan.calls = [["generate", *family, "--q", str(q), "--out", "{out}"]]
    else:
        plan.prep = [["generate", *family, "--q", str(q), "--out", "{inputs}"]]
        if command == "analyze":
            plan.calls = [["analyze", "{inputs}/balanced.txt", "{inputs}/base.txt",
                           "--out", "{out}"]]
        else:
            # a horizon of a few periods that ends mid-period, so the wrap shows
            plan.hops = 2 * plan.L + plan.L // 2
            plan.scenarios = {
                kind: {"hops": plan.hops, "sequences": f"{kind}.txt"}
                for kind in ("base", "balanced")
            }
            plan.calls = [["simulate", f"{{inputs}}/{kind}.json"] for kind in plan.scenarios]
    return plan
