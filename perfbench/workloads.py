"""Seeded inputs of the three workloads.

Everything here is a pure function of the workload seed (and, for the open
loop, of the run length), so one seed always yields the same schedule. The
programs under test only ever see the generated inputs.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

# --- cli_sweep: the paper's workload (Theorem 5.1 across n, t = n/3).
CLI_NS = (4, 8, 12, 16)
GRID_STEPS = 32  # 33 points per sweep
# The grid spans 400/1024 starting at (307 + offset)/1024, offset in
# [0, 12]: always inside [0.29, 0.71], and every point is a dyadic rational,
# so the double grid ddm_cli computes is exact.
GRID_BASE, GRID_SPAN, GRID_OFFSETS = 307, 400, 13

# --- serve_small: closed loop on pre-warmed compiled plans.
SMALL_N = 8
SMALL_POOL = 256
SMALL_SEQUENCE = 8192
CONNECTIONS = 4

# --- serve_mixed: open loop at a fixed arrival rate, a constant so that
# later commits see the same offered load; at this rate the daemon spends
# about one CPU-second per second (4 CPUs). Arrivals are evenly spaced with a
# seeded jitter inside each gap, and every block of MIXED_BLOCK arrivals
# holds each kind in its exact share (seeded order): Poisson arrivals and
# freely drawn kinds made the p99 swing by 4x between seeds. The shares put
# the median inside the n = 12 requests and the p99 inside the certify
# requests, not on a step between two populations.
MIXED_RATE_PER_S = 80.0
MIXED_BLOCK = 100
MC_TRIALS = 20000
# (kind, share of arrivals, pool size)
MIXED_MIX = (
    ("threshold6", 0.10, 64),
    ("threshold10", 0.15, 64),
    ("threshold12", 0.55, 64),
    ("mc12", 0.10, 64),
    ("analyze5", 0.07, 4),
    ("certify8", 0.03, 16),
)
ANALYZE_TS = (Fraction(5, 3), Fraction(4, 3), Fraction(2), Fraction(5, 2))

# A reply slower than this is a hang.
TIMEOUT_MS = 10000


def t_of(n: int) -> Fraction:
    return Fraction(n, 3)


def t_text(t: Fraction) -> str:
    return f"{t.numerator}/{t.denominator}"


@dataclass
class Sweep:
    """One `ddm_cli sweep n t lo hi steps` invocation and its grid."""

    n: int
    t: Fraction
    lo: Fraction
    hi: Fraction
    steps: int
    betas: list[float] = field(default_factory=list)

    def argv(self) -> list[str]:
        return ["sweep", str(self.n), t_text(self.t), t_text(self.lo), t_text(self.hi), str(self.steps)]


def sweep_grid(lo: Fraction, hi: Fraction, steps: int) -> list[float]:
    """The double grid ddm_cli sweep evaluates (same operations, same order)."""
    lo_d, hi_d = float(lo), float(hi)
    return [min(max(lo_d + (hi_d - lo_d) * k / steps, 0.0), 1.0) for k in range(steps + 1)]


def cli_rounds(seed: int, count: int) -> list[list[Sweep]]:
    """`count` rounds of the four sweeps; each round has its own seeded grid."""
    rng = random.Random(f"cli_sweep/{seed}")
    rounds = []
    for _ in range(count):
        lo = Fraction(GRID_BASE + rng.randrange(GRID_OFFSETS), 1024)
        hi = lo + Fraction(GRID_SPAN, 1024)
        rounds.append(
            [Sweep(n, t_of(n), lo, hi, GRID_STEPS, sweep_grid(lo, hi, GRID_STEPS)) for n in CLI_NS]
        )
    return rounds


@dataclass
class Request:
    """One pool entry: the wire request and what its reply is checked against."""

    kind: str  # threshold | mc | certify | analyze
    n: int
    t: Fraction
    beta: Fraction | None = None
    trials: int = 0
    seed: int = 0

    def line(self) -> str:
        body: dict = {"op": "threshold" if self.kind == "mc" else self.kind, "n": self.n, "t": t_text(self.t)}
        if self.beta is not None:
            body["beta"] = float(self.beta)
        if self.kind == "mc":
            body.update(engine="mc", trials=self.trials, seed=self.seed)
        return json.dumps(body, separators=(",", ":"))

    def instance(self) -> tuple[str, int, Fraction]:
        return self.kind, self.n, self.t


@dataclass
class Schedule:
    mode: str  # closed | open
    connections: int
    pool: list[Request]
    sequence: list[tuple[int, int]]  # (due_ns, pool index)
    cycle: bool = True

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(f"mode {self.mode}\nconnections {self.connections}\ntimeout_ms {TIMEOUT_MS}\n")
            out.write(f"cycle {1 if self.cycle else 0}\n")
            out.write(f"pool {len(self.pool)}\n")
            out.writelines(request.line() + "\n" for request in self.pool)
            out.write(f"sequence {len(self.sequence)}\n")
            out.writelines(f"{due} {index}\n" for due, index in self.sequence)


def _beta(rng: random.Random) -> Fraction:
    """A seeded threshold in [0.05, 0.95] that is exact as a double."""
    return Fraction(rng.randrange(52429, 996148), 1 << 20)


def serve_small(seed: int) -> Schedule:
    rng = random.Random(f"serve_small/{seed}")
    pool = [Request("threshold", SMALL_N, t_of(SMALL_N), _beta(rng)) for _ in range(SMALL_POOL)]
    sequence = [(0, rng.randrange(SMALL_POOL)) for _ in range(SMALL_SEQUENCE)]
    return Schedule("closed", CONNECTIONS, pool, sequence)


def mixed_pool(seed: int) -> tuple[list[Request], dict[str, range]]:
    rng = random.Random(f"serve_mixed/pool/{seed}")
    pool: list[Request] = []
    ranges: dict[str, range] = {}
    for kind, _, size in MIXED_MIX:
        start = len(pool)
        for i in range(size):
            if kind.startswith("threshold"):
                n = int(kind[len("threshold"):])
                pool.append(Request("threshold", n, t_of(n), _beta(rng)))
            elif kind == "mc12":
                pool.append(Request("mc", 12, t_of(12), _beta(rng), MC_TRIALS, rng.randrange(1 << 32)))
            elif kind == "analyze5":
                pool.append(Request("analyze", 5, ANALYZE_TS[i % len(ANALYZE_TS)]))
            else:
                pool.append(Request("certify", 8, t_of(8), _beta(rng)))
        ranges[kind] = range(start, len(pool))
    return pool, ranges


def serve_mixed(seed: int, seconds: float) -> Schedule:
    """Arrivals at MIXED_RATE_PER_S for `seconds`, kinds in stratified blocks."""
    pool, ranges = mixed_pool(seed)
    rng = random.Random(f"serve_mixed/arrivals/{seed}")
    block = [kind for kind, share, _ in MIXED_MIX for _ in range(round(share * MIXED_BLOCK))]
    sequence = []
    order: list[str] = []
    for i in itertools.count():
        due = (i + rng.random()) / MIXED_RATE_PER_S
        if due > seconds:
            break
        if not order:
            order = rng.sample(block, len(block))
        sequence.append((int(due * 1e9), rng.choice(ranges[order.pop()])))
    return Schedule("open", CONNECTIONS, pool, sequence)


def warmup(schedule: Schedule) -> Schedule:
    """One request per distinct (op, n, t), sent back to back on one
    connection: lowers every plan the run will use before timing starts."""
    seen: dict[tuple, int] = {}
    for index, request in enumerate(schedule.pool):
        seen.setdefault(request.instance(), index)
    return Schedule("open", 1, schedule.pool, [(0, index) for index in seen.values()], cycle=False)
