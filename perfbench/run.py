#!/usr/bin/env python3
"""End-to-end benchmark of ddm_cli sweep and ddm_serve.

    python3 perfbench/run.py --workload <cli_sweep|serve_small|serve_mixed>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds a
Release tree of the repository's own library, ddm_cli, ddm_serve and the
benchmark's helpers into .bench_build/ (see CMakeLists.txt here); later runs
rebuild incrementally. Inputs come from --seed only. Every answer is checked
against exact rational references computed at set-up (oracle.py). The last
line of stdout is the result:

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}

With --trace 0 the metrics are the end-to-end ones, measured with tracing
off; with --trace 1 they are the per-layer ones from an in-process traced
replay (perfbench_replay) plus a short daemon run. The line before it is a
record with provenance, sample counts and the daemon's /metrics deltas.
README.md in this directory explains every workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import select
import signal
import socket
import struct
import subprocess
import sys
import time
from collections import Counter, namedtuple
from fractions import Fraction
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing in the checkout but .bench_build/

import oracle  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("cli_sweep", "serve_small", "serve_mixed")
TARGETS = ("ddm_cli", "ddm_serve", "perfbench_load", "perfbench_replay")
# ddm_serve counters whose deltas every serve run reports.
SERVE_COUNTERS = (
    "serve_requests",
    "serve_coalesced_batches",
    "serve_batch_points",
    "serve_shed",
    "engine_selects",
    "engine_fallbacks",
    "engine_cache_hits",
    "engine_cache_misses",
)
# Environment knobs that would change what the programs under test do; the
# daemon runs its defaults (2 workers, no policy table, no plan store).
SCRUBBED_ENV = ("DDM_PLAN_STORE", "DDM_POLICY", "DDM_FAULT_PLAN", "DDM_SIMD")
# Set-up samples per run: ddm_cli start-ups (a few ms each) and ddm_serve
# launches (~0.2 s each, pre-warm included).
CLI_SETUP_REPEATS = 15
SERVE_SETUP_REPEATS = 11
# A deterministic answer further than this from exact is wrong outright (a
# failed operation); between the request tolerance and this it is a
# tolerance miss, which lowers success_rate only.
GROSS_ERROR = 1e-6

Record = namedtuple("Record", "pool_index status due_ns sent_ns done_ns value aux")
RECORD = struct.Struct("<iiqqqdd")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure, bad build)."""


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def metric_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read BENCHMARK.json: {error}") from error
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]})


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)


def program_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV and not k.startswith("DDM_SERVE_")}


def build() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (ROOT / "tools" / "CMakeLists.txt").is_file():
        raise BenchError(f"no ddm sources under {ROOT} (src/, tools/)")
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    with open(logfile, "a", encoding="utf-8") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            step = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"cmake configure failed (see {logfile})")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        step = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", *TARGETS]
        if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
            raise BenchError(f"build failed (see {logfile})")


def binary(name: str) -> str:
    sub = "ddm_tools" if name.startswith("ddm_") else ""
    return str(BUILD / sub / name)


def source_digest() -> str:
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    try:
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return result.stdout.strip() if result.returncode == 0 else "none"


def provenance() -> dict:
    result = subprocess.run(
        [binary("perfbench_replay"), "--provenance"], capture_output=True, text=True, env=program_env()
    )
    if result.returncode != 0:
        raise BenchError(f"perfbench_replay --provenance failed: {result.stderr.strip()}")
    library = json.loads(result.stdout)
    if library["build_type"] != "release":
        raise BenchError(f"refusing to measure a {library['build_type']} library build")
    config = subprocess.run(
        [binary("ddm_serve"), "--check-config"], capture_output=True, text=True, env=program_env()
    )
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "DDM_THREADS": os.environ.get("DDM_THREADS", "unset"),
        "library_build_type": library["build_type"],
        "simd_width": library["simd_width"],
        "eval_threads": library["threads"],
        "daemon_config": config.stdout.strip(),
    }


# ---------------------------------------------------------------- processes


def run_timed(argv: list[str]) -> tuple[float, int, str, resource.struct_rusage]:
    """Runs one child to completion: (wall s, exit code, stdout, its rusage)."""
    with open(BUILD / "child.err", "ab") as err:
        started = time.perf_counter()
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=program_env())
        with child.stdout:
            out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped: keep Popen from waiting again
    return wall, child.returncode, out.decode(), usage


class Daemon:
    """One ddm_serve process, started with its default configuration."""

    def __init__(self) -> None:
        self.stderr = open(BUILD / "ddm_serve.err", "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary("ddm_serve")], stdout=subprocess.PIPE, stderr=self.stderr, env=program_env()
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 120)
        line = self.proc.stdout.readline().decode() if ready else ""
        self.setup_s = time.perf_counter() - started
        match = re.match(r"listening on 127\.0\.0\.1:(\d+)", line)
        if not match:
            self.stop()
            raise BenchError(f"ddm_serve did not become ready (read {line!r})")
        self.port = int(match.group(1))

    def scrape(self) -> dict[str, float]:
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as conn:
            conn.sendall(b"GET /metrics HTTP/1.1\r\n\r\n")
            chunks = []
            while chunk := conn.recv(65536):
                chunks.append(chunk)
        text = b"".join(chunks).decode()
        values = {}
        for line in text.split("\r\n\r\n", 1)[-1].splitlines():
            parts = line.split()
            if len(parts) == 2 and not line.startswith("#"):
                values[parts[0]] = float(parts[1])
        return values

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for ddm_serve")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


def run_load(daemon: Daemon, schedule: workloads.Schedule, seconds: float, tag: str) -> tuple[LoadRecords, float]:
    """Drives the daemon with perfbench_load; returns its records and elapsed s.
    The records are read lazily (a closed-loop run can hold a million)."""
    sched_path = BUILD / f"{tag}.schedule"
    out_path = BUILD / f"{tag}.records"
    schedule.write(str(sched_path))
    result = subprocess.run(
        [binary("perfbench_load"), str(daemon.port), str(sched_path), str(out_path), f"{seconds}"],
        capture_output=True,
        text=True,
        timeout=seconds + 150,
    )
    if result.returncode != 0:
        raise BenchError(f"perfbench_load failed: {result.stderr.strip()}")
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    return LoadRecords(out_path, summary["sent"]), summary["elapsed_s"]


class LoadRecords:
    """The records file perfbench_load wrote, iterated without loading it whole."""

    def __init__(self, path: Path, count: int) -> None:
        self.path = path
        self.count = count

    def __len__(self) -> int:
        return self.count

    def columns(self):
        """Per chunk of records: the Record fields as parallel lists (NaN
        `aux` as None, so equal replies compare equal)."""
        with open(self.path, "rb") as data:
            while chunk := data.read(RECORD.size * 65536):
                ints, int64s, doubles = (memoryview(chunk).cast(code) for code in "iqd")
                aux = [None if math.isnan(a) else a for a in doubles[5::6].tolist()]
                yield Record(
                    ints[0::12].tolist(), ints[1::12].tolist(), int64s[1::6].tolist(),
                    int64s[2::6].tolist(), int64s[3::6].tolist(), doubles[4::6].tolist(), aux,
                )


# ---------------------------------------------------------------- checks


class Tally:
    """Per-operation outcome counts of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.good = 0  # answered within the request tolerance
        self.tol_misses = 0  # answered, off by more than the tolerance
        self.failed = 0  # error reply, hang, protocol error, crash, gross error
        self.examples: list[str] = []

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.examples) < 5:
            self.examples.append(why)

    def book(self, verdict: str, count: int = 1) -> None:
        """Counts `count` answers graded `verdict` (see grade_reply)."""
        if verdict == "good":
            self.good += count
        elif verdict == "miss":
            self.tol_misses += count
        else:
            self.fail(verdict, count)

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "within_tolerance": self.good,
            "tolerance_misses": self.tol_misses,
            "failed": self.failed,
            "failure_examples": self.examples,
        }


def pool_references(pool: list[workloads.Request]) -> list:
    """Exact reference per pool entry, computed once at set-up."""
    refs = []
    for request in pool:
        if request.kind == "analyze":
            refs.append(oracle.optimum(request.n, request.t))
        else:
            refs.append(oracle.win_probability(request.n, request.t, request.beta))
    return refs


Graded = namedtuple("Graded", "latencies late second")


def grade_records(tally: Tally, records: LoadRecords, pool, refs, open_loop: bool = False) -> Graded:
    """Grades every reply. Returns per request its latency in ms, how late
    it was sent in ms (open loop only) and the second of the run in which
    its reply came. Identical replies to one pool entry are graded once."""
    graded = Graded([], [], [])
    outcomes: Counter = Counter()
    for col in records.columns():
        outcomes.update(zip(col.pool_index, col.status, col.value, col.aux))
        graded.latencies.extend(stats.latencies_ms(col.status, col.due_ns, col.sent_ns, col.done_ns, open_loop))
        graded.second.extend(done // 1_000_000_000 for done in col.done_ns)
        if open_loop:
            graded.late.extend((sent - due) / 1e6 for due, sent in zip(col.due_ns, col.sent_ns))
    for (index, status, value, aux), count in outcomes.items():
        tally.attempted += count
        if status != 0:
            kind = {1: "error reply", 2: "no reply (hang)", 3: "malformed reply"}[status]
            tally.fail(f"{pool[index].line()}: {kind}", count)
            continue
        aux = math.nan if aux is None else aux
        tally.book(grade_reply(pool[index], refs[index], Record(index, status, 0, 0, 0, value, aux)), count)
    return graded


def grade_value(value: float, exact: Fraction, what: str) -> str:
    """'good' within the default tolerance, 'miss' within GROSS_ERROR, else
    the failure described."""
    if oracle.check_value(value, exact, oracle.DEFAULT_TOL):
        return "good"
    if oracle.check_value(value, exact, GROSS_ERROR):
        return "miss"
    return f"{what}: {value!r} vs exact {float(exact)!r}"


def grade_reply(request: workloads.Request, ref, record: Record) -> str:
    """Verdict on one reply: 'good', 'miss' or a failure description."""
    value, aux = record.value, record.aux
    if request.kind == "analyze":
        beta_star, best = ref
        ok = oracle.check_value(aux, beta_star, oracle.DEFAULT_TOL) and oracle.check_value(
            value, best, oracle.DEFAULT_TOL
        )
        return "good" if ok else f"{request.line()}: beta*={aux!r} P*={value!r} vs {float(beta_star)!r}"
    if request.kind == "mc":
        ok = oracle.check_mc(value, ref, request.trials)
        return "good" if ok else f"{request.line()}: mc {value!r} vs exact {float(ref)!r}"
    if request.kind == "certify":
        ok = oracle.check_enclosure(value, aux, ref)
        return "good" if ok else f"{request.line()}: enclosure {value!r}±{aux!r}/2 misses {float(ref)!r}"
    return grade_value(value, ref, request.line())


def metric_deltas(before: dict, after: dict) -> dict:
    return {name: after.get(name, 0.0) - before.get(name, 0.0) for name in SERVE_COUNTERS}


# ---------------------------------------------------------------- workloads


def cli_startup_s() -> list[float]:
    """Wall times of a one-point n = 1 sweep: the fixed cost of one ddm_cli run."""
    samples = []
    for _ in range(CLI_SETUP_REPEATS):
        wall, code, _, _ = run_timed([binary("ddm_cli"), "sweep", "1", "1/3", "1/2", "1/2", "1"])
        if code != 0:
            raise BenchError("ddm_cli start-up probe failed")
        samples.append(wall)
    return samples


def run_sweep(sweep: workloads.Sweep, refs: list[Fraction], tally: Tally, chosen: dict) -> tuple[float, resource.struct_rusage]:
    wall, code, out, usage = run_timed([binary("ddm_cli"), *sweep.argv()])
    points = len(sweep.betas)
    tally.attempted += points
    if code != 0:
        tally.fail(f"ddm_cli {' '.join(sweep.argv())}: exit {code}", points)
        return wall, usage
    try:
        rows = json.loads(out)
    except json.JSONDecodeError:
        rows = []
    if len(rows) != points:
        tally.fail(f"ddm_cli {' '.join(sweep.argv())}: {len(rows)} rows, expected {points}", points)
        return wall, usage
    for row, beta, exact in zip(rows, sweep.betas, refs):
        if row.get("beta") != beta:
            tally.fail(f"sweep n={sweep.n}: row beta {row.get('beta')!r}, expected {beta!r}")
            continue
        engine = row.get("engine", "?")
        chosen[engine] = chosen.get(engine, 0) + 1
        tally.book(grade_value(float(row["p_win"]), exact, f"sweep n={sweep.n} beta={beta!r}"))
    return wall, usage


def sweep_references(sweeps: list[workloads.Sweep], cache: dict) -> list[list[Fraction]]:
    refs = []
    for sweep in sweeps:
        key = (sweep.n, sweep.lo)
        if key not in cache:
            cache[key] = [oracle.win_probability(sweep.n, sweep.t, Fraction(b)) for b in sweep.betas]
        refs.append(cache[key])
    return refs


def measure_cli_sweep(seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    # A round takes ~3-5 s. References for every round a run can start are
    # computed before the timed window (grids repeat, so they are cached).
    rounds = workloads.cli_rounds(seed, int(seconds // 2.5) + 2)
    cache: dict = {}
    refs = [sweep_references(sweeps, cache) for sweeps in rounds]
    setup = cli_startup_s()
    tally = Tally()
    chosen: dict[str, int] = {}
    round_walls, round_rates, round_cpu_ms, peak_kb = [], [], [], 0
    per_n: dict[int, list[float]] = {n: [] for n in workloads.CLI_NS}
    started = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - started < seconds:
        good_before, points_before = tally.good, tally.attempted
        round_wall = round_cpu = 0.0
        for sweep, sweep_refs in zip(rounds[index % len(rounds)], refs[index % len(rounds)]):
            wall, usage = run_sweep(sweep, sweep_refs, tally, chosen)
            round_wall += wall
            round_cpu += usage.ru_utime + usage.ru_stime
            per_n[sweep.n].append(wall)
            peak_kb = max(peak_kb, usage.ru_maxrss)
        round_walls.append(round_wall)
        round_rates.append((tally.good - good_before) / round_wall)
        round_cpu_ms.append(round_cpu * 1e3 / (tally.attempted - points_before))
        index += 1
    q, tail = stats.tail(round_walls)
    metrics = {
        "setup_s": median(setup),
        "ops_per_s": median(round_rates),
        "p50_ms": median(round_walls) * 1e3,
        "tail_ms": tail * 1e3,
        "success_rate": tally.good / tally.attempted,
        "peak_rss_mb": peak_kb / 1024.0,
        "cpu_ms_per_op": median(round_cpu_ms),
    }
    record = {
        "round": "ddm_cli sweep n n/3 lo hi 32 for n = 4, 8, 12, 16, one after another",
        "rounds": len(round_walls),
        "round_wall_s": round_walls,
        "sweep_wall_s_median": median(round_walls),
        "sweep_s_by_n": {f"n{n}": median(v) for n, v in per_n.items()},
        "tail_percentile": q,
        "setup_samples": len(setup),
        "engine_rows": chosen,
    }
    return metrics, tally, record


def serve_schedule(name: str, seed: int, seconds: float) -> workloads.Schedule:
    return workloads.serve_small(seed) if name == "serve_small" else workloads.serve_mixed(seed, seconds)


def warm_up(daemon: Daemon, schedule: workloads.Schedule, refs, tag: str) -> None:
    """Untimed: one request per instance (lowers every plan), then the first
    two seconds of the schedule itself. Without the second pass the first
    second of an open-loop run queued for up to 0.5 s on some seeds."""
    check = Tally()
    records, _ = run_load(daemon, workloads.warmup(schedule), 60, f"{tag}.warmup")
    grade_records(check, records, schedule.pool, refs)
    if check.failed:
        raise BenchError(f"{tag}: warm-up failed: {check.examples}")
    run_load(daemon, schedule, 2.0, f"{tag}.warm")


def drive(daemon: Daemon, schedule: workloads.Schedule, seconds: float, tag: str):
    """The measured load: (records, elapsed s, /metrics deltas, daemon CPU s)."""
    before = daemon.scrape()
    cpu_before = daemon.cpu_s()
    records, elapsed = run_load(daemon, schedule, seconds, tag)
    cpu = daemon.cpu_s() - cpu_before
    deltas = metric_deltas(before, daemon.scrape())
    return records, elapsed, deltas, cpu


def measure_serve(name: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    schedule = serve_schedule(name, seed, seconds)
    refs = pool_references(schedule.pool)
    launches = []
    for _ in range(SERVE_SETUP_REPEATS - 1):
        daemon = Daemon()
        launches.append(daemon.setup_s)
        daemon.stop()
    daemon = Daemon()
    launches.append(daemon.setup_s)
    try:
        warm_up(daemon, schedule, refs, name)
        records, elapsed, deltas, cpu = drive(daemon, schedule, seconds, name)
        peak = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    tally = Tally()
    open_loop = schedule.mode == "open"
    graded = grade_records(tally, records, schedule.pool, refs, open_loop)
    if deltas["serve_requests"] != len(records):
        tally.fail(f"daemon counted {deltas['serve_requests']:.0f} requests, client sent {len(records)}")
    good_share = tally.good / tally.attempted
    # Medians over one-second windows, which a passing stall of the machine
    # cannot move. The open loop's p99 pools the whole run: a window holds too
    # few requests to have ten beyond its p99.
    windows = int(elapsed)
    split = stats.by_window(graded.latencies, graded.second, windows)
    p50 = median([median(w) for w in split])
    if open_loop:
        q, tail = stats.tail(graded.latencies)
        rate = tally.good / elapsed
    else:
        tails = [stats.tail(w) for w in split]
        q = min(t[0] for t in tails)
        tail = median([t[1] for t in tails])
        rate = median([len(w) for w in split]) * good_share
    metrics = {
        "setup_s": median(launches),
        "ops_per_s": rate,
        "p50_ms": p50,
        "tail_ms": tail,
        "success_rate": good_share,
        "peak_rss_mb": peak,
        "cpu_ms_per_op": cpu * 1e3 / len(records),
    }
    record = {
        "loop": "open" if open_loop else "closed",
        "connections": schedule.connections,
        "offered_rate_per_s": workloads.MIXED_RATE_PER_S if open_loop else None,
        "requests": len(records),
        "elapsed_s": elapsed,
        "latency_samples": len(graded.latencies),
        "windows": windows,
        "tail_percentile": q,
        "setup_samples": len(launches),
        "generator_late_p99_ms": stats.percentile(graded.late, 99) if graded.late else 0.0,
        "metrics_delta": deltas,
    }
    return metrics, tally, record


# ---------------------------------------------------------------- traced run


def replay_ops(name: str, seed: int, seconds: float) -> tuple[list[str], list[str]]:
    """The ops file for perfbench_replay, and the request lines it contains.

    Besides the workload's own operations it holds probes, so every layer
    reports on every workload's instances: lowering of each distinct
    instance, the batch kernel on the largest one, compiled eval_grid on the
    smallest one, and Monte Carlo on the largest one."""
    fmt = lambda values: " ".join(repr(v) for v in values)  # noqa: E731
    text = workloads.t_text
    if name == "cli_sweep":
        sweeps = workloads.cli_rounds(seed, 1)[0]
        ops = [f"sweep {s.n} {text(s.t)} {fmt(s.betas)}" for s in sweeps]
        small, compiled, big = sweeps[0], sweeps[1], sweeps[-1]
        # The net layer has no traffic of its own here: serve the smallest
        # sweep's grid as threshold requests.
        requests = [workloads.Request("threshold", small.n, small.t, Fraction(b)).line() for b in small.betas]
        ops += [f"netprobe {line}" for line in requests]
        probes = [
            f"batch {big.n} {text(big.t)} {fmt(big.betas)}",
            f"grid {compiled.n} {text(compiled.t)} {fmt(compiled.betas)}",
            f"mc {big.n} {text(big.t)} {workloads.MC_TRIALS} {fmt(big.betas[:4])}",
        ]
    else:
        schedule = serve_schedule(name, seed, seconds)
        requests = [schedule.pool[i].line() for _, i in schedule.sequence[: 512 if name == "serve_small" else 300]]
        ops = [f"request {line}" for line in requests]
        thresholds = [r for r in schedule.pool if r.kind == "threshold"]
        instances = sorted({(r.n, r.t) for r in thresholds})
        betas = lambda n, count: fmt([float(r.beta) for r in thresholds if r.n == n][:count])  # noqa: E731
        (n_small, t_small), (n_big, t_big) = instances[0], instances[-1]
        probes = [f"lower {n} {text(t)}" for n, t in instances] + [
            f"batch {n_big} {text(t_big)} {betas(n_big, 16)}",
            f"grid {n_small} {text(t_small)} {betas(n_small, 256)}",
            f"mc {n_big} {text(t_big)} {workloads.MC_TRIALS} {betas(n_big, 4)}",
        ]
    return ops + probes, requests


def probe_n(ops: list[str]) -> int:
    return int(next(op for op in ops if op.startswith("batch ")).split()[1])


def measure_trace(name: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    tally = Tally()
    ops, requests = replay_ops(name, seed, seconds)
    ops_path = BUILD / f"{name}.ops"
    ops_path.write_text("\n".join(ops) + "\n")
    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    trace_path = traces / f"{name}-seed{seed}.json"
    result = subprocess.run(
        [binary("perfbench_replay"), str(ops_path), str(trace_path)],
        capture_output=True,
        text=True,
        env=program_env(),
        timeout=170,
    )
    tally.attempted += len(ops)
    if result.returncode != 0:
        tally.fail(f"perfbench_replay: {result.stderr.strip()}")
        replay = {"metrics": {}, "handle_line_us": []}
    else:
        replay = json.loads(result.stdout.strip().splitlines()[-1])
        tally.good += len(ops)
    metrics = {metric: 0.0 for metric in metric_units()[1]}
    metrics.update(replay["metrics"])
    handle_line = replay.pop("handle_line_us", [])
    metrics["cli.startup_ms"] = median(cli_startup_s()) * 1e3
    metrics["core.batch_subsets_per_point"] = float(3 ** probe_n(ops))
    record: dict = {"trace_file": str(trace_path.relative_to(ROOT)), "replay": replay}

    if name == "cli_sweep":
        sweeps = workloads.cli_rounds(seed, 1)[0]
        refs = sweep_references(sweeps, {})
        walls = [run_sweep(s, r, tally, {})[0] for s, r in zip(sweeps, refs)]
        metrics["cli.sweep_s"] = sum(walls)
        record["sweep_s_by_n"] = {f"n{s.n}": w for s, w in zip(sweeps, walls)}
        return metrics, tally, record

    # A short daemon run: transport cost, coalescing, shedding, generator lag.
    short = min(seconds, 5.0)
    schedule = serve_schedule(name, seed, short)
    refs = pool_references(schedule.pool)
    index: dict[str, int] = {}
    for line in requests:
        index.setdefault(line, len(index))
    rtt_probe = workloads.Schedule(
        "closed", 1, [_RawRequest(line) for line in index], [(0, index[line]) for line in requests], cycle=False
    )
    daemon = Daemon()
    try:
        warm_up(daemon, schedule, refs, name)
        # The replayed request lines again, one at a time over the socket.
        rtt_records, _ = run_load(daemon, rtt_probe, 120, f"{name}.rtt")
        rtt = [
            (done - sent) / 1e3 if status == 0 else math.inf
            for col in rtt_records.columns()
            for status, sent, done in zip(col.status, col.sent_ns, col.done_ns)
        ]
        records, _, deltas, _ = drive(daemon, schedule, short, f"{name}.traced")
    finally:
        daemon.stop()
    late = grade_records(tally, records, schedule.pool, refs, schedule.mode == "open").late
    if len(handle_line) == len(rtt):
        # Per request: the socket round trip minus the same line served in-process.
        metrics["net.transport_us"] = median([r - h for r, h in zip(rtt, handle_line)])
    metrics["serve.coalesce_ratio"] = deltas["serve_batch_points"] / max(1.0, deltas["serve_requests"])
    metrics["serve.shed"] = deltas["serve_shed"]
    metrics["loadgen.late_p99_ms"] = stats.percentile(late, 99) if late else 0.0
    record.update(metrics_delta=deltas, rtt_samples=len(rtt))
    return metrics, tally, record


class _RawRequest:
    """A pool entry given as a ready request line (the round-trip probe)."""

    def __init__(self, text: str) -> None:
        self.text = text

    def line(self) -> str:
        return self.text


# ---------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    # A terminated run still stops the daemon it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        end_to_end, per_layer = metric_units()
        build()
        stamp = provenance()
        steal_before = cpu_ticks()
        if args.trace:
            metrics, tally, record = measure_trace(args.workload, args.seed, args.seconds)
            units = per_layer
        elif args.workload == "cli_sweep":
            metrics, tally, record = measure_cli_sweep(args.seed, args.seconds)
            units = end_to_end
        else:
            metrics, tally, record = measure_serve(args.workload, args.seed, args.seconds)
            units = end_to_end
        steal_after = cpu_ticks()
    except (BenchError, OSError, subprocess.SubprocessError) as error:
        log(f"error: {error}")
        return 2

    correct = tally.failed == 0 and all(math.isfinite(metrics[name]) for name in units)
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        provenance=stamp,
        # Share of the machine's CPU time taken by the host during the run:
        # a high value marks figures measured under outside contention.
        host_steal_share=(steal_after[0] - steal_before[0]) / max(1, steal_after[1] - steal_before[1]),
        tally=tally.as_dict(),
        error_rate=(tally.failed + tally.tol_misses) / max(1, tally.attempted),
    )
    print(json.dumps({"record": record}))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
