"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The load-generator test runs only when .bench_build/perfbench_load exists
(any benchmark run builds it).
"""

from __future__ import annotations

import math
import socket
import subprocess
import sys
import tempfile
import threading
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        for make in (workloads.serve_small, lambda seed: workloads.serve_mixed(seed, 3.0)):
            first, again, other = make(7), make(7), make(8)
            self.assertEqual([r.line() for r in first.pool], [r.line() for r in again.pool])
            self.assertEqual(first.sequence, again.sequence)
            self.assertNotEqual(first.sequence, other.sequence)

    def test_same_seed_same_sweep_grids(self):
        first, again = workloads.cli_rounds(3, 5), workloads.cli_rounds(3, 5)
        self.assertEqual([[s.argv() for s in r] for r in first], [[s.argv() for s in r] for r in again])
        self.assertEqual(first[0][0].betas, again[0][0].betas)

    def test_schedule_file_is_byte_identical(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp, "a"), Path(tmp, "b")
            workloads.serve_mixed(11, 2.0).write(str(a))
            workloads.serve_mixed(11, 2.0).write(str(b))
            self.assertEqual(a.read_bytes(), b.read_bytes())

    def test_sweep_grid_matches_cli_arithmetic(self):
        sweep = workloads.cli_rounds(1, 1)[0][0]
        self.assertEqual(len(sweep.betas), workloads.GRID_STEPS + 1)
        self.assertEqual(sweep.betas[0], float(sweep.lo))
        self.assertEqual(sweep.betas[-1], float(sweep.hi))
        for beta in sweep.betas:
            self.assertEqual(Fraction(beta), Fraction(beta).limit_denominator(1 << 20))


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail(list(range(1000)))[0], 99.0)  # 10 beyond p99
        self.assertEqual(stats.tail(list(range(999)))[0], 90.0)  # only 9 beyond p99
        self.assertEqual(stats.tail(list(range(20)))[0], 50.0)  # 10 beyond p50
        self.assertEqual(stats.tail(list(range(100)))[0], 90.0)

    def test_value_is_the_nearest_rank_percentile(self):
        values = [float(v) for v in range(1, 1001)]
        self.assertEqual(stats.tail(values), (99.0, 990.0))

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (100.0, 3.0))


class OpenLoopLatency(unittest.TestCase):
    def test_open_loop_counts_from_due_time(self):
        # Due at 1 ms, sent late at 6 ms, answered at 7 ms.
        columns = ([0], [1_000_000], [6_000_000], [7_000_000])
        self.assertEqual(stats.latencies_ms(*columns, open_loop=True), [6.0])
        self.assertEqual(stats.latencies_ms(*columns, open_loop=False), [1.0])

    def test_failed_request_misses_every_limit(self):
        columns = ([1, 2, 0], [0, 0, 0], [0, 0, 0], [5, 0, 2_000_000])
        self.assertEqual(stats.latencies_ms(*columns, open_loop=True), [math.inf, math.inf, 2.0])

    @unittest.skipUnless((run.BUILD / "perfbench_load").is_file(), "perfbench_load not built")
    def test_generator_records_due_times_under_a_stall(self):
        """A server that answers one request every 50 ms: requests due every
        10 ms queue behind each other, and their due-time latency grows."""
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]

        def serve():
            conn, _ = server.accept()
            with conn, conn.makefile("rwb") as stream:
                for line in stream:
                    time.sleep(0.05)
                    request_id = line.split(b'"id":"')[1].split(b'"')[0]
                    stream.write(b'{"id":"' + request_id + b'","ok":true,"value":0.5}\n')
                    stream.flush()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        pool = [workloads.Request("threshold", 3, Fraction(1), Fraction(1, 2))]
        schedule = workloads.Schedule("open", 1, pool, [(i * 10_000_000, 0) for i in range(4)])
        with tempfile.TemporaryDirectory() as tmp:
            sched, out = Path(tmp, "s"), Path(tmp, "r")
            schedule.write(str(sched))
            subprocess.run(
                [str(run.BUILD / "perfbench_load"), str(port), str(sched), str(out), "1"],
                check=True,
                capture_output=True,
                timeout=30,
            )
            (col,) = run.LoadRecords(out, 4).columns()
        server.close()
        self.assertEqual(col.status, [0] * 4)
        self.assertEqual(col.due_ns, [i * 10_000_000 for i in range(4)])
        latencies = stats.latencies_ms(col.status, col.due_ns, col.sent_ns, col.done_ns, open_loop=True)
        for i, latency in enumerate(latencies):
            # Served at ~50 (i + 1) ms, due at 10 i ms.
            self.assertGreaterEqual(latency, 50 * (i + 1) - 10 * i - 1)
        self.assertTrue(all(b > a for a, b in zip(latencies, latencies[1:])))


class Oracle(unittest.TestCase):
    def test_paper_values(self):
        self.assertEqual(oracle.win_probability(3, Fraction(1), Fraction(5, 8)), Fraction(1673, 3072))
        beta, value = oracle.optimum(3, Fraction(1))
        self.assertAlmostEqual(float(beta), 1 - math.sqrt(1 / 7), places=12)
        self.assertAlmostEqual(float(value), 0.5446311396758939, places=12)

    def test_flags_value_off_by_twice_the_tolerance(self):
        exact = oracle.win_probability(8, Fraction(8, 3), Fraction(3, 8))
        tol = oracle.DEFAULT_TOL
        self.assertTrue(oracle.check_value(float(exact), exact, tol))
        self.assertFalse(oracle.check_value(float(exact) + 2 * tol, exact, tol))
        self.assertFalse(oracle.check_value(float(exact) - 2 * tol, exact, tol))

    def test_grading_separates_misses_from_failures(self):
        request = workloads.Request("threshold", 8, Fraction(8, 3), Fraction(3, 8))
        exact = oracle.win_probability(request.n, request.t, request.beta)
        reply = lambda value: run.Record(0, 0, 0, 0, 0, value, math.nan)  # noqa: E731
        self.assertEqual(run.grade_reply(request, exact, reply(float(exact))), "good")
        self.assertEqual(run.grade_reply(request, exact, reply(float(exact) + 2e-9)), "miss")
        self.assertNotIn(run.grade_reply(request, exact, reply(float(exact) + 1e-3)), ("good", "miss"))

    def test_enclosure_and_monte_carlo_checks(self):
        exact = oracle.win_probability(8, Fraction(8, 3), Fraction(1, 2))
        self.assertTrue(oracle.check_enclosure(float(exact), 1e-12, exact))
        self.assertFalse(oracle.check_enclosure(float(exact) + 1e-9, 1e-12, exact))
        bound = oracle.mc_bound(exact, 20000)
        self.assertTrue(oracle.check_mc(float(exact) + 0.9 * bound, exact, 20000))
        self.assertFalse(oracle.check_mc(float(exact) + 1.1 * bound, exact, 20000))


if __name__ == "__main__":
    unittest.main()
