"""Timing statistics shared by the benchmark and its tests."""

from __future__ import annotations

import math

# Candidate percentiles for a tail figure. The tail reported is the highest
# one with at least MIN_BEYOND samples above it.
PERCENTILES = (50.0, 90.0, 99.0)
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of `values` (q in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """(q, value): the highest percentile in PERCENTILES that still has at
    least MIN_BEYOND samples beyond it, or (100, max) when none has."""
    count = len(values)
    best = None
    for q in PERCENTILES:
        if count - math.ceil(q / 100.0 * count) >= MIN_BEYOND:
            best = q
    if best is None:
        return 100.0, max(values)
    return best, percentile(values, best)


def latencies_ms(status, due_ns, sent_ns, done_ns, open_loop: bool) -> list[float]:
    """Client-side latency in ms of each request, from per-request columns.
    Open loop times a request from when it was due, so a stall also charges
    the requests queued behind it; closed loop times it from when it was
    sent. A request without a good reply (status != 0) gets +inf: it misses
    any latency limit."""
    start = due_ns if open_loop else sent_ns
    return [(end - begin) / 1e6 if code == 0 else math.inf for code, begin, end in zip(status, start, done_ns)]


def by_window(values: list[float], windows: list[int], count: int) -> list[list[float]]:
    """Splits `values` by their window index, keeping windows 0..count-1."""
    out: list[list[float]] = [[] for _ in range(count)]
    for value, window in zip(values, windows):
        if 0 <= window < count:
            out[window].append(value)
    return out
