"""Exact rational references for the benchmark's checks.

The winning probability of the symmetric single-threshold protocol
(Theorem 5.1 with a common threshold, Section 5.2) is evaluated here in
Python's exact `fractions.Fraction` arithmetic, independently of the C++
library under test:

    P(beta) = sum_k C(n, k) * Z(n - k) * O(k)
    Z(m) = (1/m!) sum_l (-1)^l C(m, l) (t - l beta)_+^m
    O(k) = (1 - beta)^k - (1/k!) sum_l (-1)^l C(k, l) (k - t - l + l beta)_+^k

Between the breakpoints where a bracket base changes sign, P is one
polynomial of degree <= n, so the optimum over [0, 1] (the `analyze` op) is
found per piece: exact Lagrange interpolation gives the piece, and the roots
of its derivative are bracketed on a fine grid and bisected in exact
arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Default request tolerance of ddm_serve and of the auto engine's certificate.
DEFAULT_TOL = 1e-9
# A Monte Carlo estimate must land within this many standard errors of the
# exact value.
MC_SIGMAS = 5.0
# Slack for double rounding when a reply is compared with an exact value.
ROUNDING = 4e-16


def win_probability(n: int, t: Fraction, beta: Fraction) -> Fraction:
    """Exact P(beta) for n players, capacity t, common threshold beta."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= beta <= 1:
        raise ValueError("beta outside [0, 1]")
    if t <= 0:
        return Fraction(0)

    def zero(m: int) -> Fraction:
        if m == 0:
            return Fraction(1)
        total = Fraction(0)
        for l in range(m + 1):
            base = t - l * beta
            if base > 0:
                total += (-1) ** l * math.comb(m, l) * base**m
        return total / math.factorial(m)

    def one(k: int) -> Fraction:
        if k == 0:
            return Fraction(1)
        total = Fraction(0)
        for l in range(k + 1):
            base = k - t - l + l * beta
            if base > 0:
                total += (-1) ** l * math.comb(k, l) * base**k
        return (1 - beta) ** k - total / math.factorial(k)

    return sum((math.comb(n, k) * zero(n - k) * one(k) for k in range(n + 1)), Fraction(0))


def breakpoints(n: int, t: Fraction) -> list[Fraction]:
    """Every beta in [0, 1] where a bracket base of P changes sign, with 0 and 1."""
    points = {Fraction(0), Fraction(1)}
    for l in range(1, n + 1):
        points.add(t / l)  # t - l beta = 0
    for k in range(1, n + 1):
        for l in range(1, k + 1):
            points.add((t + l - k) / l)  # k - t - l + l beta = 0
    return sorted(p for p in points if 0 <= p <= 1)


def _interpolate(xs: list[Fraction], ys: list[Fraction]) -> list[Fraction]:
    """Exact monomial coefficients (ascending) of the polynomial through the points."""
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = [Fraction(0)] + basis  # multiply by x
            for d in range(len(basis) - 1):
                basis[d] -= xj * basis[d + 1]
            denom *= xi - xj
        for d, b in enumerate(basis):
            coeffs[d] += yi * b / denom
    return coeffs


def _eval_poly(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def optimum(n: int, t: Fraction, resolution: float = 1e-13) -> tuple[Fraction, Fraction]:
    """(beta*, P(beta*)) maximizing P over [0, 1], beta* to within `resolution`."""
    cuts = breakpoints(n, t)
    candidates = list(cuts)
    for lo, hi in zip(cuts, cuts[1:]):
        xs = [lo + (hi - lo) * Fraction(i + 1, n + 2) for i in range(n + 1)]
        piece = _interpolate(xs, [win_probability(n, t, x) for x in xs])
        deriv = [d * c for d, c in enumerate(piece)][1:]
        if not any(deriv):
            continue
        grid = [lo + (hi - lo) * Fraction(i, 512) for i in range(513)]
        signs = [_eval_poly(deriv, x) for x in grid]
        for a, b, fa, fb in zip(grid, grid[1:], signs, signs[1:]):
            if fa == 0:
                candidates.append(a)
            elif fa * fb < 0:
                while b - a > resolution:
                    mid = (a + b) / 2
                    fm = _eval_poly(deriv, mid)
                    if (fm > 0) == (fa > 0):
                        a, fa = mid, fm
                    else:
                        b = mid
                candidates.append((a + b) / 2)
    best = max(candidates, key=lambda x: win_probability(n, t, x))
    return best, win_probability(n, t, best)


def check_value(value: float, exact: Fraction, tol: float = DEFAULT_TOL) -> bool:
    """A deterministic answer is right when it is within tol of exact."""
    return math.isfinite(value) and abs(Fraction(value) - exact) <= Fraction(tol + ROUNDING)


def check_enclosure(midpoint: float, width: float, exact: Fraction) -> bool:
    """A certify reply's enclosure [mid - w/2, mid + w/2] must contain exact."""
    if not (math.isfinite(midpoint) and math.isfinite(width) and width >= 0):
        return False
    slack = Fraction(width) / 2 + Fraction(ROUNDING)
    return abs(Fraction(midpoint) - exact) <= slack


def mc_bound(exact: Fraction, trials: int) -> float:
    """Largest accepted |estimate - exact| for a Monte Carlo reply."""
    p = float(exact)
    return MC_SIGMAS * math.sqrt(max(p * (1 - p), 1e-12) / trials) + 1.0 / trials


def check_mc(value: float, exact: Fraction, trials: int) -> bool:
    return math.isfinite(value) and abs(value - float(exact)) <= mc_bound(exact, trials)
