"""Answers computed apart from minmaxap, used to check every operation.

Pure Python on purpose: nothing here imports minmaxap or numpy, so a fault
shared by the solver and its own oracles cannot pass unnoticed.
"""

from __future__ import annotations

import csv
import math
import random
from typing import Dict, List, Sequence, Tuple

Point = Tuple[float, float]


# --- first-order swarms: Welzl's minimum enclosing circle -------------------


def _circle_two(a: Point, b: Point) -> Tuple[Point, float]:
    c = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
    return c, math.dist(a, c)


def _circle_three(a: Point, b: Point, c: Point) -> Tuple[Point, float]:
    ax, ay = a
    bx, by = b[0] - ax, b[1] - ay
    cx, cy = c[0] - ax, c[1] - ay
    d = 2.0 * (bx * cy - by * cx)
    if d == 0.0:  # collinear: the two farthest points span the circle
        pairs = [_circle_two(a, b), _circle_two(a, c), _circle_two(b, c)]
        return max(pairs, key=lambda cr: cr[1])
    b2, c2 = bx * bx + by * by, cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    return (ax + ux, ay + uy), math.hypot(ux, uy)


def _inside(circle: Tuple[Point, float], p: Point) -> bool:
    c, r = circle
    return math.dist(c, p) <= r * (1.0 + 1e-12) + 1e-12


def min_enclosing_circle(points: Sequence[Point]) -> Tuple[Point, float]:
    """Smallest circle holding every point (Welzl, iterative form)."""
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise ValueError("need at least one point")
    random.Random(0).shuffle(pts)
    circle = (pts[0], 0.0)
    for i, p in enumerate(pts):
        if _inside(circle, p):
            continue
        circle = (p, 0.0)
        for j in range(i):
            q = pts[j]
            if _inside(circle, q):
                continue
            circle = _circle_two(p, q)
            for k in range(j):
                if not _inside(circle, pts[k]):
                    circle = _circle_three(p, q, pts[k])
    return circle


# --- double integrators, |u| <= u_max, final velocity 0 ---------------------


def double_integrator_time(x0: float, v0: float, xf: float, u_max: float = 1.0) -> float:
    """Textbook minimum time from (x0, v0) to rest at xf.

    With e = x0 - xf, the switching function s = e + v0|v0| / (2 u_max)
    says which bang comes first: s > 0 brakes first, s < 0 pushes first.
    """
    e = x0 - xf
    s = e + v0 * abs(v0) / (2.0 * u_max)
    if s > 0:
        return (v0 + 2.0 * math.sqrt(u_max * e + 0.5 * v0 * v0)) / u_max
    if s < 0:
        return (-v0 + 2.0 * math.sqrt(-u_max * e + 0.5 * v0 * v0)) / u_max
    return abs(v0) / u_max


def _golden_min(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * (1.0 + abs(a) + abs(b)):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def double_integrator_consensus(
    agents: Sequence[Tuple[float, float]], u_max: float = 1.0, grid: int = 4001
) -> Tuple[float, float]:
    """(x, t) minimising the latest arrival at rest, by grid then golden search.

    Each reach time is quasi-convex in the target, so their maximum is
    unimodal: the best grid node brackets the minimum between its neighbours.
    """
    xs = [x for x, _ in agents]
    reach = max(v * v / (2.0 * u_max) for _, v in agents)
    lo = min(xs) - reach - 1.0
    hi = max(xs) + reach + 1.0

    def worst(x: float) -> float:
        return max(double_integrator_time(x0, v0, x, u_max) for x0, v0 in agents)

    step = (hi - lo) / (grid - 1)
    k = min(range(grid), key=lambda i: worst(lo + i * step))
    x = _golden_min(worst, lo + max(k - 1, 0) * step, lo + min(k + 1, grid - 1) * step)
    return x, worst(x)


def zero_velocity_consensus(positions: Sequence[float], u_max: float = 1.0) -> Tuple[float, float]:
    """Closed form for double integrators at rest: the midpoint of the extremes."""
    lo, hi = min(positions), max(positions)
    return 0.5 * (lo + hi), 2.0 * math.sqrt(0.5 * (hi - lo) / u_max)


# --- 1-D max of convex quadratics a (x - c)^2 + h ---------------------------


def quadratic_minmax(quads: Sequence[Tuple[float, float, float]]) -> Tuple[float, float]:
    """Exact min over x of max_i a_i (x - c_i)^2 + h_i, with every a_i > 0.

    The minimum sits at a vertex of one quadratic or where two cross, so
    enumerating those candidates and keeping the lowest maximum is exact.
    """
    def worst(x: float) -> float:
        return max(a * (x - c) ** 2 + h for a, c, h in quads)

    cands = [c for _, c, _ in quads]
    for i, (ai, ci, hi) in enumerate(quads):
        for aj, cj, hj in quads[i + 1:]:
            # (ai - aj) x^2 - 2 (ai ci - aj cj) x + (ai ci^2 - aj cj^2 + hi - hj) = 0
            qa = ai - aj
            qb = -2.0 * (ai * ci - aj * cj)
            qc = ai * ci * ci - aj * cj * cj + hi - hj
            if qa == 0.0:
                if qb != 0.0:
                    cands.append(-qc / qb)
                continue
            disc = qb * qb - 4.0 * qa * qc
            if disc >= 0.0:
                r = math.sqrt(disc)
                cands += [(-qb - r) / (2.0 * qa), (-qb + r) / (2.0 * qa)]
    x = min(cands, key=worst)
    return x, worst(x)


# --- trajectory files written by `minmaxap simulate` ------------------------


def check_trajectory(
    path: str,
    agents: Sequence[Tuple[float, float, float]],
    x_consensus: float,
    t_consensus: float,
    tol: float = 1e-5,
) -> List[str]:
    """Problems with a second-order trajectory CSV; empty when it is sound.

    agents holds (x0, v0, u_max). Every agent must start at its initial
    state, never exceed its input bound, and be at rest on the consensus
    point by the consensus time.
    """
    rows: Dict[int, List[Tuple[float, float, float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["agent_id", "t", "x", "v", "u"]:
            return ["unexpected header"]
        for r in reader:
            rows.setdefault(int(r[0]), []).append(tuple(float(v) for v in r[1:]))
    problems = []
    for i, (x0, v0, u_max) in enumerate(agents, start=1):
        samples = rows.get(i)
        if not samples:
            problems.append(f"agent {i}: no samples")
            continue
        t_first, x_first, v_first, _ = samples[0]
        if abs(t_first) > tol or abs(x_first - x0) > tol or abs(v_first - v0) > tol:
            problems.append(f"agent {i}: does not start at its initial state")
        if any(abs(u) > u_max * (1.0 + 1e-9) for *_, u in samples):
            problems.append(f"agent {i}: input exceeds u_max")
        t_end, x_end, v_end, _ = samples[-1]
        if t_end > t_consensus + tol:
            problems.append(f"agent {i}: arrives at {t_end} after {t_consensus}")
        if abs(x_end - x_consensus) > tol or abs(v_end) > tol:
            problems.append(f"agent {i}: ends at ({x_end}, {v_end}), not at rest on {x_consensus}")
    return problems
