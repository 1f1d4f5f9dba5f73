"""Warm-started inner runs against the paper's reset protocol.

Every inner Dykstra run after the first may start from the increments the
last run ended with (ToleranceConfig.warm_start, the default). These tests
check, on seeded swarms in both modes, that the warm runs reach the same
answers as runs restarted from zero increments, and in fewer cycles.
"""

import random

import numpy as np
import pytest

import minmaxap.alternating as alternating
from minmaxap import (
    AgentDynamics,
    ConvergenceError,
    Model,
    ToleranceConfig,
    solve_min_time_consensus,
)

WARM = ToleranceConfig()
COLD = ToleranceConfig(warm_start=False)
SEEDS = range(3)
# the same, ended by the paper's stop rule alone, for cycle counts that
# measure the paper loop
PAPER_WARM = ToleranceConfig(exact_finish=False)
PAPER_COLD = ToleranceConfig(warm_start=False, exact_finish=False)


def swarm(seed, n, dim):
    pts = np.random.default_rng(seed).uniform(-10.0, 10.0, (n, dim))
    return [AgentDynamics(Model.FIRST_ORDER, p) for p in pts]


def enclosing_circle(points):
    """Centre and radius of the smallest circle holding the 2-D points
    (Welzl's algorithm, in its iterative form)."""

    def circle_of(*ps):
        if len(ps) == 1:
            return ps[0], 0.0
        if len(ps) == 2:
            c = (ps[0] + ps[1]) / 2.0
            return c, float(np.linalg.norm(ps[0] - c))
        (ax, ay), (bx, by), (cx, cy) = ps
        d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
        uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
        c = np.array([ux, uy])
        return c, float(np.linalg.norm(ps[0] - c))

    def holds(circle, p):
        return np.linalg.norm(p - circle[0]) <= circle[1] * (1.0 + 1e-12) + 1e-12

    pts = list(points)
    random.Random(0).shuffle(pts)
    circle = circle_of(pts[0])
    for i, p in enumerate(pts):
        if holds(circle, p):
            continue
        circle = circle_of(p)
        for j in range(i):
            if holds(circle, pts[j]):
                continue
            circle = circle_of(p, pts[j])
            for k in range(j):
                if not holds(circle, pts[k]):
                    circle = circle_of(p, pts[j], pts[k])
    return circle


def exact(agents):
    """The min-max point and time of unit-speed agents: the middle of the
    extremes in 1-D, the smallest enclosing circle in 2-D."""
    pts = np.array([a.x0 for a in agents])
    if pts.shape[1] == 1:
        lo, hi = pts.min(), pts.max()
        return np.array([(lo + hi) / 2.0]), (hi - lo) / 2.0
    return enclosing_circle(pts)


@pytest.mark.parametrize("mode", ["centralized", "ring"])
@pytest.mark.parametrize("n", [4, 16, 64, 256])
@pytest.mark.parametrize("dim", [1, 2])
def test_warm_agrees_with_cold_and_exact_in_fewer_cycles(dim, n, mode):
    cycles = {True: 0, False: 0}
    for seed in SEEDS:
        agents = swarm(seed, n, dim)
        warm = solve_min_time_consensus(agents, PAPER_WARM, mode=mode)
        cold = solve_min_time_consensus(agents, PAPER_COLD, mode=mode)
        cycles[True] += warm.solver.inner_cycles_total
        cycles[False] += cold.solver.inner_cycles_total
        gap = np.append(warm.x_consensus - cold.x_consensus, warm.t_consensus - cold.t_consensus)
        assert np.linalg.norm(gap) <= 10 * WARM.outer_tol
        x, t = exact(agents)
        assert np.linalg.norm(warm.x_consensus - x) <= 10 * WARM.outer_tol
        assert warm.t_consensus == pytest.approx(t, abs=10 * WARM.outer_tol)
    assert cycles[True] < cycles[False]


@pytest.mark.parametrize("n", [4, 16, 64, 256])
def test_every_warm_run_keeps_the_iterate_at_plane_point_plus_increments(n, monkeypatch):
    """x = b + increments.sum(0) after every inner run, where b is the start
    point for the first run and the last run's iterate dropped onto the
    zero-height plane for the others."""
    runs = []
    dykstra = alternating.dykstra_project

    def recording(sets, p0, cfg, stats=None):
        x = dykstra(sets, p0, cfg, stats=stats)
        runs.append((p0, x, stats["state"].increments.sum(axis=0)))
        return x

    monkeypatch.setattr(alternating, "dykstra_project", recording)
    sol = solve_min_time_consensus(swarm(n, n, 2), WARM).solver
    assert len(runs) == sol.outer_iters >= 2
    b = runs[0][0]
    for k, (_, x, total) in enumerate(runs):
        if k:
            b = np.append(runs[k - 1][1][:-1], 0.0)
        assert np.abs(x - (b + total)).max() <= 1e-12 * (1.0 + np.abs(x).max())


def test_warm_fails_no_more_experimental_instances():
    """Second-order agents with nonzero velocity take the experimental,
    nonconvex path, which fails on some instances; warm runs fail on no
    more of them than the reset protocol."""
    rng = np.random.default_rng(5)
    instances = []
    for _ in range(60):
        n = int(rng.integers(2, 6))
        x0, v0 = rng.uniform(-10.0, 10.0, n), rng.uniform(-4.0, 4.0, n)
        instances.append(
            [AgentDynamics(Model.SECOND_ORDER, np.array([x]), v0=float(v)) for x, v in zip(x0, v0)]
        )
    for mode in ("centralized", "ring"):
        failed = {}
        for cfg in (WARM, COLD):
            failed[cfg.warm_start] = 0
            for agents in instances:
                try:
                    solve_min_time_consensus(agents, cfg, mode=mode)
                except ConvergenceError:
                    failed[cfg.warm_start] += 1
        assert failed[True] <= failed[False]
