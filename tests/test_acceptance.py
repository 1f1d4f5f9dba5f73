"""Acceptance suite: one test per gating criterion, each prints a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from minmaxap import (
    AgentDynamics,
    Ball,
    Halfspace,
    HorizontalHyperplane,
    Model,
    PointTime,
    SecondOrderCone,
    ToleranceConfig,
    dykstra_project,
    grid_minmax,
    numeric_projection,
    run_ring,
    simulate_trajectory,
    solve_min_time_consensus,
    solve_minmax,
)
from minmaxap.oracle import GridSpec

EXP1_POSITIONS = (-3.542884, 3.001152, 6.924106, -18.0296)
EXP2_AGENTS = (
    (-3.542884, 5.140490),
    (3.001152, 3.794066),
    (6.924106, -3.281824),
    (-18.0296, 1.9023),
)


def pt(x, t):
    return PointTime(np.atleast_1d(np.asarray(x, float)), t)


def vec(x, t):
    """A raw (x..., t) point, as sets, dykstra_project and the oracle take it."""
    return np.append(np.asarray(x, float), t)


def dist(a, b):
    return float(np.linalg.norm(a - b))


def report(n, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {status} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n} failed: {name} {detail}"


def exp1_agents():
    return [
        AgentDynamics(Model.SECOND_ORDER, np.array([x]), 0.0, 1.0)
        for x in EXP1_POSITIONS
    ]


def exp2_agents():
    return [
        AgentDynamics(Model.SECOND_ORDER, np.array([x]), v, 1.0)
        for x, v in EXP2_AGENTS
    ]


def test_criterion_1_experiment_one_both_modes():
    cfg = ToleranceConfig()
    x_expected = (min(EXP1_POSITIONS) + max(EXP1_POSITIONS)) / 2.0
    t_expected = 2.0 * np.sqrt(12.4768)
    details = []
    ok = True
    for mode in ("centralized", "ring"):
        start = time.perf_counter()
        res = solve_min_time_consensus(exp1_agents(), cfg, mode=mode)
        elapsed = time.perf_counter() - start
        x = float(res.x_consensus[0])
        t = res.t_consensus
        mode_ok = (
            abs(x - (-5.5527)) <= 1e-3
            and abs(t - 7.0645) <= 1e-3
            and abs(x - x_expected) <= 1e-3
            and abs(t - t_expected) <= 1e-3
            and elapsed < 1.0
        )
        ok = ok and mode_ok
        details.append(f"{mode}: x={x:.5f} t={t:.5f} {elapsed * 1e3:.0f}ms")
    report(1, "experiment 1, centralized and ring, ±1e-3, <1s", ok, "; ".join(details))


def test_criterion_2_bregman_efficiency():
    cfg = ToleranceConfig()
    events = {
        mode: solve_min_time_consensus(exp1_agents(), cfg, mode=mode).solver.outer_iters
        for mode in ("centralized", "ring")
    }
    ok = all(v <= 5 for v in events.values())
    report(2, "experiment 1 uses <=5 Bregman events", ok, str(events))


def test_criterion_3_experiment_two_best_effort():
    cfg = ToleranceConfig()
    details = []
    ok = True
    for mode in ("centralized", "ring"):
        res = solve_min_time_consensus(exp2_agents(), cfg, mode=mode)
        x = float(res.x_consensus[0])
        t = res.t_consensus
        mode_ok = abs(x - 6.9366) <= 0.05 and abs(t - 8.4467) <= 0.05
        ok = ok and mode_ok and res.experimental
        details.append(f"{mode}: x={x:.5f} t={t:.5f}")
    report(3, "experiment 2 (nonzero velocity, experimental) within ±0.05", ok,
           "; ".join(details))


def _random_instance(rng):
    """2-4 sets in R^2 (halfspaces / discs / cones) with a common interior point."""
    interior = rng.normal(scale=2, size=2)
    sets = []
    for _ in range(int(rng.integers(2, 5))):
        kind = rng.choice(["halfspace", "disc", "cone"])
        if kind == "halfspace":
            n = rng.normal(size=2)
            n /= np.linalg.norm(n)
            sets.append(Halfspace(n, float(n @ interior) + float(rng.uniform(0.1, 1.0))))
        elif kind == "disc":
            center = interior + rng.normal(scale=0.5, size=2)
            radius = float(np.linalg.norm(center - interior)) + float(rng.uniform(0.2, 1.5))
            sets.append(Ball(center, radius))
        else:
            slope = float(rng.uniform(0.4, 2.0))
            ax = interior[0] + rng.normal()
            at = interior[1] - slope * abs(interior[0] - ax) - float(rng.uniform(0.1, 1.0))
            sets.append(SecondOrderCone(vec([ax], at), slope))
    return sets, interior


def test_criterion_4_dykstra_oracle_equivalence():
    cfg = ToleranceConfig()
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        sets, interior = _random_instance(rng)
        p0 = vec(rng.normal(scale=4, size=1), rng.normal(scale=4))
        q = dykstra_project(sets, p0, cfg)
        o = numeric_projection(
            lambda z: all(s.contains(z, 1e-10) for s in sets),
            p0,
            feasible_hint=interior,
            seed=seed,
        )
        worst = max(worst, dist(q, o))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 30.0
    report(4, "Dykstra vs numeric oracle on 100 instances, <=1e-4, <30s", ok,
           f"worst={worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_projection_properties():
    sets = [
        HorizontalHyperplane(0.5),
        SecondOrderCone(vec([0.2], -0.3), 1.4),
        Halfspace(np.array([0.6, 0.8]), 1.0),
        Ball(np.array([0.0, 1.0]), 2.0),
    ]
    rng = np.random.default_rng(42)
    violations = 0
    for s in sets:
        for _ in range(100):
            p = vec(rng.normal(scale=4, size=1), rng.normal(scale=4))
            q = s.project(p)
            if dist(q, s.project(q)) != 0.0:
                violations += 1
        for _ in range(1000):
            a = vec(rng.normal(scale=4, size=1), rng.normal(scale=4))
            b = vec(rng.normal(scale=4, size=1), rng.normal(scale=4))
            if dist(s.project(a), s.project(b)) > dist(a, b) + 1e-12:
                violations += 1
        for _ in range(20):
            p = vec(rng.normal(scale=4, size=1), rng.normal(scale=4))
            q = s.project(p)
            for _ in range(100):
                z = s.project(vec(rng.normal(scale=4, size=1), rng.normal(scale=4)))
                ip = float((p - q) @ (z - q))
                if ip > 1e-9 * dist(p, q) * dist(z, q) + 1e-12:
                    violations += 1
    report(5, "idempotence / nonexpansiveness / variational inequality",
           violations == 0, f"{violations} violations")


def test_criterion_6_ring_centralized_equivalence():
    cfg = ToleranceConfig()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        cones = [
            SecondOrderCone(
                vec(rng.uniform(-5, 5, size=1), float(rng.uniform(0.0, 0.5))),
                float(rng.uniform(0.5, 3.0)),
            )
            for _ in range(int(rng.integers(2, 5)))
        ]
        p0 = pt([0.0], 30.0)
        central = solve_minmax(cones, HorizontalHyperplane(-0.5), p0, cfg)
        ring = run_ring(cones, HorizontalHyperplane(-0.5), p0, cfg)
        worst = max(worst, float(np.linalg.norm(ring.x_star - central.x_star)))
    ok = worst <= 10 * cfg.outer_tol
    report(6, "ring vs centralized on 50 instances, <=10*outer_tol", ok,
           f"worst={worst:.2e}, bound={10 * cfg.outer_tol:.0e}")


def test_criterion_7_minmax_vs_grid():
    cfg = ToleranceConfig()
    ok = True
    worst = 0.0
    for seed in range(25):
        rng = np.random.default_rng(3000 + seed)
        cones = [
            SecondOrderCone(
                vec(rng.uniform(-4, 4, size=1), float(rng.uniform(0.0, 1.0))),
                float(rng.uniform(0.5, 2.5)),
            )
            for _ in range(int(rng.integers(2, 7)))
        ]
        sol = solve_minmax(cones, HorizontalHyperplane(-1.0), pt([0.0], 40.0), cfg)
        funcs = [
            (lambda c: (lambda x: c.slope * abs(float(x[0]) - float(c.apex[0])) + c.apex[-1]))(c)
            for c in cones
        ]
        g = grid_minmax(funcs, GridSpec(np.array([-6.0]), np.array([6.0]), 24001))
        diff = abs(sol.t_star - g.value)
        bound = g.error_bound + 10 * cfg.outer_tol
        if diff > bound or sol.t_star < g.value - bound:
            ok = False
        worst = max(worst, diff)
    report(7, "solver vs grid oracle on 25 instances", ok, f"worst diff={worst:.2e}")


def test_criterion_8_trajectory_consistency():
    from minmaxap.consensus import reach_time

    cases = []
    cfg = ToleranceConfig()
    for agents in (exp1_agents(), exp2_agents()):
        res = solve_min_time_consensus(agents, cfg, mode="centralized")
        target = (float(res.x_consensus[0]), 0.0)
        cases.extend((a, target) for a in agents)
    rng = np.random.default_rng(77)
    for _ in range(100):
        a = AgentDynamics(
            Model.SECOND_ORDER,
            np.array([float(rng.uniform(-10, 10))]),
            0.0,
            float(rng.uniform(0.5, 3.0)),
        )
        cases.append((a, (float(rng.uniform(-10, 10)), 0.0)))

    worst_x = worst_v = worst_t = 0.0
    for agent, target in cases:
        traj = simulate_trajectory(agent, target, dt=0.25)
        expected = reach_time(agent, np.array([target[0]]))
        last = traj.samples[-1]
        worst_x = max(worst_x, abs(last.x - target[0]))
        worst_v = max(worst_v, abs(last.v - target[1]))
        worst_t = max(worst_t, abs(traj.arrival_time - expected))
    ok = worst_x <= 1e-6 and worst_v <= 1e-6 and worst_t <= 1e-9
    report(8, "bang-bang trajectories land on target at formula time", ok,
           f"|dx|={worst_x:.1e} |dv|={worst_v:.1e} |dt|={worst_t:.1e}")
