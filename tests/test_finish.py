"""The exact finish: a Newton solve of the KKT system over the cones whose
Dykstra increments are nonzero, which ends a solve once it proves the
lowest point of a cone intersection."""

import json

import numpy as np
import pytest

from minmaxap import (
    AgentDynamics,
    Ball,
    ConvergenceError,
    HorizontalHyperplane,
    Model,
    PointTime,
    SecondOrderCone,
    ToleranceConfig,
    dykstra_project,
    run_ring,
    solve_min_time_consensus,
    solve_minmax,
)
from minmaxap.alternating import finish
from minmaxap.cli import main
from minmaxap.geometry import ConeStack
from test_warm_start import enclosing_circle

PAPER = ToleranceConfig(exact_finish=False)
PLANE = HorizontalHyperplane(0.0)
MODES = ("centralized", "ring")
SOLVERS = (solve_minmax, run_ring)


def rel(got, ref):
    """The largest |got - ref| / (1 + |ref|) over matching entries."""
    got, ref = np.atleast_1d(got), np.atleast_1d(ref)
    return float((np.abs(got - ref) / (1.0 + np.abs(ref))).max())


def minmax_1d(positions, slopes):
    """min over x of max_i a_i |x - p_i|: the largest crossing height of a
    pair of cones, p_i <= p_j, and the crossing itself."""
    best = (0.0, float(positions[0]))
    for pi, ai in zip(positions, slopes):
        for pj, aj in zip(positions, slopes):
            if pi <= pj:
                t = ai * aj * (pj - pi) / (ai + aj)
                best = max(best, (t, pi + t / ai))
    return best[1], best[0]


def first_order(x0, u_max):
    return [AgentDynamics(Model.FIRST_ORDER, x, u_max=float(u)) for x, u in zip(x0, u_max)]


def swarm_cases():
    """Seeded first-order swarms in 1-3-D, N from 2 to 256, with equal and
    unequal u_max."""
    for dim in (1, 2, 3):
        for n in (2, 3, 5, 16, 64, 256):
            for seed in range(2):
                rng = np.random.default_rng([dim, n, seed])
                x0 = rng.uniform(-10.0, 10.0, (n, dim))
                for equal in (True, False):
                    u = np.ones(n) if equal else rng.uniform(0.5, 2.0, n)
                    yield pytest.param(x0, u, id=f"{dim}d-{n}-{seed}-{'equal' if equal else 'unequal'}")


class TestProperty:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("x0, u", swarm_cases())
    def test_first_order_swarms(self, x0, u, mode):
        agents = first_order(x0, u)
        r = solve_min_time_consensus(agents, mode=mode)
        paper = solve_min_time_consensus(agents, PAPER, mode=mode)
        # every finish is a proof; the paper's answer is a feasible point,
        # so its worst reach time bounds t* from above
        worst = lambda x: float(np.max(np.linalg.norm(x0 - x, axis=1) / u))
        if r.solver.finished:
            assert rel(worst(r.x_consensus), r.t_consensus) <= 1e-12
            assert r.t_consensus <= worst(paper.x_consensus) * (1 + 1e-12)
            assert r.solver.distance == r.solver.t_star
        assert rel(r.x_consensus, paper.x_consensus) <= 1e-5
        if x0.shape[1] == 1:
            x, t = minmax_1d(x0[:, 0], 1.0 / u)
        elif x0.shape[1] == 2 and (u == 1).all():
            x, t = enclosing_circle(x0)
            assert r.solver.finished
        else:
            return
        assert rel(r.t_consensus, t) <= (1e-12 if r.solver.finished else 1e-5)
        assert rel(r.x_consensus, x) <= (1e-12 if r.solver.finished else 1e-5)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    def test_double_integrators_at_rest(self, n, mode):
        # 4 (t/2)^2 = |x - x0| / u_max: cones in squared time
        rng = np.random.default_rng(n)
        x0, u = rng.uniform(-20.0, 20.0, n), rng.uniform(0.5, 2.0, n)
        agents = [AgentDynamics(Model.SECOND_ORDER, [x], u_max=float(v)) for x, v in zip(x0, u)]
        r = solve_min_time_consensus(agents, mode=mode)
        x, s = minmax_1d(x0, 4.0 / u)
        assert r.solver.finished
        assert rel(r.x_consensus, x) <= 1e-12
        assert rel(r.solver.t_star, s) <= 1e-12
        assert rel(r.t_consensus, np.sqrt(s)) <= 1e-12

    @pytest.mark.parametrize("mode", MODES)
    def test_warm_and_cold_both_finish_on_the_answer(self, mode):
        # the finish on: both protocols end on the same proved point
        x0 = np.random.default_rng(7).uniform(-10.0, 10.0, (40, 2))
        agents = first_order(x0, np.ones(40))
        warm = solve_min_time_consensus(agents, mode=mode)
        cold = solve_min_time_consensus(agents, ToleranceConfig(warm_start=False), mode=mode)
        (x, t) = enclosing_circle(x0)
        for r in (warm, cold):
            assert r.solver.finished
            assert rel(r.x_consensus, x) <= 1e-12 and rel(r.t_consensus, t) <= 1e-12


EXP1 = (-3.542884, 3.001152, 6.924106, -18.0296)


def exp1_cones():
    return [SecondOrderCone(np.array([x, 0.0]), 4.0) for x in EXP1]


class TestTraces:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_a_cap_the_finish_beats(self, solver):
        # experiment 1 takes 3 outer steps by the paper's stop, and a cap
        # of 2 fails it; the finish proves the answer in step 2
        cones, p0 = exp1_cones(), PointTime(np.array([0.0]), 80.0)
        with pytest.raises(ConvergenceError):
            solver(cones, PLANE, p0, ToleranceConfig(max_outer_iters=2, exact_finish=False))
        sol = solver(cones, PLANE, p0, ToleranceConfig(max_outer_iters=2))
        assert sol.finished and sol.outer_iters == 2
        x, t = minmax_1d(EXP1, [4.0] * 4)
        assert rel(sol.x_star, x) <= 1e-12 and rel(sol.t_star, t) <= 1e-12
        # the last row is step 2's event and holds the proved point
        events = [r for r in sol.trace if r.bregman_event]
        last = list(sol.trace)[-1]
        assert len(events) == 2
        assert last.bregman_event and last.cycle == (2 if solver is solve_minmax else sol.inner_cycles_total)
        assert np.array_equal(last.point, np.append(sol.x_star, sol.t_star))

    def test_a_finished_ring_trace_ends_on_agent_one(self):
        x0 = np.random.default_rng(0).uniform(0.0, 10.0, (96, 2))
        sol = solve_min_time_consensus(first_order(x0, np.ones(96)), mode="ring").solver
        assert sol.finished
        rows = list(sol.trace)
        assert len(rows) == sol.inner_cycles_total * 96 - 95
        assert rows[-1].agent_id == 1 and rows[-1].bregman_event

    def test_plain_projection_never_finishes(self):
        # (0, 0) lies below every cone, and its projection is no min-max:
        # without stats["finish"] no try is made
        stats = {}
        x = dykstra_project(exp1_cones(), np.array([0.0, 0.0]), ToleranceConfig(), stats)
        assert "proved" not in stats and "tried" not in stats
        assert all(c.contains(x, 1e-6) for c in exp1_cones())


class TestRejections:
    """Tries that prove nothing leave the solve to the paper's stop."""

    def test_a_pseudo_root_far_away_is_rejected(self):
        # two cones of a swarm bind. At a point 9e15 out along their axis
        # every block of the KKT residual is below 1e-12 (1 + |t|), so a test
        # relative to |t| alone would accept it; the gradient block's own
        # scale (max slope) rejects it
        pts = np.random.default_rng(1116).uniform(-10.0, 10.0, (4, 2))
        cones = ConeStack([SecondOrderCone(np.append(p, 0.0), 1.0) for p in pts])
        a, b = pts[0], pts[1]
        x = b + 9e15 * (b - a) / np.linalg.norm(b - a)
        t = float(np.linalg.norm(pts - x, axis=1).max())
        increments = np.zeros((4, 3))
        increments[[0, 1], -1] = 0.3, 0.7
        u = (x - pts[:2]) / np.linalg.norm(x - pts[:2], axis=1)[:, None]
        assert np.abs(np.linalg.norm(x - pts[:2], axis=1) - t).max() <= 1e-12 * (1 + t)
        assert np.abs(np.array([0.3, 0.7]) @ u).max() <= 1e-12 * (1 + t)
        assert finish(cones, np.append(x, t), increments, np.array([0, 1])) is None

    @pytest.mark.parametrize("mode", MODES)
    def test_the_instance_of_the_far_root(self, mode):
        pts = np.random.default_rng(1116).uniform(-10.0, 10.0, (4, 2))
        r = solve_min_time_consensus(first_order(pts, np.ones(4)), mode=mode)
        x, t = enclosing_circle(pts)
        tol = 1e-12 if r.solver.finished else 1e-5
        assert rel(r.x_consensus, x) <= tol and rel(r.t_consensus, t) <= tol

    def test_a_start_at_an_apex_is_rejected(self):
        cones = ConeStack(exp1_cones())
        increments = np.zeros((4, 2))
        increments[[1, 2], -1] = 1.0
        assert finish(cones, np.array([EXP1[1], 5.0]), increments, np.array([1, 2])) is None

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("x0", [[[3.0, 4.0]], [[1.0, 2.0]] * 3], ids=["one", "coincident"])
    def test_an_answer_at_an_apex(self, x0, mode):
        agents = first_order(np.array(x0), np.ones(len(x0)))
        r = solve_min_time_consensus(agents, mode=mode)
        assert not r.solver.finished
        assert np.array_equal(r.x_consensus, x0[0]) and r.t_consensus == 0.0

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_a_raised_apex(self, solver):
        # the cone with apex (0, 10) holds the lowest point at its apex;
        # S = {that cone} has no root, so the paper's stop ends the solve
        cones = [
            SecondOrderCone(np.array([0.0, 10.0]), 1.0),
            SecondOrderCone(np.array([1.0, 0.0]), 1.0),
            SecondOrderCone(np.array([-2.0, 0.0]), 1.0),
        ]
        sol = solver(cones, PLANE, PointTime(np.array([0.5]), 20.0), ToleranceConfig())
        paper = solver(cones, PLANE, PointTime(np.array([0.5]), 20.0), PAPER)
        assert not sol.finished
        assert sol.x_star.tobytes() == paper.x_star.tobytes() and sol.t_star == paper.t_star
        assert abs(sol.x_star[0]) <= 1e-5 and sol.t_star == pytest.approx(10.0, abs=1e-5)

    @pytest.mark.parametrize("mode", MODES)
    def test_four_cocircular_agents(self, mode):
        # all four bind, one more than n + 1, so no try is made
        angles = (0.3, 1.9, 3.5, 5.0)
        x0 = 3.0 * np.array([[np.cos(a), np.sin(a)] for a in angles]) + [1.0, -2.0]
        r = solve_min_time_consensus(first_order(x0, np.ones(4)), mode=mode)
        assert not r.solver.finished
        assert rel(r.x_consensus, [1.0, -2.0]) <= 1e-5 and rel(r.t_consensus, 3.0) <= 1e-5


class TestMixedStacks:
    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("warm", [True, False])
    def test_a_stack_with_a_ball_runs_as_the_paper(self, solver, warm):
        rng = np.random.default_rng(4)
        sets = [SecondOrderCone(np.append(rng.uniform(-5, 5, 2), 0.0), 1.0) for _ in range(6)]
        sets.insert(3, Ball(np.array([0.0, 0.0, 8.0]), 12.0))
        p0 = PointTime(np.zeros(2), 30.0)
        on = solver(sets, HorizontalHyperplane(-0.5), p0, ToleranceConfig(warm_start=warm))
        off = solver(sets, HorizontalHyperplane(-0.5), p0, ToleranceConfig(warm_start=warm, exact_finish=False))
        assert not on.finished
        assert on.x_star.tobytes() == off.x_star.tobytes() and on.t_star == off.t_star
        assert (on.inner_cycles_total, on.outer_iters, on.distance) == (off.inner_cycles_total, off.outer_iters, off.distance)
        runs = [list(s.trace.runs()) for s in (on, off)]
        assert len(runs[0]) == len(runs[1])
        for a, b in zip(*runs):
            assert a[:3] + a[4:] == b[:3] + b[4:] and a[3].tobytes() == b[3].tobytes()


class TestConfig:
    @pytest.mark.parametrize("flag", [1, 0, "yes", None, np.bool_(True)])
    def test_exact_finish_must_be_a_bool(self, flag):
        with pytest.raises(TypeError):
            ToleranceConfig(exact_finish=flag)

    def test_default_is_on(self):
        assert ToleranceConfig().exact_finish is True


OVERFLOWS = {
    "first-order-1e200": [{"model": "first_order", "x0": [1e200, 0]}, {"model": "first_order", "x0": [-1e200, 0]}],
    "first-order-1e308": [{"model": "first_order", "x0": [1e308]}, {"model": "first_order", "x0": [-1e308]}],
    "second-order-v0": [
        {"model": "second_order", "x0": [0.0], "v0": 1e200},
        {"model": "second_order", "x0": [1.0], "v0": -1e200},
    ],
}


class TestOverflowingStart:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(OVERFLOWS))
    def test_library_raises_value_error(self, name, mode):
        agents = [
            AgentDynamics(a["model"], a["x0"], v0=a.get("v0", 0.0)) for a in OVERFLOWS[name]
        ]
        with pytest.raises(ValueError, match="overflows"):
            solve_min_time_consensus(agents, mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("command", ["solve", "simulate", "verify"])
    @pytest.mark.parametrize("name", sorted(OVERFLOWS))
    def test_cli_exits_2_with_one_line(self, name, command, mode, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"agents": OVERFLOWS[name]}))
        assert main([command, "--config", str(path), "--mode", mode]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: agents: ") and "overflows" in err[0]
