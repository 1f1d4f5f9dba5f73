"""The exact finish: a pivot over bases of at most n + 1 sets, started
from the sets whose Dykstra increments are nonzero, each basis solved in
closed form or by Newton's method on the KKT system, which ends a solve
once it proves the lowest point of an intersection of cones or of oracle
epigraphs."""

import json
import math

import numpy as np
import pytest

from minmaxap import (
    AgentDynamics,
    Ball,
    ConvergenceError,
    ConvexEpigraph,
    HorizontalHyperplane,
    Model,
    PointTime,
    ProjectionError,
    SecondOrderCone,
    ToleranceConfig,
    dykstra_project,
    run_ring,
    solve_min_time_consensus,
    solve_minmax,
)
from minmaxap import alternating
from minmaxap.cli import main
from minmaxap.geometry import ConeStack
from test_alternating import quadratics_minmax
from test_geometry import CountingEpigraph
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


def assert_identical(a, b):
    """The MinMaxSolutions a and b agree bit for bit, trace runs included."""
    assert a.x_star.tobytes() == b.x_star.tobytes() and a.t_star == b.t_star
    assert (a.inner_cycles_total, a.outer_iters, a.distance, a.finished) == (
        b.inner_cycles_total, b.outer_iters, b.distance, b.finished)
    runs = [list(s.trace.runs()) for s in (a, b)]
    assert len(runs[0]) == len(runs[1])
    for p, q in zip(*runs):
        assert p[:3] + p[4:] == q[:3] + q[4:] and p[3].tobytes() == q[3].tobytes()


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


def polygon(m, radius=5.0):
    """The m vertices of a regular polygon of this radius about 0."""
    angles = 2.0 * np.pi * np.arange(m) / m
    return radius * np.c_[np.cos(angles), np.sin(angles)]


def count_tries(monkeypatch):
    """A list that grows by |S| at each try, an alternating.exchange call."""
    tries = []
    real = alternating.exchange

    def spy(cones, v, active):
        tries.append(active.size)
        return real(cones, v, active)

    monkeypatch.setattr(alternating, "exchange", spy)
    return tries


def integrator_cases():
    """1-D double integrators at rest: positions and u_max. The last five,
    with u_max 1e4, once sent the ring to its outer cap, while its tries
    saw only S = {1, 2} and then the singleton {2}, never the binding
    pair {0, 2}."""
    for n in (2, 4, 16, 64):
        rng = np.random.default_rng(n)
        yield pytest.param(rng.uniform(-20.0, 20.0, n), rng.uniform(0.5, 2.0, n), id=str(n))
    yield pytest.param(np.random.default_rng(3).uniform(-10.0, 10.0, 5), np.full(5, 1e4), id="fast-5")


def proof_cases():
    """Seeded first-order swarms in 1-D and 2-D, N from 4 to 256, and
    polygons whose vertices are moved by about 1e-9."""
    for dim in (1, 2):
        for n in (4, 16, 96, 256):
            for seed in range(2):
                x0 = np.random.default_rng([dim, n, seed, 27]).uniform(-10.0, 10.0, (n, dim))
                yield pytest.param(x0, id=f"{dim}d-{n}-{seed}")
    for m in (4, 7, 16, 96):
        x0 = polygon(m) + 1e-9 * np.random.default_rng(m).standard_normal((m, 2))
        yield pytest.param(x0, id=f"near-{m}-gon")


class TestProperty:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("x0", proof_cases())
    def test_no_wrong_point_is_proved(self, x0, mode):
        # tries on the highest n + 1 of more binding sets may fail, but a
        # finished answer is the closed form's to rounding
        r = solve_min_time_consensus(first_order(x0, np.ones(len(x0))), mode=mode)
        x, t = minmax_1d(x0[:, 0], np.ones(len(x0))) if x0.shape[1] == 1 else enclosing_circle(x0)
        tol = 1e-12 if r.solver.finished else 1e-5
        assert rel(r.x_consensus, x) <= tol and rel(r.t_consensus, t) <= tol

    @pytest.mark.parametrize("mode", MODES)
    def test_bench_swarms_finish_in_few_cycles(self, mode):
        # the swarms of the benchmark, unmoved: each finishes exactly, warm
        # or cold, and together they take at most 15 inner cycles warm (25
        # while a ranked support waited two cycles for its try, 110 before a
        # failed try was repaired by exchange, 183 when tries waited for at
        # most n + 1 binding cones). Each is proved inside the
        # first inner run after the plane drop, before any restart, so warm
        # and cold take the same cycles with the finish on; the warm start
        # is guarded on the paper's stop, where cold restarts take about
        # twice the cycles (637 against 1,167 centrally, 635 against 1,149
        # on the ring)
        finished = {True: 0, False: 0}
        paper = {True: 0, False: 0}
        for base in (0, 2, 4, 8, 10):
            x0 = np.random.default_rng(base).uniform(0.0, 10.0, (96, 2))
            agents = first_order(x0, np.ones(96))
            x, t = enclosing_circle(x0)
            for warm in (True, False):
                r = solve_min_time_consensus(agents, ToleranceConfig(warm_start=warm), mode=mode)
                assert r.solver.finished
                assert rel(r.x_consensus, x) <= 1e-12 and rel(r.t_consensus, t) <= 1e-12
                finished[warm] += r.solver.inner_cycles_total
                cfg = ToleranceConfig(warm_start=warm, exact_finish=False)
                paper[warm] += solve_min_time_consensus(agents, cfg, mode=mode).solver.inner_cycles_total
        assert finished[True] <= 15
        assert paper[True] < paper[False]

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
    @pytest.mark.parametrize("x0, u", integrator_cases())
    def test_double_integrators_at_rest(self, x0, u, mode):
        # 4 (t/2)^2 = |x - x0| / u_max: cones in squared time
        agents = [AgentDynamics(Model.SECOND_ORDER, [x], u_max=float(v)) for x, v in zip(x0, u)]
        r = solve_min_time_consensus(agents, mode=mode)
        x, s = minmax_1d(x0, 4.0 / u)
        assert r.solver.finished
        assert rel(r.x_consensus, x) <= 1e-12
        assert rel(r.solver.t_star, s) <= 1e-12
        assert rel(r.t_consensus, np.sqrt(s)) <= 1e-12

    @pytest.mark.parametrize("mode", MODES)
    def test_no_wrong_point_is_proved_by_an_exchange(self, mode, monkeypatch):
        # seeded first-order swarms in 1-5-D and 8-D with unequal u_max,
        # and 1-D double integrators at rest with u_max over five decades: a
        # finished answer is the reference's to rounding, and any other is
        # the paper's to 1e-5. Each exchange pivots in at most 2 (n + 1)
        # binding() solves
        exchanges, solves = [], []
        real, real_binding = alternating.exchange, alternating.binding

        def spy(cones, v, support):
            solves.append([v.size, 0])
            exchanges.append(real(cones, v, support))
            return exchanges[-1]

        def counted(*args):
            solves[-1][1] += 1
            return real_binding(*args)

        monkeypatch.setattr(alternating, "exchange", spy)
        monkeypatch.setattr(alternating, "binding", counted)
        solver = SOLVERS[MODES.index(mode)]
        for dim in (1, 2, 3, 4, 5, 8):
            for n in (2, 3, 4, 6, 10, 24, 64):
                for seed in range(4):
                    rng = np.random.default_rng([dim, n, seed, 29])
                    x0, u = rng.uniform(-10.0, 10.0, (n, dim)), rng.uniform(0.5, 2.0, n)
                    agents = first_order(x0, u)
                    r = solve_min_time_consensus(agents, mode=mode)
                    if not r.solver.finished:
                        paper = solve_min_time_consensus(agents, PAPER, mode=mode)
                        x, t, tol = paper.x_consensus, paper.t_consensus, 1e-5
                    elif dim == 1:
                        (x, t), tol = minmax_1d(x0[:, 0], 1.0 / u), 1e-12
                    else:
                        (x, t), tol = weighted_minmax(x0, u), 1e-12
                    assert rel(r.x_consensus, x) <= tol and rel(r.t_consensus, t) <= tol, (dim, n, seed)
        for n in (2, 3, 5, 8, 16, 40):
            for seed in range(4):
                rng = np.random.default_rng([n, seed, 29])
                x0, u = rng.uniform(-20.0, 20.0, n), 10.0 ** rng.uniform(-1.0, 4.0, n)
                agents = [AgentDynamics(Model.SECOND_ORDER, [x], u_max=float(v)) for x, v in zip(x0, u)]
                r = solve_min_time_consensus(agents, mode=mode)
                if r.solver.finished:
                    (x, s), tol = minmax_1d(x0, 4.0 / u), 1e-12
                else:
                    paper = solve_min_time_consensus(agents, PAPER, mode=mode).solver
                    x, s, tol = paper.x_star, paper.t_star, 1e-5
                assert rel(r.solver.x_star, x) <= tol and rel(r.solver.t_star, s) <= tol, (n, seed)
        assert sum(e is not None for e in exchanges) >= 40
        assert all(count <= 2 * size for size, count in solves), max(solves, key=lambda c: c[1] / c[0])
        # the regular 8-gon, whose values tie, finishes too
        sol = solver([SecondOrderCone(np.append(p, 0.0), 1.0) for p in polygon(8)], PLANE,
                     PointTime(np.zeros(2), 5.0), ToleranceConfig())
        assert sol.finished and rel(sol.x_star, [0.0, 0.0]) <= 1e-12 and rel(sol.t_star, 5.0) <= 1e-12

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

    def test_plain_projection_never_finishes(self, monkeypatch):
        # (0, 0) lies below every cone, and its projection is no min-max:
        # a plain projection builds its state without the finish, so no try
        # is made, even under the default exact_finish=True
        def tried(*args):
            raise AssertionError("a plain projection tried the finish")

        monkeypatch.setattr(alternating, "exchange", tried)
        stats = {}
        x = dykstra_project(exp1_cones(), np.array([0.0, 0.0]), ToleranceConfig(), stats)
        assert stats["proved"] is None and stats["state"].tried is None
        assert all(c.contains(x, 1e-6) for c in exp1_cones())


class TestRejections:
    """Tries that prove nothing leave the solve to the paper's stop."""

    def test_a_pseudo_root_far_away_is_rejected(self):
        # two cones of a swarm bind. At a point 9e15 out along their axis
        # every block of the KKT residual is below 1e-12 (1 + |t|), so a test
        # relative to |t| alone would accept it; the gradient block's own
        # scale (max slope) rejects it in newton(), and the pivot from there
        # proves the smallest enclosing circle
        pts = np.random.default_rng(1116).uniform(-10.0, 10.0, (4, 2))
        cones = ConeStack.of([SecondOrderCone(np.append(p, 0.0), 1.0) for p in pts])
        a, b = pts[0], pts[1]
        x = b + 9e15 * (b - a) / np.linalg.norm(b - a)
        t = float(np.linalg.norm(pts - x, axis=1).max())
        w = np.array([0.3, 0.7])
        u = (x - pts[:2]) / np.linalg.norm(x - pts[:2], axis=1)[:, None]
        assert np.abs(np.linalg.norm(x - pts[:2], axis=1) - t).max() <= 1e-12 * (1 + t)
        assert np.abs(w @ u).max() <= 1e-12 * (1 + t)
        assert alternating.newton(cones, np.append(x, t), np.array([0, 1])) is None
        point = alternating.exchange(cones, np.append(x, t), np.array([0, 1]))
        assert rel(point, np.append(*enclosing_circle(pts))) <= 1e-12

    @pytest.mark.parametrize("mode", MODES)
    def test_the_instance_of_the_far_root(self, mode):
        pts = np.random.default_rng(1116).uniform(-10.0, 10.0, (4, 2))
        r = solve_min_time_consensus(first_order(pts, np.ones(4)), mode=mode)
        x, t = enclosing_circle(pts)
        tol = 1e-12 if r.solver.finished else 1e-5
        assert rel(r.x_consensus, x) <= tol and rel(r.t_consensus, t) <= tol

    def test_a_start_at_an_apex_is_rejected(self):
        # no gradient at an apex: newton() gives up there, and the pivot
        # from there proves experiment 1's crossing
        cones = ConeStack.of(exp1_cones())
        start = np.array([EXP1[1], 5.0])
        assert alternating.newton(cones, start, np.array([1, 2])) is None
        point = alternating.exchange(cones, start, np.array([1, 2]))
        assert rel(point, minmax_1d(EXP1, [4.0] * 4)) <= 1e-12
        assert point == pytest.approx([-5.5527, 49.9074], abs=1e-4)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("x0", [[[3.0, 4.0]], [[1.0, 2.0]] * 3], ids=["one", "coincident"])
    def test_an_answer_at_an_apex(self, x0, mode):
        # no increment ever turns nonzero, and the try on the empty S proves
        # the apex of the cone highest at the iterate
        agents = first_order(np.array(x0), np.ones(len(x0)))
        r = solve_min_time_consensus(agents, mode=mode)
        assert r.solver.finished
        assert np.array_equal(r.x_consensus, x0[0]) and r.t_consensus == 0.0

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_a_raised_apex(self, solver):
        # the cone with apex (0, 10) holds the lowest point at its apex,
        # where no Newton root lies. From above every cone, S is empty and
        # its try proves the apex of the highest cone there; from below
        # the raised cone, S = {that cone}, and the exchange after the
        # failed try proves its apex in closed form
        cones = [
            SecondOrderCone(np.array([0.0, 10.0]), 1.0),
            SecondOrderCone(np.array([1.0, 0.0]), 1.0),
            SecondOrderCone(np.array([-2.0, 0.0]), 1.0),
        ]
        for height in (20.0, 5.0):
            sol = solver(cones, PLANE, PointTime(np.array([0.5]), height), ToleranceConfig())
            assert sol.finished
            assert sol.x_star.tolist() == [0.0] and sol.t_star == 10.0

    def test_an_exchange_through_a_raised_apex(self):
        # from the two low cones' crossing, the raised cone joins and the
        # ratio test leaves a pair whose lowest point is the raised apex,
        # which lies above the other cone; the pivot drops that cone's zero
        # weight and proves the apex
        cones = ConeStack.of([
            SecondOrderCone(np.array([0.0, 10.0]), 1.0),
            SecondOrderCone(np.array([1.0, 0.0]), 1.0),
            SecondOrderCone(np.array([-2.0, 0.0]), 1.0),
        ])
        point = alternating.exchange(cones, np.array([0.5, 12.0]), np.array([1, 2]))
        assert point.tolist() == [0.0, 10.0]

    @pytest.mark.parametrize("mode", MODES)
    def test_four_cocircular_agents(self, mode):
        # all four bind, one more than n + 1: a try takes the three with the
        # highest values at the iterate, and three whose triangle holds the
        # centre prove the circle
        angles = (0.3, 1.9, 3.5, 5.0)
        x0 = 3.0 * np.array([[np.cos(a), np.sin(a)] for a in angles]) + [1.0, -2.0]
        r = solve_min_time_consensus(first_order(x0, np.ones(4)), mode=mode)
        assert r.solver.finished
        assert rel(r.x_consensus, [1.0, -2.0]) <= 1e-12 and rel(r.t_consensus, 3.0) <= 1e-12

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("m", [8, 96])
    def test_regular_polygons(self, m, mode, monkeypatch):
        # every vertex ties at the answer, so the highest n + 1 values churn
        # from cycle to cycle; each new support is tried at once, and the
        # exchange repairs the first failed try, so few tries are made
        tries = count_tries(monkeypatch)
        r = solve_min_time_consensus(first_order(polygon(m), np.ones(m)), mode=mode)
        assert len(tries) <= 2 * r.solver.outer_iters
        assert r.solver.finished
        assert rel(r.x_consensus, [0.0, 0.0]) <= 1e-12 and rel(r.t_consensus, 5.0) <= 1e-12


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
        assert_identical(on, off)


def bench_quads(base, shift=0.0, flip=1.0):
    """The quadratic pair (a, c, h) of the epigraph-generic benchmark op
    with this base seed, its centres flipped and shifted as an op's are."""
    g = np.random.default_rng(base)
    a, c, h = g.uniform(0.5, 2.0, 2), g.uniform(-3.0, 3.0, 2), g.uniform(0.0, 2.0, 2)
    return [(float(a[i]), flip * float(c[i]) + shift, float(h[i])) for i in range(2)]


def counted_quadratics(quads):
    return [
        CountingEpigraph(
            lambda x, a=a, c=c, h=h: a * (x[0] - c) ** 2 + h,
            lambda x, a=a, c=c: np.array([2.0 * a * (x[0] - c)]),
            1,
        )
        for a, c, h in quads
    ]


def solve_quadratics(solver, sets, quads, cfg):
    """solver over the epigraphs sets of quads from the benchmark's start:
    the mean centre, at the worst height there, above a plane one below
    the lowest vertex."""
    x0 = float(np.mean([c for _, c, _ in quads]))
    h0 = max(a * (x0 - c) ** 2 + h for a, c, h in quads)
    plane = HorizontalHyperplane(min(h for *_, h in quads) - 1.0)
    return solver(sets, plane, PointTime(np.array([x0]), h0), cfg)


def oracle_stack(seed, n):
    """Two or three seeded quadratic or l1-quadratic functions (value,
    subgradient) in n-D, shaped like tests/test_geometry.py's epigraph
    families, and (a, c, h) of each when they are 1-D quadratics."""
    rng = np.random.default_rng([seed, n, 26])
    m, l1 = 2 + seed % 2, (seed // 2) % 2 == 1
    fs, quads = [], []
    for _ in range(m):
        if l1:
            a, c, lam = rng.uniform(0.2, 2.0, n), rng.uniform(-2.0, 2.0, n), rng.uniform(0.1, 2.0)
            fs.append((
                lambda x, a=a, c=c, lam=lam: float(np.sum(a * (x - c) ** 2) + lam * np.sum(np.abs(x))),
                lambda x, a=a, c=c, lam=lam: 2 * a * (x - c) + lam * np.sign(x),
            ))
        else:
            a, c, h = rng.uniform(0.2, 3.0, n), rng.uniform(-3.0, 3.0, n), rng.uniform(-2.0, 2.0)
            fs.append((
                lambda x, a=a, c=c, h=h: float(np.sum(a * (x - c) ** 2) + h),
                lambda x, a=a, c=c: 2 * a * (x - c),
            ))
            quads.append((float(a[0]), float(c[0]), float(h)))
    return fs, (quads if n == 1 and not l1 else None)


def solve_oracle_stack(solver, seed, n, **cfg):
    """solver over oracle_stack(seed, n) as CountingEpigraphs from x = 0,
    one above the highest value there, above the plane t = -1, under
    ToleranceConfig(**cfg): the solution and the sets."""
    fs, _ = oracle_stack(seed, n)
    p0 = PointTime(np.zeros(n), max(f(np.zeros(n)) for f, _ in fs) + 1.0)
    sets = [CountingEpigraph(f, g, n) for f, g in fs]
    return solver(sets, HorizontalHyperplane(-1.0), p0, ToleranceConfig(**cfg)), sets


def slsqp_minmax(n, fs):
    """min t s.t. f_i(x) <= t by scipy's SLSQP, from x = 0: (x..., t)."""
    from scipy.optimize import minimize

    cons = [
        {"type": "ineq", "fun": lambda z, f=f: z[-1] - f(z[:-1]), "jac": lambda z, g=g: np.append(-g(z[:-1]), 1.0)}
        for f, g in fs
    ]
    z0 = np.append(np.zeros(n), max(f(np.zeros(n)) for f, _ in fs))
    objective = lambda z: z[-1]
    grad = lambda z: np.append(np.zeros(n), 1.0)
    return minimize(objective, z0, jac=grad, constraints=cons, method="SLSQP",
                    options={"ftol": 1e-15, "maxiter": 500}).x


def weighted_minmax(x0, u):
    """min over x of max_i ||x - x0_i|| / u_i in 2-D or more: SLSQP's
    answer, polished to rounding by scipy's fsolve on the KKT system of the
    cones that bind there. (x, t)"""
    from scipy.optimize import fsolve

    n = x0.shape[1]
    fs = [
        (lambda x, p=p, s=s: float(np.linalg.norm(x - p) / s), lambda x, p=p, s=s: (x - p) / (s * np.linalg.norm(x - p)))
        for p, s in zip(x0, u)
    ]
    z = slsqp_minmax(n, fs)
    active = np.linalg.norm(x0 - z[:-1], axis=1) / u >= z[-1] - 1e-6 * (1.0 + z[-1])
    p, s, k = x0[active], u[active], int(active.sum())

    def kkt(y):
        # f_i = t, and with at most n binding, sum_i w_i grad f_i = 0, sum_i w_i = 1
        d = y[:n] - p
        r = np.linalg.norm(d, axis=1)
        if k == n + 1:
            return r / s - y[n]
        w = y[n + 1:]
        return np.concatenate((r / s - y[n], w @ (d / (s * r)[:, None]), [w.sum() - 1.0]))

    y = fsolve(kkt, z if k == n + 1 else np.append(z, np.full(k, 1.0 / k)), xtol=1e-13)
    return y[:n], y[n]


def hull_cones(dim, k, seed, equal):
    """k cones in dim-D that all bind at their lowest point (x, t), with
    weights > 0: their apexes lie at distances u_i t from x, in directions
    near those of a regular simplex's vertices in a random (k - 1)-D
    subspace, centred so that 0 lies inside their hull. (apexes, u)"""
    rng = np.random.default_rng([dim, k, seed, 33])
    u = np.ones(k) if equal else rng.uniform(0.5, 2.0, k)
    subspace = np.linalg.qr(rng.standard_normal((dim, k - 1)))[0]
    e = np.linalg.qr(np.eye(k) - 1.0 / k)[0][:, :k - 1] + 0.1 * rng.standard_normal((k, k - 1))
    e -= e.mean(0)
    e /= np.linalg.norm(e, axis=1)[:, None]
    x, t = rng.uniform(-5.0, 5.0, dim), rng.uniform(1.0, 5.0)
    return x - (u * t)[:, None] * (e @ subspace.T), u


def kkt_holds(cones, active, point, w):
    """Whether the (x..., t) point and the weights w pass newton()'s KKT
    test over the cones in active."""
    f, g, scale = cones.terms(active)(point[:-1])
    t = point[-1]
    return bool((np.abs(f - t) <= 1e-12 * (1.0 + abs(t))).all() and (np.abs(w @ g) <= 1e-12 * scale).all()
                and abs(w.sum() - 1.0) <= 1e-12)


class TestHullSolve:
    """binding() of 3 to n cones runs Newton's square system in the affine
    hull of their apexes."""

    # the reference's fsolve can stop at rounding short of xtol, with a warning
    @pytest.mark.filterwarnings("ignore:The iteration is not making good progress")
    @pytest.mark.parametrize("equal", [True, False], ids=["equal", "unequal"])
    @pytest.mark.parametrize("dim", range(3, 9))
    def test_agrees_with_the_reference(self, dim, equal):
        # from the apexes' centroid, at the highest value there
        for k in range(3, dim + 1):
            p, u = hull_cones(dim, k, 0, equal)
            cones = ConeStack(np.c_[p, np.zeros(k)], 1.0 / u)
            y = p.mean(0)
            point, w = alternating.binding(cones, np.append(y, cones.values(y).max()), np.arange(k))
            assert (w > 0).all() and kkt_holds(cones, np.arange(k), point, w)
            assert rel(point, np.append(*weighted_minmax(p, u))) <= 1e-12, (dim, k)

    def test_collinear_apexes_prove_no_other_point(self):
        # the hull is a line, and its QR basis holds more directions, which
        # rounding picks; a root off the line balances its gradients only
        # with a weight < 0, and on the line at most two cones bind
        returned = 0
        for dim in range(3, 7):
            for k in range(3, min(dim, 4) + 1):
                active = np.arange(k)
                for seed in range(10):
                    rng = np.random.default_rng([dim, k, seed, 33])
                    d = rng.standard_normal(dim)
                    d /= np.linalg.norm(d)
                    c, s, u = rng.uniform(-5.0, 5.0, dim), rng.uniform(-5.0, 5.0, k), rng.uniform(0.5, 2.0, k)
                    p = c + s[:, None] * d
                    cones = ConeStack(np.c_[p, np.zeros(k)], 1.0 / u)
                    for y in (p.mean(0), p.mean(0) + rng.standard_normal(dim)):
                        found = alternating.binding(cones, np.append(y, cones.values(y).max()), active)
                        if found is None:
                            continue
                        returned += 1
                        point, w = found
                        assert kkt_holds(cones, active, point, w), (dim, k, seed)
                        if (w >= 0).all():
                            line, t = minmax_1d(s, 1.0 / u)
                            assert rel(point, np.append(c + line * d, t)) <= 1e-12, (dim, k, seed)
        assert returned

    def test_terms_are_values_subgradients_and_scale(self):
        active = np.array([0, 1])
        cones = ConeStack.of([SecondOrderCone(np.array([float(i), 1.0, 0.0]), 1.0 + i) for i in range(3)])
        f, g, scale = cones.terms(active)(np.array([0.5, -1.0]))
        assert f.shape == (2,) and g.shape == (2, 2) and scale == 2.0
        sets = [ConvexEpigraph(lambda x: float(x @ x), lambda x: 2 * x, 2) for _ in range(3)]
        f, g, scale = ConeStack.of(sets).terms(active)(np.array([3.0, 4.0]))
        assert f.tolist() == [25.0, 25.0] and g.tolist() == [[6.0, 8.0]] * 2 and scale == 10.0


class TestOracleStacks:
    """Stacks of ConvexEpigraphs finish from their oracles' values and
    subgradients when n + 1 of them bind; every other try falls back."""

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("shift, flip", [(0.0, 1.0), (17.25, -1.0)])
    @pytest.mark.parametrize("base", [9, 14, 17])
    def test_bench_pairs_finish_exactly(self, base, shift, flip, solver):
        quads = bench_quads(base, shift, flip)
        on, off = counted_quadratics(quads), counted_quadratics(quads)
        sol = solve_quadratics(solver, on, quads, ToleranceConfig())
        paper = solve_quadratics(solver, off, quads, PAPER)
        x, t = quadratics_minmax(quads)
        assert sol.finished and not paper.finished
        assert rel(sol.x_star, x) <= 1e-12 and rel(sol.t_star, t) <= 1e-12
        assert sol.distance == sol.t_star - (min(h for *_, h in quads) - 1.0)
        assert sol.inner_cycles_total <= 4 < 40 <= paper.inner_cycles_total
        assert sum(s.calls for s in on) * 10 < sum(s.calls for s in off)

    def test_a_try_over_at_most_n_epigraphs_calls_no_oracle(self):
        # without curvature the KKT system over |S| <= n sets is singular
        sets = [CountingEpigraph(lambda x: float(x @ x), lambda x: 2 * x, 2) for _ in range(3)]
        assert alternating.exchange(ConeStack.of(sets), np.array([0.5, 0.5, 1.0]), np.array([0, 1])) is None
        assert sum(s.calls for s in sets) == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_seeded_sweep(self, mode):
        # every finished answer matches an independent reference; a solve
        # that does not finish is the paper's, bit for bit, and its tries
        # cost at most 5 % more oracle calls. In 2-D only three functions
        # can bind n + 1 at a time; their stacks run at looser tolerances,
        # which keep the paper's solves short, and a proof does not depend
        # on them. The ring leaves out 1-D stack 6, whose paper solve takes
        # 280 cycles and 7 s at its l1 kink (see ROADMAP item 14)
        solver = SOLVERS[MODES.index(mode)]
        stacks = [(seed, 1, {}) for seed in range(24) if not (mode == "ring" and seed == 6)]
        stacks += [(seed, 2, {"err": 1e-3, "outer_tol": 1e-2}) for seed in (11, 13, 15, 17)]
        finished, calls = [], np.zeros(2)
        for seed, n, tol in stacks:
            sol, sets = solve_oracle_stack(solver, seed, n, **tol)
            if sol.finished:
                finished.append(n)
                fs, quads = oracle_stack(seed, n)
                ref = np.array(quadratics_minmax(quads)) if quads else slsqp_minmax(n, fs)
                assert rel(np.append(sol.x_star, sol.t_star), ref) <= 1e-9, (seed, n)
                continue
            paper, paper_sets = solve_oracle_stack(solver, seed, n, exact_finish=False, **tol)
            assert_identical(sol, paper)
            calls += [sum(s.calls for s in sets), sum(s.calls for s in paper_sets)]
        assert finished.count(1) >= 12 and finished.count(2) >= 1
        assert calls[0] <= 1.05 * calls[1]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", [1, 3, 11])
    def test_the_pivot_swaps_past_a_third_function(self, seed, mode):
        # three 1-D functions, of which the root of a binding pair leaves
        # the third above it: the ratio test swaps it in, and the pivot
        # proves the answer at the first try, in 3 inner cycles, with fewer
        # oracle calls than the paper's stop (a try that stopped at the
        # first root took 4 to 10 cycles in one mode or the other)
        solver = SOLVERS[MODES.index(mode)]
        sol, sets = solve_oracle_stack(solver, seed, 1)
        _, paper_sets = solve_oracle_stack(solver, seed, 1, exact_finish=False)
        fs, quads = oracle_stack(seed, 1)
        ref = np.array(quadratics_minmax(quads)) if quads else slsqp_minmax(1, fs)
        assert sol.finished and sol.inner_cycles_total == 3
        assert rel(np.append(sol.x_star, sol.t_star), ref) <= 1e-9
        assert sum(s.calls for s in sets) < sum(s.calls for s in paper_sets)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_one_quadratic_falls_back(self, solver):
        # the answer is its vertex, where one set binds: |S| = 1 <= n
        quads = [(1.5, 0.7, 0.2)]
        on, off = counted_quadratics(quads), counted_quadratics(quads)
        sol = solve_quadratics(solver, on, quads, ToleranceConfig())
        assert not sol.finished
        assert_identical(sol, solve_quadratics(solver, off, quads, PAPER))
        assert on[0].calls == off[0].calls
        assert abs(sol.x_star[0] - 0.7) <= 1e-5 and sol.t_star == pytest.approx(0.2, abs=1e-5)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_an_answer_on_an_l1_kink_falls_back(self, solver, monkeypatch):
        # (x - 0.3)^2 + |x| has its minimum 0.09 on its kink at x = 0, and
        # 3 (x - 0.15)^2 + 0.05 |x| lies below it there but crosses it near
        # x = 0.6, so only the first binds at the answer; the tries over
        # both reach that crossing, where no weights w >= 0 prove it
        fs = [
            (lambda x: float((x[0] - 0.3) ** 2 + abs(x[0])), lambda x: np.array([2 * (x[0] - 0.3) + np.sign(x[0])])),
            (lambda x: float(3 * (x[0] - 0.15) ** 2 + 0.05 * abs(x[0])),
             lambda x: np.array([6 * (x[0] - 0.15) + 0.05 * np.sign(x[0])])),
        ]
        sizes = count_tries(monkeypatch)
        p0 = PointTime(np.array([2.0]), 3.0)
        on = solver([ConvexEpigraph(f, g, 1) for f, g in fs], PLANE, p0, ToleranceConfig())
        assert 2 in sizes
        assert not on.finished
        assert_identical(on, solver([ConvexEpigraph(f, g, 1) for f, g in fs], PLANE, p0, PAPER))
        assert abs(on.x_star[0]) <= 1e-5 and on.t_star == pytest.approx(0.09, abs=1e-5)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_a_mixed_stack_never_tries(self, solver, monkeypatch):
        def never(*args):
            raise AssertionError("a mixed stack tried the finish")

        monkeypatch.setattr(alternating, "exchange", never)
        sets = [
            SecondOrderCone(np.array([-1.0, 0.0]), 1.0),
            ConvexEpigraph(lambda x: float((x[0] - 1.0) ** 2), lambda x: np.array([2.0 * (x[0] - 1.0)]), 1),
        ]
        p0 = PointTime(np.array([0.0]), 5.0)
        on = solver(sets, PLANE, p0, ToleranceConfig())
        assert not on.finished
        assert_identical(on, solver(sets, PLANE, p0, PAPER))


class TestFailingOracles:
    """An oracle that fails at a Newton iterate ends that try, not the
    solve: the solve is the paper's, bit for bit."""

    def stub(self, monkeypatch, fail):
        """The pair of bench_quads(9) as epigraphs whose oracles call
        fail(value, subgradient) while exchange() runs, and a list that
        counts the tries."""
        tries = []
        real = alternating.exchange

        def spy(*args):
            tries.append(True)
            try:
                return real(*args)
            finally:
                tries.append(False)

        monkeypatch.setattr(alternating, "exchange", spy)

        def epigraph(a, c, h):
            def value(x):
                f = a * (x[0] - c) ** 2 + h
                return fail(f, None) if tries and tries[-1] else f

            def subgrad(x):
                g = np.array([2.0 * a * (x[0] - c)])
                return fail(None, g) if tries and tries[-1] else g

            return ConvexEpigraph(value, subgrad, 1)

        return [epigraph(*q) for q in bench_quads(9)], tries

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize(
        "fail",
        [
            lambda f, g: np.inf if g is None else g,
            lambda f, g: f if g is None else np.array([np.nan]),
            lambda f, g: math.exp(1e3),
        ],
        ids=["inf-value", "nan-subgradient", "overflow"],
    )
    def test_a_failed_call_ends_the_try(self, solver, fail, monkeypatch):
        sets, tries = self.stub(monkeypatch, fail)
        quads = bench_quads(9)
        sol = solve_quadratics(solver, sets, quads, ToleranceConfig())
        assert tries and not sol.finished
        assert_identical(sol, solve_quadratics(solver, counted_quadratics(quads), quads, PAPER))

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_a_subgradient_of_the_wrong_length_raises(self, solver, monkeypatch):
        sets, _ = self.stub(monkeypatch, lambda f, g: f if g is None else np.append(g, 0.0))
        with pytest.raises(ProjectionError, match="length 1"):
            solve_quadratics(solver, sets, bench_quads(9), ToleranceConfig())


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
    @pytest.mark.filterwarnings("error::RuntimeWarning")
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
