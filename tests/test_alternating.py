import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import minmaxap
from minmaxap import (
    AgentDynamics,
    Ball,
    ConvergenceError,
    ConvexEpigraph,
    Halfspace,
    HorizontalHyperplane,
    Model,
    PointTime,
    SecondOrderCone,
    ToleranceConfig,
    dykstra_project,
    numeric_projection,
    run_ring,
    solve_min_time_consensus,
    solve_minmax,
)
from minmaxap import alternating
from minmaxap.alternating import MinMaxSolution, Trace, bregman_step

CFG = ToleranceConfig()
# ended by the paper's stop rule alone, for the tests that assert the paper
# loop's own mechanics: caps and cycle counts
PAPER = ToleranceConfig(exact_finish=False)


def pt(x, t):
    return PointTime(np.atleast_1d(np.asarray(x, float)), t)


def vec(x, t):
    """A raw (x..., t) point, as sets and dykstra_project take it."""
    return np.append(np.asarray(x, float), t)


class TestToleranceConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ToleranceConfig(err=0.0)
        with pytest.raises(ValueError):
            ToleranceConfig(max_outer_iters=0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_tolerances(self, tol):
        with pytest.raises(ValueError):
            ToleranceConfig(err=tol)
        with pytest.raises(ValueError):
            ToleranceConfig(outer_tol=tol)

    @pytest.mark.parametrize("field", ["err", "outer_tol"])
    def test_rejects_bool_tolerances(self, field):
        # JSON true would otherwise pass as the tolerance 1.0
        with pytest.raises(TypeError):
            ToleranceConfig(**{field: True})

    @pytest.mark.parametrize("cap", [1.5, 3.0, True])
    def test_rejects_non_integer_caps(self, cap):
        with pytest.raises(TypeError):
            ToleranceConfig(max_inner_cycles=cap)
        with pytest.raises(TypeError):
            ToleranceConfig(max_outer_iters=cap)

    @pytest.mark.parametrize("flag", [1, "yes", None])
    def test_rejects_non_bool_warm_start(self, flag):
        with pytest.raises(TypeError):
            ToleranceConfig(warm_start=flag)

    def test_warm_start_by_default(self):
        assert ToleranceConfig().warm_start is True
        assert ToleranceConfig(warm_start=False).warm_start is False


class TestDykstra:
    def test_nonpositive_quadrant(self):
        sets = [
            Halfspace(np.array([1.0, 0.0]), 0.0),  # x <= 0
            Halfspace(np.array([0.0, 1.0]), 0.0),  # t <= 0
        ]
        q = dykstra_project(sets, vec([1.0], 1.0), CFG)
        assert np.allclose(q, [0.0, 0.0], atol=1e-6)

    def test_single_set_reduces_to_projection(self):
        q = dykstra_project([HorizontalHyperplane(3.0)], vec([5.0], 0.0), CFG)
        assert np.allclose(q, [5.0, 3.0])

    def test_random_halfspaces_match_oracle(self):
        # plain cyclic projection lands anywhere on the intersection;
        # Dykstra must land on the orthogonal projection (oracle-checked)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            interior = rng.normal(scale=2, size=2)
            sets = []
            for _ in range(3):
                n = rng.normal(size=2)
                n /= np.linalg.norm(n)
                sets.append(Halfspace(n, float(n @ interior) + rng.uniform(0.05, 1.0)))
            p0 = vec(rng.normal(scale=4, size=1), rng.normal(scale=4))
            q = dykstra_project(sets, p0, CFG)
            o = numeric_projection(
                lambda z: all(s.contains(z, 1e-10) for s in sets),
                p0,
                feasible_hint=interior,
                seed=seed,
            )
            assert np.linalg.norm(q - o) < 1e-4

    def test_cycle_cap_failure_carries_iterate(self):
        # disjoint halfspaces: empty intersection, cap must trip
        sets = [
            Halfspace(np.array([1.0, 0.0]), -1.0),  # x <= -1
            Halfspace(np.array([-1.0, 0.0]), -1.0),  # x >= 1
        ]
        cfg = ToleranceConfig(err=1e-12, max_inner_cycles=50)
        with pytest.raises(ConvergenceError) as exc:
            dykstra_project(sets, vec([0.0], 0.0), cfg)
        assert exc.value.iterate is not None
        assert exc.value.residual > 0

    def test_fejer_monotone_toward_intersection(self):
        sets = [
            SecondOrderCone(vec([-1.0], 0.0), 1.0),
            SecondOrderCone(vec([1.0], 0.0), 1.0),
        ]
        inner = vec([0.0], 5.0)  # interior point of the intersection
        x = vec([3.0], -2.0)
        incs = [np.zeros(2) for _ in sets]
        dists = []
        for _ in range(30):
            for i, s in enumerate(sets):
                y = x - incs[i]
                px = s.project(y)
                incs[i] = px - y
                x = px
            dists.append(np.linalg.norm(x - inner))
        assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))


def textbook_dykstra(sets, p0, cfg, incs=None):
    """Cyclic Dykstra as written in textbooks: one projection per set per
    cycle, nothing skipped, from the given increments (zero by default).
    Returns the iterate and the cycle count."""
    x = p0
    incs = [np.zeros_like(x) for _ in sets] if incs is None else [r.copy() for r in incs]
    prev = prev_incs = None
    for cycle in range(1, cfg.max_inner_cycles + 1):
        for i, s in enumerate(sets):
            y = x - incs[i]
            px = s.project(y)
            incs[i] = px - y
            x = px
        if prev is not None:
            resid = float(np.linalg.norm(x - prev)) + sum(
                float(np.linalg.norm(a - b)) for a, b in zip(incs, prev_incs)
            )
            if resid < cfg.err:
                return x, cycle
        prev = x.copy()
        prev_incs = [a.copy() for a in incs]
    raise AssertionError("the textbook loop hit the cycle cap")


def random_cones(rng, n, dim):
    return [
        SecondOrderCone(
            vec(rng.uniform(-5.0, 5.0, size=dim), rng.uniform(-1.0, 1.0)),
            float(rng.uniform(0.5, 2.0)),
        )
        for _ in range(n)
    ]


class TestDykstraMatchesTextbook:
    """dykstra_project skips steps that would change nothing; its iterate and
    cycle count must equal the textbook loop's bit for bit."""

    def assert_same(self, sets, p0):
        stats = {}
        q = dykstra_project(sets, p0, CFG, stats=stats)
        x, cycles = textbook_dykstra(sets, p0, CFG)
        assert [float(v).hex() for v in q] == [float(v).hex() for v in x]
        assert stats["cycles"] == cycles

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32, 64])
    def test_cone_families(self, n, dim):
        rng = np.random.default_rng(100 * n + dim)
        cones = random_cones(rng, n, dim)
        centre = np.mean([c.apex[:-1] for c in cones], axis=0)
        # from the plane below (the solver's case) and from inside them all
        for t in (0.0, rng.uniform(-3.0, 3.0), 40.0):
            self.assert_same(cones, vec(centre + rng.normal(size=dim), t))

    def test_warm_run_from_the_last_increments(self):
        # the increments one run ends with start the next, from another
        # point of the plane below; a nonzero increment is never skipped
        rng = np.random.default_rng(11)
        cones = random_cones(rng, 16, 2)
        centre = np.mean([c.apex[:-1] for c in cones], axis=0)
        b = vec(centre, -5.0)
        stats = {}
        a = dykstra_project(cones, b, CFG, stats=stats)
        inc = stats["state"].increments
        active = [bool(r.any()) for r in inc]
        assert inc.shape == (16, 3) and any(active) and not all(active)
        b_next = vec(centre + rng.normal(size=2), -5.0)
        start = b_next + (a - b)
        x, cycles = textbook_dykstra(cones, start, CFG, incs=inc)
        q = dykstra_project(cones, start, CFG, stats=stats)
        assert [float(v).hex() for v in q] == [float(v).hex() for v in x]
        assert stats["cycles"] == cycles
        # updated in place, and the run still lands on the projection of b_next
        assert stats["state"].increments is inc
        assert np.linalg.norm(q - dykstra_project(cones, b_next, CFG)) < 1e-6

    def test_cone_stack_of_the_wrong_length_rejected(self):
        # a state belongs to the one list of sets it was built for
        cones = random_cones(np.random.default_rng(3), 4, 1)
        stats = {}
        dykstra_project(cones[:3], vec([0.0], 0.0), CFG, stats=stats)
        with pytest.raises(ValueError, match="built for another list of sets"):
            dykstra_project(cones, vec([0.0], 0.0), CFG, stats=stats)

    def test_mixed_family(self):
        # Halfspace and Ball have no batched test, so they are never skipped
        rng = np.random.default_rng(7)
        for _ in range(10):
            cones = [
                SecondOrderCone(vec(rng.uniform(-1.0, 1.0, size=2), rng.uniform(-1.0, 0.0)),
                                float(rng.uniform(0.5, 1.0)))
                for _ in range(3)
            ]
            others = [
                Halfspace(np.array([0.0, 0.0, 1.0]), 6.0),
                Ball(np.array([0.0, 0.0, 4.0]), 3.0),
            ]
            p0 = vec(rng.normal(scale=3.0, size=2), rng.normal(scale=3.0))
            self.assert_same(cones + others, p0)
            self.assert_same(others + cones[:1], p0)
            self.assert_same(others, p0)

    def test_starts_on_apex_and_near_surface(self):
        cones = [
            SecondOrderCone(vec([0.3, -0.2], 0.5), 1.5),
            SecondOrderCone(vec([-4.0, 1.0], -9.0), 1.0),
            SecondOrderCone(vec([3.0, 2.0], -8.0), 0.7),
        ]
        first = cones[0]
        self.assert_same(cones, first.apex.copy())
        u = np.array([0.6, 0.8])
        for r in (1e-3, 0.7, 5.0):
            x = first.apex[:-1] + r * u
            t = first.apex[-1] + first.slope * r
            for dt in (-1e-13, 0.0, 1e-13):
                self.assert_same(cones, vec(x, t + dt))
                self.assert_same(cones[::-1], vec(x, t + dt))


def a_star(r):
    return vec(r.x_star, r.t_star)


class TestBregman:
    def test_gap_sequence_nonincreasing(self):
        A = Ball(np.array([0.0, 0.0]), 1.0)
        B = Ball(np.array([5.0, 1.0]), 1.0)
        b = vec([0.0], 4.0)
        gaps = []
        for _ in range(40):
            a = A.project(b)
            b = B.project(a)
            gaps.append(np.linalg.norm(a - b))
        assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))


class TestSolveMinmax:
    def test_parallel_planes(self):
        B = HorizontalHyperplane(0.0)
        r = solve_minmax([HorizontalHyperplane(1.0)], B, pt([2.0], 9.0), CFG)
        assert np.allclose(a_star(r), [2.0, 1.0])
        assert np.allclose(B.project(a_star(r)), [2.0, 0.0])
        assert r.distance == pytest.approx(1.0)

    def test_cone_touching_plane(self):
        r = solve_minmax(
            [SecondOrderCone(vec([0.0], 0.0), 1.0)],
            HorizontalHyperplane(0.0),
            pt([4.0], 9.0),
            CFG,
        )
        assert np.allclose(a_star(r), [0.0, 0.0], atol=1e-5)
        assert r.distance == pytest.approx(0.0, abs=1e-5)

    def test_two_symmetric_cones(self):
        cones = [
            SecondOrderCone(vec([-1.0], 0.0), 1.0),
            SecondOrderCone(vec([1.0], 0.0), 1.0),
        ]
        sol = solve_minmax(cones, HorizontalHyperplane(0.0), pt([0.3], 2.0), CFG)
        assert sol.x_star[0] == pytest.approx(0.0, abs=1e-5)
        assert sol.t_star == pytest.approx(1.0, abs=1e-5)

    def test_single_cone_minimum_at_apex(self):
        cones = [SecondOrderCone(vec([3.0], 0.0), 2.0)]
        sol = solve_minmax(cones, HorizontalHyperplane(-1.0), pt([0.0], 5.0), CFG)
        assert sol.x_star[0] == pytest.approx(3.0, abs=1e-5)
        assert sol.t_star == pytest.approx(0.0, abs=1e-5)
        assert not sol.plane_grazed

    def test_experiment_one_in_squared_time(self):
        cones = [
            SecondOrderCone(vec([x], 0.0), 4.0)
            for x in (-3.542884, 3.001152, 6.924106, -18.0296)
        ]
        sol = solve_minmax(cones, HorizontalHyperplane(0.0), pt([0.0], 80.0), CFG)
        assert sol.x_star[0] == pytest.approx(-5.5527, abs=1e-3)
        assert np.sqrt(sol.t_star) == pytest.approx(7.0645, abs=1e-3)

    def test_result_is_a_minimum_under_perturbation(self):
        cones = [
            SecondOrderCone(vec([-2.0], 0.5), 1.3),
            SecondOrderCone(vec([1.5], 0.0), 0.8),
        ]
        fs = [lambda x: 1.3 * abs(x + 2.0) + 0.5, lambda x: 0.8 * abs(x - 1.5)]
        sol = solve_minmax(cones, HorizontalHyperplane(-1.0), pt([0.0], 9.0), CFG)
        assert max(f(sol.x_star[0]) for f in fs) == pytest.approx(
            sol.t_star, abs=CFG.outer_tol * 10
        )
        rng = np.random.default_rng(17)
        for _ in range(100):
            d = rng.choice([-0.1, 0.1])
            assert max(f(sol.x_star[0] + d) for f in fs) >= sol.t_star - CFG.outer_tol

    def test_plane_height_invariance(self):
        cones = [
            SecondOrderCone(vec([-1.0], 0.0), 1.0),
            SecondOrderCone(vec([2.0], 0.0), 2.0),
        ]
        sols = [
            solve_minmax(cones, HorizontalHyperplane(tm), pt([0.0], 6.0), CFG)
            for tm in (0.0, -2.5)
        ]
        assert abs(sols[0].x_star[0] - sols[1].x_star[0]) <= 10 * CFG.outer_tol

    def test_outer_cap_failure_carries_trace(self):
        # exp 1 takes 3 outer steps in both modes, and both end their
        # steps in bregman_step, so a cap of 2 fails alike in both
        cones = [
            SecondOrderCone(vec([x], 0.0), 4.0)
            for x in (-3.542884, 3.001152, 6.924106, -18.0296)
        ]
        plane, p0 = HorizontalHyperplane(0.0), pt([0.0], 80.0)
        errors = []
        for solver in (solve_minmax, run_ring):
            assert solver(cones, plane, p0, PAPER).outer_iters == 3
            with pytest.raises(ConvergenceError) as exc:
                solver(cones, plane, p0, ToleranceConfig(max_outer_iters=2, exact_finish=False))
            err = exc.value
            assert err.iterations == 2
            assert sum(r.bregman_event for r in err.trace) == 2
            assert list(err.trace)[-1].bregman_event
            # the residual is the iterate's gap to the plane
            assert err.residual == pytest.approx(err.iterate[-1] - plane.t_min, rel=1e-12)
            errors.append(err)
        central, ring = errors
        assert str(central) == str(ring) == "Bregman outer iteration cap reached"
        # both stop at the second run's intersection point
        assert np.linalg.norm(central.iterate - ring.iterate) < 1e-4
        assert central.residual == pytest.approx(ring.residual, abs=1e-4)
        assert [r.cycle for r in central.trace] == [1, 2]
        assert len(central.trace) < len(ring.trace)

    def test_trace_recorded(self):
        cones = [SecondOrderCone(vec([0.0], 0.0), 1.0)]
        plane = HorizontalHyperplane(-1.0)
        sol = solve_minmax(cones, plane, pt([2.0], 5.0), CFG)
        assert len(sol.trace) == sol.outer_iters
        last = list(sol.trace)[-1]
        assert np.array_equal(last.point, np.append(sol.x_star, sol.t_star))
        # the gap to the plane-side point (x, t_min) is the height above it
        assert last.point[-1] - plane.t_min == pytest.approx(sol.distance)


def quadratics_minmax(quads):
    """min over x of max_i a_i (x - c_i)^2 + h_i: the optimum is a vertex
    c_i or a crossing of two quadratics, so the best candidate is exact."""

    def worst(x):
        return max(a * (x - c) ** 2 + h for a, c, h in quads)

    xs = [c for _, c, _ in quads]
    for (ai, ci, hi), (aj, cj, hj) in itertools.combinations(quads, 2):
        qa, qb = ai - aj, -2.0 * (ai * ci - aj * cj)
        qc = ai * ci * ci - aj * cj * cj + hi - hj
        if qa != 0.0:
            disc = qb * qb - 4.0 * qa * qc
            if disc >= 0.0:
                r = math.sqrt(disc)
                xs += [(-qb - r) / (2.0 * qa), (-qb + r) / (2.0 * qa)]
        elif qb != 0.0:
            xs.append(-qc / qb)
    x = min(xs, key=worst)
    return x, worst(x)


def quadratic_epigraphs(quads):
    return [
        ConvexEpigraph(
            lambda x, a=a, c=c, h=h: a * (x[0] - c) ** 2 + h,
            lambda x, a=a, c=c: np.array([2.0 * a * (x[0] - c)]),
            1,
        )
        for a, c, h in quads
    ]


@pytest.mark.parametrize("solver", [solve_minmax, run_ring])
@pytest.mark.parametrize(
    "quads",
    [
        [(1.0, -1.0, 0.0), (2.0, 1.5, 0.5)],
        [(1.0, -1.0, 0.0), (0.5, 2.0, -0.5), (1.5, 0.5, 1.0)],
    ],
)
def test_solve_over_quadratic_epigraphs(solver, quads):
    # the sets are projected numerically (ConvexEpigraph), not in closed form
    sets = quadratic_epigraphs(quads)
    x0 = float(np.mean([c for _, c, _ in quads]))
    plane = HorizontalHyperplane(min(h for *_, h in quads) - 1.0)
    sol = solver(sets, plane, pt([x0], 10.0), CFG)
    x_ref, t_ref = quadratics_minmax(quads)
    assert sol.x_star[0] == pytest.approx(x_ref, abs=1e-6)
    assert sol.t_star == pytest.approx(t_ref, abs=1e-6)


def epigraph_answers():
    """x* and t* (in hex) and the counts of solve_minmax and run_ring over
    two 1-D quadratic epigraphs."""
    quads = [(1.0, -1.0, 0.0), (2.0, 1.5, 0.5)]
    answers = []
    for solver in (solve_minmax, run_ring):
        sol = solver(quadratic_epigraphs(quads), HorizontalHyperplane(-1.0), pt([0.25], 10.0), CFG)
        x, t = float(sol.x_star[0]), float(sol.t_star)
        answers.append([x.hex(), t.hex(), sol.outer_iters, sol.inner_cycles_total])
    return answers


def test_epigraph_solves_run_with_scipy_blocked():
    # scipy is a test dependency only: with every import of it failing, both
    # modes solve over epigraphs, to the bit, as in this process
    src = os.path.dirname(os.path.dirname(os.path.abspath(minmaxap.__file__)))
    code = (
        "import json, sys; sys.modules['scipy'] = None; sys.path.insert(0, sys.argv[1]);"
        " from test_alternating import epigraph_answers; print(json.dumps(epigraph_answers()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, os.path.dirname(os.path.abspath(__file__))],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    assert json.loads(out) == epigraph_answers()


def swarm(seed, n):
    """A seeded 2-D first-order swarm with unequal input bounds."""
    rng = np.random.default_rng(seed)
    return [
        AgentDynamics(Model.FIRST_ORDER, x, u_max=float(u))
        for x, u in zip(rng.uniform(-10.0, 10.0, (n, 2)), rng.uniform(0.5, 2.0, n))
    ]


class TestConeStackBuiltOnce:
    """solve_minmax builds one ConeStack per solve and hands it from run to
    run in its DykstraState; rebuilding it for every run changes nothing."""

    def test_one_stack_per_solve(self, monkeypatch):
        built = []

        class Counted(alternating.ConeStack):
            def __init__(self, sets):
                built.append(len(sets))
                super().__init__(sets)

        monkeypatch.setattr(alternating, "ConeStack", Counted)
        for cfg in (PAPER, ToleranceConfig(warm_start=False, exact_finish=False)):
            built.clear()
            r = solve_min_time_consensus(swarm(1, 16), cfg)
            assert r.solver.outer_iters > 2
            assert built == [16]

    def solve_both_ways(self, monkeypatch, solve):
        """solve() as it runs, and again with every inner run rebuilding
        its ConeStack, as each run did before the stack was kept."""
        kept = solve()
        project = alternating.dykstra_project
        states = []

        def rebuilt(sets, p0, cfg, stats=None):
            states.append(stats["state"])
            stats["state"].cones = alternating.ConeStack(sets)
            return project(sets, p0, cfg, stats=stats)

        with monkeypatch.context() as m:
            m.setattr(alternating, "dykstra_project", rebuilt)
            fresh = solve()
        # every run got the solve's one state and a stack of its own
        assert len(states) == fresh.outer_iters and all(s is states[0] for s in states)
        return kept, fresh

    def assert_identical(self, kept, fresh):
        assert kept.x_star.tobytes() == fresh.x_star.tobytes()
        assert float(kept.t_star).hex() == float(fresh.t_star).hex()
        assert (kept.inner_cycles_total, kept.outer_iters) == (fresh.inner_cycles_total, fresh.outer_iters)
        runs = [list(r.trace.runs()) for r in (kept, fresh)]
        assert len(runs[0]) == len(runs[1]) == kept.outer_iters
        for a, b in zip(*runs):
            assert a[:3] + a[4:] == b[:3] + b[4:] and a[3].tobytes() == b[3].tobytes()

    @pytest.mark.parametrize("warm", [True, False])
    @pytest.mark.parametrize("seed, n", [(0, 4), (1, 16), (2, 96)])
    def test_swarms_are_bit_identical(self, monkeypatch, seed, n, warm):
        agents, cfg = swarm(seed, n), ToleranceConfig(warm_start=warm)
        kept, fresh = self.solve_both_ways(
            monkeypatch, lambda: solve_min_time_consensus(agents, cfg).solver
        )
        self.assert_identical(kept, fresh)

    @pytest.mark.parametrize("warm", [True, False])
    def test_quadratic_epigraphs_are_bit_identical(self, monkeypatch, warm):
        sets = quadratic_epigraphs([(1.0, -1.0, 0.0), (2.0, 1.5, 0.5)])
        cfg = ToleranceConfig(warm_start=warm)
        kept, fresh = self.solve_both_ways(
            monkeypatch, lambda: solve_minmax(sets, HorizontalHyperplane(-1.0), pt([0.25], 10.0), cfg)
        )
        self.assert_identical(kept, fresh)


class TestBregmanStep:
    """The end of a Bregman step, as both solvers take it."""

    PLANE = HorizontalHyperplane(0.0)

    def state(self):
        """A DykstraState with every increment 1.0, tried on a support."""
        cones = [SecondOrderCone(vec([0.0], 0.0), 1.0), SecondOrderCone(vec([1.0], 0.0), 1.0)]
        state = alternating.DykstraState(cones, vec([0.5], 0.0), finish=True)
        for j in range(2):
            state.take(j, np.ones(2))
        state.tried = np.arange(2)
        return state

    def step(self, k, cfg, state=None):
        a, b_prev = vec([1.0], 2.0), vec([0.5], 0.0)
        state = self.state() if state is None else state
        b = self.PLANE.project(a)
        return a, b, b_prev, bregman_step(k, a, b, b_prev, state, 7, Trace(), self.PLANE, cfg)

    def test_warm_start_keeps_the_increments(self):
        state = self.state()
        increments = state.increments
        a, b, b_prev, start = self.step(1, CFG, state)
        assert np.array_equal(start, b + (a - b_prev))
        assert state.increments is increments and np.array_equal(increments, np.ones((2, 2)))
        assert not state.zero.any()
        # the support tried is forgotten all the same
        assert state.tried is None

    def test_cold_restart_zeroes_the_increments_in_place(self):
        state = self.state()
        increments = state.increments
        a, b, _, start = self.step(1, ToleranceConfig(warm_start=False), state)
        assert np.array_equal(start, b)
        # +0.0 in every component, in the state's own array, flagged so
        assert state.increments is increments and increments.tobytes() == bytes(increments.nbytes)
        assert state.zero.all()
        assert state.tried is None

    def test_stops_only_after_the_first_step(self):
        cfg = ToleranceConfig(outer_tol=1.0)
        # the plane point moved 0.5 < outer_tol, but one step proves nothing
        assert not isinstance(self.step(1, cfg)[-1], MinMaxSolution)
        a, b, _, sol = self.step(2, cfg)
        assert isinstance(sol, MinMaxSolution)
        assert (sol.outer_iters, sol.inner_cycles_total) == (2, 7)
        assert np.array_equal(vec(sol.x_star, sol.t_star), a)
        assert sol.distance == 2.0 and not sol.plane_grazed

    def test_cap_raises_with_the_iterate(self):
        with pytest.raises(ConvergenceError, match="Bregman outer iteration cap") as exc:
            self.step(3, ToleranceConfig(max_outer_iters=3))
        assert exc.value.iterations == 3
        assert np.array_equal(exc.value.iterate, vec([1.0], 2.0))
        assert exc.value.residual == 2.0
