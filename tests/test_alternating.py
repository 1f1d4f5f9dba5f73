import numpy as np
import pytest

from minmaxap import (
    Ball,
    ConvergenceError,
    Halfspace,
    HorizontalHyperplane,
    PointTime,
    SecondOrderCone,
    ToleranceConfig,
    bregman_alternate,
    dykstra_project,
    numeric_projection,
    solve_minmax,
)

CFG = ToleranceConfig()


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
            SecondOrderCone(pt([-1.0], 0.0), 1.0),
            SecondOrderCone(pt([1.0], 0.0), 1.0),
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


def textbook_dykstra(sets, p0, cfg):
    """Cyclic Dykstra as written in textbooks: one projection per set per
    cycle, nothing skipped. Returns the iterate and the cycle count."""
    x = p0
    incs = [np.zeros_like(x) for _ in sets]
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
            pt(rng.uniform(-5.0, 5.0, size=dim), rng.uniform(-1.0, 1.0)),
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
        centre = np.mean([c.apex.x for c in cones], axis=0)
        # from the plane below (the solver's case) and from inside them all
        for t in (0.0, rng.uniform(-3.0, 3.0), 40.0):
            self.assert_same(cones, vec(centre + rng.normal(size=dim), t))

    def test_mixed_family(self):
        # Halfspace and Ball have no batched test, so they are never skipped
        rng = np.random.default_rng(7)
        for _ in range(10):
            cones = [
                SecondOrderCone(pt(rng.uniform(-1.0, 1.0, size=2), rng.uniform(-1.0, 0.0)),
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
            SecondOrderCone(pt([0.3, -0.2], 0.5), 1.5),
            SecondOrderCone(pt([-4.0, 1.0], -9.0), 1.0),
            SecondOrderCone(pt([3.0, 2.0], -8.0), 0.7),
        ]
        first = cones[0]
        self.assert_same(cones, first.apex.to_array())
        u = np.array([0.6, 0.8])
        for r in (1e-3, 0.7, 5.0):
            x = first.apex.x + r * u
            t = first.apex.t + first.slope * r
            for dt in (-1e-13, 0.0, 1e-13):
                self.assert_same(cones, vec(x, t + dt))
                self.assert_same(cones[::-1], vec(x, t + dt))


def a_star(r):
    return vec(r.x_star, r.t_star)


class TestBregman:
    def test_parallel_planes(self):
        B = HorizontalHyperplane(0.0)
        r = bregman_alternate([HorizontalHyperplane(1.0)], B, pt([2.0], 9.0), CFG)
        assert np.allclose(a_star(r), [2.0, 1.0])
        assert np.allclose(B.project(a_star(r)), [2.0, 0.0])
        assert r.distance == pytest.approx(1.0)

    def test_disjoint_discs(self):
        A = Ball(np.array([0.0, 0.0]), 1.0)
        B = Ball(np.array([3.0, 0.0]), 1.0)
        r = bregman_alternate([A], B, pt([0.0], 3.0), CFG)
        assert np.allclose(a_star(r), [1.0, 0.0], atol=1e-4)
        assert np.allclose(B.project(a_star(r)), [2.0, 0.0], atol=1e-4)
        assert r.distance == pytest.approx(1.0, abs=1e-4)

    def test_cone_touching_plane(self):
        r = bregman_alternate(
            [SecondOrderCone(pt([0.0], 0.0), 1.0)],
            HorizontalHyperplane(0.0),
            pt([4.0], 9.0),
            CFG,
        )
        assert np.allclose(a_star(r), [0.0, 0.0], atol=1e-5)
        assert r.distance == pytest.approx(0.0, abs=1e-5)

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

    def test_outer_cap_failure(self):
        A = Ball(np.array([0.0, 0.0]), 1.0)
        B = Ball(np.array([3.0, 0.0]), 1.0)
        cfg = ToleranceConfig(outer_tol=1e-14, max_outer_iters=3)
        with pytest.raises(ConvergenceError) as exc:
            bregman_alternate([A], B, pt([0.0], 3.0), cfg)
        assert exc.value.residual is not None


class TestSolveMinmax:
    def test_two_symmetric_cones(self):
        cones = [
            SecondOrderCone(pt([-1.0], 0.0), 1.0),
            SecondOrderCone(pt([1.0], 0.0), 1.0),
        ]
        sol = solve_minmax(cones, HorizontalHyperplane(0.0), pt([0.3], 2.0), CFG)
        assert sol.x_star[0] == pytest.approx(0.0, abs=1e-5)
        assert sol.t_star == pytest.approx(1.0, abs=1e-5)

    def test_single_cone_minimum_at_apex(self):
        cones = [SecondOrderCone(pt([3.0], 0.0), 2.0)]
        sol = solve_minmax(cones, HorizontalHyperplane(-1.0), pt([0.0], 5.0), CFG)
        assert sol.x_star[0] == pytest.approx(3.0, abs=1e-5)
        assert sol.t_star == pytest.approx(0.0, abs=1e-5)
        assert not sol.plane_grazed

    def test_experiment_one_in_squared_time(self):
        cones = [
            SecondOrderCone(pt([x], 0.0), 4.0)
            for x in (-3.542884, 3.001152, 6.924106, -18.0296)
        ]
        sol = solve_minmax(cones, HorizontalHyperplane(0.0), pt([0.0], 80.0), CFG)
        assert sol.x_star[0] == pytest.approx(-5.5527, abs=1e-3)
        assert np.sqrt(sol.t_star) == pytest.approx(7.0645, abs=1e-3)

    def test_result_is_a_minimum_under_perturbation(self):
        cones = [
            SecondOrderCone(pt([-2.0], 0.5), 1.3),
            SecondOrderCone(pt([1.5], 0.0), 0.8),
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
            SecondOrderCone(pt([-1.0], 0.0), 1.0),
            SecondOrderCone(pt([2.0], 0.0), 2.0),
        ]
        sols = [
            solve_minmax(cones, HorizontalHyperplane(tm), pt([0.0], 6.0), CFG)
            for tm in (0.0, -2.5)
        ]
        assert abs(sols[0].x_star[0] - sols[1].x_star[0]) <= 10 * CFG.outer_tol

    def test_outer_cap_failure_carries_trace(self):
        cones = [SecondOrderCone(pt([-1.0], 0.0), 1.0), SecondOrderCone(pt([2.0], 0.0), 2.0)]
        cfg = ToleranceConfig(max_outer_iters=2)
        with pytest.raises(ConvergenceError) as exc:
            solve_minmax(cones, HorizontalHyperplane(0.0), pt([0.0], 6.0), cfg)
        assert [r.cycle for r in exc.value.trace] == [1, 2]

    def test_trace_recorded(self):
        cones = [SecondOrderCone(pt([0.0], 0.0), 1.0)]
        plane = HorizontalHyperplane(-1.0)
        sol = solve_minmax(cones, plane, pt([2.0], 5.0), CFG)
        assert len(sol.trace) == sol.outer_iters
        last = sol.trace[-1]
        assert np.array_equal(last.point, np.append(sol.x_star, sol.t_star))
        # the gap to the plane-side point (x, t_min) is the height above it
        assert last.point[-1] - plane.t_min == pytest.approx(sol.distance)
