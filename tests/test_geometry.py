import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from minmaxap import (
    AgentNode,
    Ball,
    ConvexEpigraph,
    DimensionMismatchError,
    Halfspace,
    HorizontalHyperplane,
    PointTime,
    ProjectionError,
    SecondOrderAttainableSet,
    SecondOrderCone,
    ToleranceConfig,
    dykstra_project,
    run_ring,
)
from minmaxap.geometry import ConeStack


def pt(x, t):
    return PointTime(np.atleast_1d(np.asarray(x, float)), t)


def vec(x, t):
    """A raw (x..., t) point, as the sets take it."""
    return np.append(np.asarray(x, float), t)


def dist(a, b):
    return float(np.linalg.norm(a - b))


def norm_epigraph(dim=1):
    return ConvexEpigraph(
        value=lambda x: float(np.linalg.norm(x)),
        subgrad=lambda x: x / np.linalg.norm(x) if np.linalg.norm(x) > 0 else 0 * x,
        dim=dim,
    )


class TestPointTime:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            pt([np.inf], 0.0)
        with pytest.raises(ValueError):
            pt([0.0], np.nan)

    def test_roundtrip(self):
        p = pt([1.0, 2.0], 3.0)
        q = PointTime.from_array(p.to_array())
        assert np.allclose(q.x, p.x) and q.t == p.t


class TestContains:
    def test_hyperplane_on_plane(self):
        assert HorizontalHyperplane(0.0).contains(vec([1.0], 0.0), 0.0)

    def test_cone_outside(self):
        c = SecondOrderCone(pt([0.0], 0.0), 1.0)
        assert not c.contains(vec([1.0], 0.5), 0.0)

    def test_cone_boundary(self):
        c = SecondOrderCone(pt([0.0], 0.0), 1.0)
        assert c.contains(vec([1.0], 1.0), 0.0)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            HorizontalHyperplane(0.0).contains(vec([0.0], 0.0), -1.0)


class TestHyperplaneProjection:
    @pytest.mark.parametrize(
        "p,tmin,expected",
        [
            (([1.0, 2.0], 5.0), 0.0, ([1.0, 2.0], 0.0)),
            (([0.0], -3.0), -3.0, ([0.0], -3.0)),
            (([4.0], 7.0), 2.0, ([4.0], 2.0)),
        ],
    )
    def test_examples(self, p, tmin, expected):
        q = HorizontalHyperplane(tmin).project(vec(*p))
        assert np.allclose(q[:-1], expected[0]) and q[-1] == expected[1]


def cone_projection_oracle(p, cone):
    """1-D minimization of distance over the cone boundary plus apex/interior."""
    a = cone.slope
    if cone.violation(p) <= 0:
        return p
    y = p[:-1] - cone.apex.x
    r = float(np.linalg.norm(y))
    u = y / r if r > 0 else np.eye(1, y.size)[0]

    def d2(rho):
        q = np.append(cone.apex.x + rho * u, cone.apex.t + a * rho)
        return float(np.sum((q - p) ** 2))

    res = minimize_scalar(d2, bounds=(0.0, r + abs(p[-1]) + 10), method="bounded",
                          options={"xatol": 1e-12})
    return np.append(cone.apex.x + res.x * u, cone.apex.t + a * res.x)


class TestConeProjection:
    def test_interior(self):
        c = SecondOrderCone(pt([0.0], 0.0), 1.0)
        q = c.project(vec([0.0], 5.0))
        assert np.allclose(q, [0.0, 5.0])

    def test_polar_cone_maps_to_apex(self):
        c = SecondOrderCone(pt([0.0], 0.0), 1.0)
        q = c.project(vec([1.0], -2.0))
        assert np.allclose(q, [0.0, 0.0])

    def test_boundary_case_derived(self):
        # expected value frozen from the 1-D boundary-minimization oracle
        c = SecondOrderCone(pt([0.0], 0.0), 1.0)
        q = c.project(vec([2.0], 0.0))
        assert np.allclose(q, [1.0, 1.0], atol=1e-12)
        o = cone_projection_oracle(vec([2.0], 0.0), c)
        assert dist(q, o) < 1e-6

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            apex = pt(rng.normal(size=2), rng.normal())
            cone = SecondOrderCone(apex, float(rng.uniform(0.3, 3.0)))
            p = vec(rng.normal(scale=3, size=2), rng.normal(scale=3))
            q = cone.project(p)
            o = cone_projection_oracle(p, cone)
            assert dist(q, o) < 1e-5

    def test_degenerate_r_zero_below_apex(self):
        c = SecondOrderCone(pt([0.0], 0.0), 1.0)
        q = c.project(vec([0.0], -1.0))
        assert np.allclose(q, [0.0, 0.0])


class TestEpigraphProjection:
    def test_interior_returned_exactly(self):
        epi = norm_epigraph()
        p = vec([0.0], 1.0)
        assert epi.project(p) is p

    def test_agrees_with_cone(self):
        epi = norm_epigraph()
        q = epi.project(vec([2.0], 0.0))
        assert np.allclose(q, [1.0, 1.0], atol=1e-6)

    def test_zero_function_upper_halfspace(self):
        epi = ConvexEpigraph(lambda x: 0.0, lambda x: 0 * x, dim=1)
        q = epi.project(vec([3.0], -2.0))
        assert np.allclose(q, [3.0, 0.0], atol=1e-7)

    def test_cone_epigraph_agreement_100_points(self):
        rng = np.random.default_rng(11)
        apex = pt([0.5, -0.25], 0.3)
        slope = 1.7
        cone = SecondOrderCone(apex, slope)
        epi = ConvexEpigraph(
            value=lambda x: slope * float(np.linalg.norm(x - apex.x)) + apex.t,
            subgrad=lambda x: (
                slope * (x - apex.x) / np.linalg.norm(x - apex.x)
                if np.linalg.norm(x - apex.x) > 0
                else 0 * x
            ),
            dim=2,
        )
        for _ in range(100):
            p = vec(rng.normal(scale=2, size=2), rng.normal(scale=2))
            qc = cone.project(p)
            qe = epi.project(p)
            assert dist(qc, qe) < 1e-6

    def test_nonfinite_oracle_raises_projection_error(self):
        def value(x):
            return float(x[0] ** 2) if x[0] <= 1 else float("nan")

        def subgrad(x):
            return 2 * x if x[0] <= 1 else np.array([np.nan])

        with pytest.raises(ProjectionError):
            ConvexEpigraph(value, subgrad, 1).project(vec([3.0], -1.0))
        # a finite value with a non-finite subgradient fails the same way
        with pytest.raises(ProjectionError):
            ConvexEpigraph(
                lambda x: float(x[0] ** 2), lambda x: np.full_like(x, np.nan), 1
            ).project(vec([3.0], -1.0))


# Accuracy of the numeric epigraph projection against exact references that
# share no code with minmaxap.


class CountingEpigraph(ConvexEpigraph):
    """A ConvexEpigraph that counts its value and subgradient calls."""

    def __init__(self, value, subgrad, dim):
        self.calls = 0

        def counted(fn):
            def call(x):
                self.calls += 1
                return fn(x)

            return call

        super().__init__(counted(value), counted(subgrad), dim)


def quadratic_cases():
    """60 quadratics a (x - c)^2 + h in 1-D, each with a point below its graph."""
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(60):
        a, c, h = rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)
        p = rng.normal(scale=3.0)
        s = a * (p - c) ** 2 + h - rng.uniform(1e-3, 8.0)
        cases.append((a, c, h, p, s))
    return cases


def quadratic_epigraph(a, c, h):
    return CountingEpigraph(
        lambda x: a * (x[0] - c) ** 2 + h, lambda x: np.array([2 * a * (x[0] - c)]), 1
    )


def quadratic_projection(a, c, h, p, s):
    """Nearest graph point: y = x - c solves the stationarity cubic
    2 a^2 y^3 + (1 + 2 a (h - s)) y + (c - p) = 0. Every candidate lies on
    the graph, so the nearest one is the projection."""
    ys = np.roots([2 * a * a, 0.0, 1 + 2 * a * (h - s), c - p]).real
    pts = [np.array([c + y, a * y * y + h]) for y in ys]
    return min(pts, key=lambda q: np.hypot(q[0] - p, q[1] - s))


def test_epigraph_projection_matches_cubic_roots_on_quadratics():
    for a, c, h, p, s in quadratic_cases():
        q = quadratic_epigraph(a, c, h).project(np.array([p, s]))
        assert np.linalg.norm(q - quadratic_projection(a, c, h, p, s)) < 1e-6


def test_epigraph_projection_oracle_budget_on_quadratics():
    calls = []
    for a, c, h, p, s in quadratic_cases():
        epi = quadratic_epigraph(a, c, h)
        epi.project(np.array([p, s]))
        calls.append(epi.calls)
    assert np.mean(calls) <= 100


def l1_quadratic_projection(a, c, lam1, v):
    """Projection onto the epigraph of sum a_i (x_i - c_i)^2 + lam1 ||x||_1.

    It is (prox_{m f}(v.x), v.t + m) for the multiplier m > 0 at which the
    point lands on the graph. The prox is a soft threshold per coordinate,
    and f(prox_{m f}(v.x)) - v.t - m falls in m, so m is bisected.
    """
    px, s = v[:-1], v[-1]

    def f(x):
        return float(np.sum(a * (x - c) ** 2) + lam1 * np.sum(np.abs(x)))

    def prox(m):
        z = px + 2 * m * a * c
        return np.sign(z) * np.maximum(np.abs(z) - m * lam1, 0.0) / (1 + 2 * m * a)

    lo, hi = 0.0, 1.0
    while f(prox(hi)) - s - hi > 0:
        lo, hi = hi, 2 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(prox(mid)) - s - mid > 0:
            lo = mid
        else:
            hi = mid
    return np.append(prox(hi), s + hi)


def test_epigraph_projection_matches_soft_threshold_on_l1_quadratics():
    rng = np.random.default_rng(22)
    for i in range(300):
        n = 1 + i % 3
        a, c = rng.uniform(0.2, 2.0, n), rng.uniform(-2.0, 2.0, n)
        lam1 = rng.uniform(0.1, 2.0)

        def f(x):
            return float(np.sum(a * (x - c) ** 2) + lam1 * np.sum(np.abs(x)))

        px = rng.normal(scale=3.0, size=n)
        v = np.append(px, f(px) - rng.uniform(1e-3, 8.0))
        epi = ConvexEpigraph(f, lambda x: 2 * a * (x - c) + lam1 * np.sign(x), n)
        q = epi.project(v)
        assert np.linalg.norm(q - l1_quadratic_projection(a, c, lam1, v)) < 1e-6


@pytest.mark.parametrize("n", [1, 3])
def test_epigraph_projection_matches_cone_formula(n):
    rng = np.random.default_rng(23 + n)
    for i in range(100):
        apex, apex_t, k = rng.normal(size=n), rng.normal(), rng.uniform(0.3, 3.0)
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        r = rng.uniform(0.0, 3.0)
        if i % 2:
            # in the polar cone, r <= -k (t - apex_t): projects onto the apex
            v = np.append(apex + r * u, apex_t - r / k - rng.uniform(0.0, 2.0))
            expected = np.append(apex, apex_t)
        else:
            # below the surface, outside the polar cone
            th = rng.uniform(-r / k, k * r)
            v = np.append(apex + r * u, apex_t + th)
            rho = (r + k * th) / (1 + k * k)
            expected = np.append(apex + rho * u, apex_t + k * rho)
        epi = ConvexEpigraph(
            lambda x: k * float(np.linalg.norm(x - apex)) + apex_t,
            lambda x: k * (x - apex) / max(np.linalg.norm(x - apex), 1e-300),
            n,
        )
        assert np.linalg.norm(epi.project(v) - expected) < 1e-6


ALL_SETS = [
    HorizontalHyperplane(0.5),
    SecondOrderCone(PointTime(np.array([0.2]), -0.3), 1.4),
    Halfspace(np.array([1.0, 2.0]), 1.0),
    Ball(np.array([0.0, 1.0]), 2.0),
]


@pytest.mark.parametrize("s", ALL_SETS, ids=lambda s: type(s).__name__)
class TestProjectionProperties:
    def test_idempotent(self, s):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = vec(rng.normal(scale=4, size=1), rng.normal(scale=4))
            q = s.project(p)
            assert dist(q, s.project(q)) == 0.0

    def test_nonexpansive(self, s):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            a = vec(rng.normal(scale=4, size=1), rng.normal(scale=4))
            b = vec(rng.normal(scale=4, size=1), rng.normal(scale=4))
            lhs = dist(s.project(a), s.project(b))
            assert lhs <= dist(a, b) + 1e-12

    def test_variational_inequality(self, s):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = vec(rng.normal(scale=4, size=1), rng.normal(scale=4))
            q = s.project(p)
            for _ in range(100):
                z = vec(rng.normal(scale=4, size=1), rng.normal(scale=4))
                z = s.project(z)  # sampled feasible point
                ip = float((p - q) @ (z - q))
                tol = 1e-9 * dist(p, q) * dist(z, q) + 1e-12
                assert ip <= tol


# every set type with one point inside it
SETS_WITH_INSIDE = [
    (ALL_SETS[0], [3.0, 0.5]),
    (ALL_SETS[1], [0.2, 5.0]),
    (ALL_SETS[2], [0.0, 0.0]),
    (ALL_SETS[3], [0.5, 1.0]),
    (norm_epigraph(), [0.5, 3.0]),
    (SecondOrderAttainableSet(0.5, 1.5), [0.5, 10.0]),
]


@pytest.mark.parametrize(
    "s,inside", SETS_WITH_INSIDE, ids=[type(s).__name__ for s, _ in SETS_WITH_INSIDE]
)
def test_project_returns_inside_points_themselves(s, inside):
    rng = np.random.default_rng(11)
    points = [np.array(inside)]
    points += [rng.normal(scale=4, size=2) for _ in range(20)]
    for v in points:
        if s.contains(v):
            assert s.project(v) is v
    assert s.contains(points[0])


# every set type that has a fixed dimension, given a point of the wrong length
SETS_WITH_DIM = [s for s, _ in SETS_WITH_INSIDE if not isinstance(s, HorizontalHyperplane)]


@pytest.mark.parametrize("s", SETS_WITH_DIM, ids=lambda s: type(s).__name__)
def test_wrong_length_point_raises_dimension_mismatch(s):
    v = np.zeros(s.dim + 2)
    with pytest.raises(DimensionMismatchError):
        s.violation(v)
    with pytest.raises(DimensionMismatchError):
        s.contains(v, 0.0)
    with pytest.raises(DimensionMismatchError):
        dykstra_project([s], v, ToleranceConfig())
    with pytest.raises(DimensionMismatchError):
        run_ring([AgentNode(1, s)], HorizontalHyperplane(0.0), pt([0.0, 0.0], 1.0),
                 ToleranceConfig())


def test_cone_stack_inside_only_where_projection_keeps_the_point():
    rng = np.random.default_rng(12)
    cones = [
        SecondOrderCone(pt(rng.normal(size=2), rng.normal()), float(rng.uniform(0.3, 3.0)))
        for _ in range(20)
    ]
    sets = cones + [Halfspace(np.array([0.0, 0.0, 1.0]), 100.0), Ball(np.zeros(3), 100.0)]
    stack = ConeStack(sets)
    c = cones[0]
    u = np.array([0.6, 0.8])
    points = [rng.normal(scale=3, size=3) for _ in range(200)]
    points += [c.apex.to_array()]
    points += [
        np.append(c.apex.x + r * u, c.apex.t + c.slope * r + dt)
        for r in (1e-3, 1.0, 7.0)
        for dt in (-1e-13, 0.0, 1e-13, 1e-9)
    ]
    found = 0
    for v in points:
        inside = stack.inside(v)
        assert inside.shape == (len(sets),)
        assert not inside[len(cones):].any()
        for s, flag in zip(cones, inside):
            if flag:
                assert s.project(v) is v
        found += int(inside.sum())
        assert np.array_equal(stack.inside(v, 5), inside[5:])
    assert found > 0
    # well inside every cone at once
    assert stack.inside(np.array([0.0, 0.0, 100.0]))[: len(cones)].all()


def test_cone_stack_first_nontrivial():
    cones = [SecondOrderCone(pt([x], 0.0), 1.0) for x in (0.0, 1.0, 2.0)]
    half = Halfspace(np.array([0.0, 1.0]), 100.0)
    stack = ConeStack([cones[0], cones[1], half, cones[2]])
    v = vec([1.0], 10.0)  # strictly inside every set
    zero = np.ones(4, dtype=bool)
    # the halfspace holds v too, but only a cone is ever found trivial
    assert stack.first_nontrivial(v, zero, 0) == 2
    assert stack.first_nontrivial(v, zero, 3) == 4
    # a nonzero increment makes the step real, wherever v lies
    zero[1] = False
    assert stack.first_nontrivial(v, zero, 0) == 1
    assert stack.first_nontrivial(v, zero, 1) == 1
    # v outside the first cone and on the boundary of the last
    assert stack.first_nontrivial(vec([1.0], 0.5), np.ones(4, dtype=bool), 0) == 0
    assert stack.first_nontrivial(vec([1.0], 1.0), np.ones(4, dtype=bool), 3) == 3
    # with no cone in the stack every step is real
    plain = ConeStack([half, Ball(np.zeros(2), 50.0)])
    assert not plain.any
    assert plain.first_nontrivial(v, np.ones(2, dtype=bool), 0) == 0
    assert plain.first_nontrivial(v, np.ones(2, dtype=bool), 1) == 1


@given(
    x=st.floats(-50, 50),
    t=st.floats(-50, 50),
    tmin=st.floats(-10, 10),
)
@settings(max_examples=200, deadline=None)
def test_hyperplane_projection_is_closest_point(x, t, tmin):
    plane = HorizontalHyperplane(tmin)
    p = vec([x], t)
    q = plane.project(p)
    assert q[-1] == tmin
    # any other plane point is at least as far
    assert dist(p, q) <= dist(p, vec([x + 1.0], tmin))


@given(
    px=st.floats(-20, 20), pt_=st.floats(-20, 20),
    qx=st.floats(-20, 20), qt=st.floats(-20, 20),
)
@settings(max_examples=200, deadline=None)
def test_cone_projection_nonexpansive_hypothesis(px, pt_, qx, qt):
    cone = SecondOrderCone(PointTime(np.array([0.0]), 0.0), 1.0)
    a, b = vec([px], pt_), vec([qx], qt)
    assert dist(cone.project(a), cone.project(b)) <= dist(a, b) + 1e-9


def test_midpoint_convexity_spot_check_for_epigraph_oracle():
    # the epigraph contract assumes a convex f; spot-check the test oracle
    f = lambda x: float(np.linalg.norm(x))
    rng = np.random.default_rng(9)
    for _ in range(100):
        a, b = rng.normal(size=2), rng.normal(size=2)
        assert f((a + b) / 2) <= (f(a) + f(b)) / 2 + 1e-12
