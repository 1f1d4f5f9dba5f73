import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from minmaxap import (
    AgentDynamics,
    Ball,
    ConvexEpigraph,
    DimensionMismatchError,
    Halfspace,
    HorizontalHyperplane,
    Model,
    PointTime,
    ProjectionError,
    SecondOrderAttainableSet,
    SecondOrderCone,
    ToleranceConfig,
    dykstra_project,
    run_ring,
)
from minmaxap.geometry import ConeStack, norm, plus_zero


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

    def test_to_array_is_x_then_t(self):
        a = pt([1.0, 2.0], 3.0).to_array()
        assert type(a) is np.ndarray and a.tolist() == [1.0, 2.0, 3.0]


def _epigraph(dim):
    return ConvexEpigraph(lambda x: 0.0, lambda x: 0 * x, dim)


# (constructor, error) pairs: every parameter a set, a point or a solver
# config is built from must be a finite number of the right kind
BAD_SETS = {
    "cone-nan-slope": (lambda: SecondOrderCone(vec([0.0], 0.0), np.nan), ValueError),
    "cone-inf-slope": (lambda: SecondOrderCone(vec([0.0], 0.0), np.inf), ValueError),
    "cone-zero-slope": (lambda: SecondOrderCone(vec([0.0], 0.0), 0.0), ValueError),
    "cone-bool-slope": (lambda: SecondOrderCone(vec([0.0], 0.0), True), TypeError),
    "cone-apex-no-x": (lambda: SecondOrderCone(np.array([0.0]), 1.0), ValueError),
    "cone-nan-apex": (lambda: SecondOrderCone(vec([np.nan], 0.0), 1.0), ValueError),
    "cone-bool-apex": (lambda: SecondOrderCone([0.5, True], 1.0), TypeError),
    "cone-string-apex": (lambda: SecondOrderCone("0.5", 1.0), TypeError),
    "ball-nan-radius": (lambda: Ball(np.zeros(2), np.nan), ValueError),
    "ball-inf-radius": (lambda: Ball(np.zeros(2), np.inf), ValueError),
    "ball-nan-center": (lambda: Ball(np.array([np.nan, 0.0]), 1.0), ValueError),
    "ball-inf-center": (lambda: Ball(np.array([0.0, np.inf]), 1.0), ValueError),
    "halfspace-nan-offset": (lambda: Halfspace(np.array([0.0, -1.0]), np.nan), ValueError),
    "halfspace-inf-offset": (lambda: Halfspace(np.array([0.0, -1.0]), np.inf), ValueError),
    "halfspace-bool-offset": (lambda: Halfspace(np.array([0.0, -1.0]), True), TypeError),
    "halfspace-zero-normal": (lambda: Halfspace(np.zeros(2), 1.0), ValueError),
    "ball-bool-center": (lambda: Ball([0.0, True], 1.0), TypeError),
    "plane-bool-t_min": (lambda: HorizontalHyperplane(True), TypeError),
    "plane-nan-t_min": (lambda: HorizontalHyperplane(np.nan), ValueError),
    "point-bool-t": (lambda: PointTime([1.0], True), TypeError),
    "point-bool-x": (lambda: PointTime([True], 0.0), TypeError),
    "point-bool-among-floats-x": (lambda: PointTime([0.5, True], 0.0), TypeError),
    "point-string-x": (lambda: PointTime(["1.5"], 0.0), TypeError),
    "epigraph-dim-0": (lambda: _epigraph(0), ValueError),
    "epigraph-dim-1.5": (lambda: _epigraph(1.5), TypeError),
    "tolerance-int64-cap-0": (lambda: ToleranceConfig(max_inner_cycles=np.int64(0)), ValueError),
}


@pytest.mark.parametrize("case", sorted(BAD_SETS))
def test_set_parameters_validated_at_construction(case):
    build, error = BAD_SETS[case]
    with pytest.raises(error):
        build()


def test_numpy_integer_dim_accepted():
    assert _epigraph(np.int64(3)).dim == 3
    # an iteration cap passes the same integer check
    assert ToleranceConfig(max_inner_cycles=np.int64(100)).max_inner_cycles == 100


class TestContains:
    def test_hyperplane_on_plane(self):
        assert HorizontalHyperplane(0.0).contains(vec([1.0], 0.0), 0.0)
        # the plane exists in the dimension of every point
        assert HorizontalHyperplane(0.0).contains(vec([1.0, 2.0, 3.0], 0.0), 0.0)

    def test_cone_outside(self):
        c = SecondOrderCone(vec([0.0], 0.0), 1.0)
        assert not c.contains(vec([1.0], 0.5), 0.0)

    def test_cone_boundary(self):
        c = SecondOrderCone(vec([0.0], 0.0), 1.0)
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
    y = p[:-1] - cone.apex[:-1]
    r = float(np.linalg.norm(y))
    u = y / r if r > 0 else np.eye(1, y.size)[0]

    def d2(rho):
        q = np.append(cone.apex[:-1] + rho * u, cone.apex[-1] + a * rho)
        return float(np.sum((q - p) ** 2))

    res = minimize_scalar(d2, bounds=(0.0, r + abs(p[-1]) + 10), method="bounded",
                          options={"xatol": 1e-12})
    return np.append(cone.apex[:-1] + res.x * u, cone.apex[-1] + a * res.x)


class TestConeProjection:
    def test_interior(self):
        c = SecondOrderCone(vec([0.0], 0.0), 1.0)
        q = c.project(vec([0.0], 5.0))
        assert np.allclose(q, [0.0, 5.0])

    def test_polar_cone_maps_to_apex(self):
        c = SecondOrderCone(vec([0.0], 0.0), 1.0)
        q = c.project(vec([1.0], -2.0))
        assert np.allclose(q, [0.0, 0.0])
        # a copy: whoever holds the projection cannot move the apex
        assert not np.shares_memory(q, c.apex)
        # nor can whoever holds the array a set, a point or an agent was
        # built from
        a = np.array([0.0, 0.0])
        built = {
            "apex": SecondOrderCone(a, 1.0),
            "center": Ball(a, 1.0),
            "x": PointTime(a, 0.0),
            "x0": AgentDynamics(Model.FIRST_ORDER, a),
        }
        a[0] = 3.0
        for field, obj in built.items():
            assert getattr(obj, field).tolist() == [0.0, 0.0], field

    def test_boundary_case_derived(self):
        # expected value frozen from the 1-D boundary-minimization oracle
        c = SecondOrderCone(vec([0.0], 0.0), 1.0)
        q = c.project(vec([2.0], 0.0))
        assert np.allclose(q, [1.0, 1.0], atol=1e-12)
        o = cone_projection_oracle(vec([2.0], 0.0), c)
        assert dist(q, o) < 1e-6

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            apex = vec(rng.normal(size=2), rng.normal())
            cone = SecondOrderCone(apex, float(rng.uniform(0.3, 3.0)))
            p = vec(rng.normal(scale=3, size=2), rng.normal(scale=3))
            q = cone.project(p)
            o = cone_projection_oracle(p, cone)
            assert dist(q, o) < 1e-5

    def test_degenerate_r_zero_below_apex(self):
        c = SecondOrderCone(vec([0.0], 0.0), 1.0)
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
        apex_x, apex_t = np.array([0.5, -0.25]), 0.3
        slope = 1.7
        cone = SecondOrderCone(vec(apex_x, apex_t), slope)
        epi = ConvexEpigraph(
            value=lambda x: slope * float(np.linalg.norm(x - apex_x)) + apex_t,
            subgrad=lambda x: (
                slope * (x - apex_x) / np.linalg.norm(x - apex_x)
                if np.linalg.norm(x - apex_x) > 0
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

    def test_nonfinite_oracle_at_a_later_iterate_raises_projection_error(self):
        # finite at the start x = 3, NaN below 2.9, where SLSQP heads: the
        # projection of (3, -1) onto the graph of x^2 has x near 0.69
        def value(x):
            return float(x[0] ** 2) if x[0] >= 2.9 else float("nan")

        def subgrad(x):
            return 2 * x if x[0] >= 2.9 else np.array([np.nan])

        tried = []

        def square(x):
            tried.append(float(x[0]))
            return float(x[0] ** 2)

        with pytest.raises(ProjectionError, match="non-finite value"):
            ConvexEpigraph(value, lambda x: 2 * x, 1).project(vec([3.0], -1.0))
        with pytest.raises(ProjectionError, match="non-finite subgradient"):
            ConvexEpigraph(square, subgrad, 1).project(vec([3.0], -1.0))
        assert tried[0] == 3.0 and min(tried) < 2.9

    def test_projection_is_a_pure_function(self):
        # nothing of one call carries over to the next: the same v gives the
        # same bits again, after other points, and on a fresh instance
        def make():
            return ConvexEpigraph(
                lambda x: float(np.sum(x**2) + abs(x[0])), lambda x: 2 * x + np.sign(x[0]), 2
            )

        epi = make()
        points = [vec([3.0, 1.0], -1.0), vec([-0.7, 0.2], -2.0), vec([0.2, -1.5], 0.5)]
        first = [epi.project(v) for v in points]
        again = [epi.project(v) for v in reversed(points)][::-1]
        fresh = [make().project(v) for v in points]
        for v, q, r, s in zip(points, first, again, fresh):
            assert q is not v
            assert q.tobytes() == r.tobytes() == s.tobytes()
            assert epi.value(q[:-1]) <= q[-1]


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


def test_epigraph_projection_calls_the_value_oracle_once_at_the_start():
    # SLSQP starts at v.x and evaluates the constraint there twice more;
    # both reuse f(v.x), so the oracle sees v.x once per projection
    for a, c, h, p, s in quadratic_cases():
        at_start = []

        def value(x, a=a, c=c, h=h, p=p):
            at_start.append(x[0] == p)
            return a * (x[0] - c) ** 2 + h

        ConvexEpigraph(value, lambda x, a=a, c=c: np.array([2 * a * (x[0] - c)]), 1).project(
            np.array([p, s])
        )
        assert sum(at_start) == 1


def test_epigraph_projection_stops_on_its_certificate():
    # the subgradient cuts prove the best lifted point accurate long before
    # SLSQP's merit function stalls: 14.1 calls on average and 35 at most,
    # where SLSQP run to its ftol took 38.9 and 339
    calls, errors = [], []
    for a, c, h, p, s in quadratic_cases():
        epi = quadratic_epigraph(a, c, h)
        q = epi.project(np.array([p, s]))
        calls.append(epi.calls)
        errors.append(np.linalg.norm(q - quadratic_projection(a, c, h, p, s)))
    assert np.mean(calls) <= 25
    assert max(calls) <= 100
    assert max(errors) <= 5e-8


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


def epigraph_families():
    """The cases of the four accuracy tests above, from the same seeds, by
    family: (value, subgradient, dim, v, projection) each."""
    families = {"quadratics": [], "l1-quadratics": [], "cone, n = 3": [], "cone, n = 1": []}
    for a, c, h, p, s in quadratic_cases():
        families["quadratics"].append(
            (
                lambda x, a=a, c=c, h=h: a * (x[0] - c) ** 2 + h,
                lambda x, a=a, c=c: np.array([2 * a * (x[0] - c)]),
                1,
                np.array([p, s]),
                quadratic_projection(a, c, h, p, s),
            )
        )
    rng = np.random.default_rng(22)
    for i in range(300):
        n = 1 + i % 3
        a, c = rng.uniform(0.2, 2.0, n), rng.uniform(-2.0, 2.0, n)
        lam1 = rng.uniform(0.1, 2.0)

        def f(x, a=a, c=c, lam1=lam1):
            return float(np.sum(a * (x - c) ** 2) + lam1 * np.sum(np.abs(x)))

        px = rng.normal(scale=3.0, size=n)
        v = np.append(px, f(px) - rng.uniform(1e-3, 8.0))
        families["l1-quadratics"].append(
            (
                f,
                lambda x, a=a, c=c, lam1=lam1: 2 * a * (x - c) + lam1 * np.sign(x),
                n,
                v,
                l1_quadratic_projection(a, c, lam1, v),
            )
        )
    for n in (3, 1):
        rng = np.random.default_rng(23 + n)
        for i in range(100):
            apex, apex_t, k = rng.normal(size=n), rng.normal(), rng.uniform(0.3, 3.0)
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            r = rng.uniform(0.0, 3.0)
            if i % 2:
                v = np.append(apex + r * u, apex_t - r / k - rng.uniform(0.0, 2.0))
                expected = np.append(apex, apex_t)
            else:
                th = rng.uniform(-r / k, k * r)
                v = np.append(apex + r * u, apex_t + th)
                rho = (r + k * th) / (1 + k * k)
                expected = np.append(apex + rho * u, apex_t + k * rho)
            families[f"cone, n = {n}"].append(
                (
                    lambda x, apex=apex, apex_t=apex_t, k=k: k * float(np.linalg.norm(x - apex))
                    + apex_t,
                    lambda x, apex=apex, k=k: k * (x - apex) / max(np.linalg.norm(x - apex), 1e-300),
                    n,
                    v,
                    expected,
                )
            )
    return families


@pytest.mark.parametrize(
    "family, budget", [("l1-quadratics", 56.4), ("cone, n = 3", 17.1), ("cone, n = 1", 6.5)]
)
def test_epigraph_projection_oracle_budget_on_kinked_families(family, budget):
    # the mean value and subgradient calls per projection when each budget
    # was set (45.15, 13.71 and 5.21), plus 25 %; at the apex of a cone the
    # kink is found from the cut of a rejected step and the cut at z
    calls = []
    for value, subgrad, dim, v, _ in epigraph_families()[family]:
        epi = CountingEpigraph(value, subgrad, dim)
        epi.project(v)
        calls.append(epi.calls)
    assert np.mean(calls) <= budget


def test_epigraph_projection_is_accurate_on_l1_quadratics():
    # the kinks of the l1 term stall the merit function well before the
    # gap closes; only the certificate, a step at rounding level, a
    # direction that is no descent or the iteration cap may end a
    # projection, which leaves it within 5.04e-8 of the exact one, where
    # SLSQP's objective-change stop left 1.28e-7
    errors = [
        np.linalg.norm(ConvexEpigraph(value, subgrad, dim).project(v) - expected)
        for value, subgrad, dim, v, expected in epigraph_families()["l1-quadratics"]
    ]
    assert max(errors) <= 1e-7


@pytest.mark.parametrize(
    "subgrad",
    [lambda x: np.array([2 * x[0], 0.0]), lambda x: None, lambda x: "2"],
    ids=["wrong length", "None", "string"],
)
def test_malformed_subgradient_raises_projection_error(subgrad):
    epi = ConvexEpigraph(lambda x: float(x[0] ** 2), subgrad, 1)
    with pytest.raises(ProjectionError, match="must have length 1"):
        epi.project(vec([3.0], -1.0))


def test_number_and_list_subgradients_serve_for_dim_one():
    def value(x):
        return float(x[0] ** 2)

    v = vec([3.0], -1.0)
    expected = ConvexEpigraph(value, lambda x: 2 * x, 1).project(v)
    for subgrad in (lambda x: float(2 * x[0]), lambda x: [2 * x[0]]):
        assert ConvexEpigraph(value, subgrad, 1).project(v).tobytes() == expected.tobytes()


ALL_SETS = [
    HorizontalHyperplane(0.5),
    SecondOrderCone(np.array([0.2, -0.3]), 1.4),
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
        run_ring([s], HorizontalHyperplane(0.0), pt([0.0, 0.0], 1.0), ToleranceConfig())


def test_cone_stack_inside_only_where_projection_keeps_the_point():
    rng = np.random.default_rng(12)
    cones = [
        SecondOrderCone(vec(rng.normal(size=2), rng.normal()), float(rng.uniform(0.3, 3.0)))
        for _ in range(20)
    ]
    sets = cones + [Halfspace(np.array([0.0, 0.0, 1.0]), 100.0), Ball(np.zeros(3), 100.0)]
    stack = ConeStack(sets)
    c = cones[0]
    u = np.array([0.6, 0.8])
    points = [rng.normal(scale=3, size=3) for _ in range(200)]
    points += [c.apex.copy()]
    points += [
        np.append(c.apex[:-1] + r * u, c.apex[-1] + c.slope * r + dt)
        for r in (1e-3, 1.0, 7.0)
        for dt in (-1e-13, 0.0, 1e-13, 1e-9)
    ]
    found = 0
    for v in points:
        inside = stack.refresh(v)
        assert inside.shape == (len(sets),)
        assert not inside[len(cones):].any()
        for s, flag in zip(cones, inside):
            if flag:
                assert s.project(v) is v
        found += int(inside.sum())
        # v is now the reference point, with a positive cap exactly where
        # it lies inside
        assert stack.ref is v and np.array_equal(stack.cap > 0, inside)
    assert found > 0
    # well inside every cone at once
    assert stack.refresh(np.array([0.0, 0.0, 100.0]))[: len(cones)].all()


def test_cone_stack_first_nontrivial():
    cones = [SecondOrderCone(vec([x], 0.0), 1.0) for x in (0.0, 1.0, 2.0)]
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


def inside_at(stack, v):
    """ConeStack.refresh's test at v, taken on a copy, so that the stack
    keeps its own reference point and caps."""
    return copy.copy(stack).refresh(v)


def unit(rng, n):
    u = rng.normal(size=n)
    return u / np.linalg.norm(u)


def reference_points(c, rng):
    """Points at the apex of c, on its surface, just above it and well
    inside it, in the scale of its apex height."""
    a, scale = c.slope, 1.0 + abs(c.apex[-1])
    refs = [c.apex.copy(), c.apex.copy() + np.append(np.zeros(c.dim), scale)]
    for r in (1e-6, 1.0, 30.0):
        x = c.apex[:-1] + r * unit(rng, c.dim)
        for lift in (0.0, 1e-9, 1e-3, 1.0):
            refs.append(np.append(x, c.apex[-1] + a * r * (1.0 + lift) + lift * 1e-3 * scale))
    return refs


def moves(c, ref, cap, rng):
    """Points within about cap of ref: random directions, and the ones
    that leave c fastest (out from the axis, down, and both at once)."""
    u = ref[:-1] - c.apex[:-1]
    r = np.linalg.norm(u)
    u = u / r if r > 0 else unit(rng, c.dim)
    dirs = [unit(rng, c.dim + 1) for _ in range(6)]
    dirs += [np.append(u, 0.0), np.append(0 * u, -1.0), np.append(c.slope * u, -1.0)]
    for d in dirs:
        d = d / np.linalg.norm(d)
        for f in (rng.uniform(), 0.5, 1.0 - 1e-12, 1.0 - 2.0 ** -52):
            yield ref + (f * cap) * d


def assert_certified_moves_stay_inside(stack, sets, refs, rng):
    """Every point within cap_i of the reference point (by the distance
    first_nontrivial takes) is kept by SecondOrderCone.project, and, where
    the reference is not within rounding of the surface, passes the test
    that refresh() makes."""
    checked = 0
    for ref in refs:
        inside = stack.refresh(ref)
        assert stack.ref is ref
        for i, c in enumerate(sets):
            cap = stack.cap[i]
            if not isinstance(c, SecondOrderCone):
                assert cap == -np.inf
                continue
            # a positive cap comes only from a point inside
            assert cap <= 0 or inside[i]
            if not cap > 0:
                continue
            th = ref[-1] - c.apex[-1]
            ar = c.slope * np.linalg.norm(ref[:-1] - c.apex[:-1])
            clear = th - ar >= 1e-3 * (abs(th) + ar)
            for v in moves(c, ref, cap, rng):
                if not norm(v - ref) < cap:
                    continue
                assert c.project(v) is v
                assert not clear or inside_at(stack, v)[i]
                checked += 1
    return checked


@pytest.mark.parametrize("seed", range(9))
def test_cone_stack_certificate_keeps_moves_inside(seed):
    rng = np.random.default_rng(70 + seed)
    d = 1 + seed % 3
    cones = [
        SecondOrderCone(
            vec(rng.uniform(-1, 1, d) * 10 ** rng.uniform(0, 6),
               float(rng.uniform(-1, 1) * 10 ** rng.uniform(0, 6))),
            float(10 ** rng.uniform(-3, 3)),
        )
        for _ in range(4)
    ] + [
        SecondOrderCone(vec(np.zeros(d), 0.0), slope) for slope in (1e-3, 1e3)
    ]
    sets = list(cones)
    sets.insert(2, Halfspace(np.append(np.zeros(d), -1.0), 1e7))
    sets.insert(5, Ball(np.zeros(d + 1), 1e7))
    stack = ConeStack(sets)
    refs = [v for c in cones for v in reference_points(c, rng)]
    assert assert_certified_moves_stay_inside(stack, sets, refs, rng) > 200


@pytest.mark.parametrize("slope", [1e-17, 1e-12, 1e12, 1e17])
def test_cone_stack_certificate_at_extreme_slopes(slope):
    # far from slope 1 the bound (a' + 1) * d is nearly tight for moves out
    # from the axis or down, so only the cap's factor 1 - 1e-9 keeps the
    # rounding of cap and distance from certifying a point refresh() rejects
    rng = np.random.default_rng(5)
    cones = [SecondOrderCone(vec(np.zeros(d), 0.0), slope) for d in (1, 2, 3)]
    for c in cones:
        stack = ConeStack([c])
        refs = [np.append(0.1 * unit(rng, c.dim) * r, h)
                for r in (0.0, 1e-20, 1e-3 / slope) for h in (1.0, 7.5, 1e3)]
        refs += [np.append(np.zeros(c.dim), 2.0 ** -k) for k in range(40)]
        assert assert_certified_moves_stay_inside(stack, [c], refs, rng) > 100


def test_cone_stack_recomputes_caps_only_for_a_zero_increment_cone():
    cones = [SecondOrderCone(vec([x, 0.0], 0.0), 1.0) for x in (0.0, 1.0, 2.0)]
    sets = [cones[0], Halfspace(np.array([0.0, 0.0, 1.0]), 100.0), cones[1],
            Ball(np.zeros(3), 100.0), cones[2]]
    stack = ConeStack(sets)
    refreshes = []
    refresh = stack.refresh
    stack.refresh = lambda v: refreshes.append(v) or refresh(v)
    v = vec([1.0, 0.0], 10.0)
    zero = np.ones(5, dtype=bool)
    # nothing is certified before the first test
    assert stack.first_nontrivial(v, zero, 0) == 1
    assert len(refreshes) == 1
    # the sets that are not cones fail the certificate, but v stays
    # certified for the cones
    assert stack.first_nontrivial(v, zero, 2) == 3
    assert stack.first_nontrivial(v + 0.5, zero, 4) == 5
    # a nonzero increment makes the step real, with no new test
    zero[4] = False
    assert stack.first_nontrivial(vec([1.0, 0.0], 1.5), zero, 4) == 4
    assert len(refreshes) == 1
    # a point outside the certified ball is tested again
    w = vec([3.5, 0.0], 1.5)
    assert stack.first_nontrivial(w, zero, 2) == 2
    assert len(refreshes) == 2 and refreshes[-1] is w


@pytest.mark.parametrize("seed", range(6))
def test_cone_stack_first_nontrivial_is_the_batched_test(seed):
    # a walk of small and large moves, as the Dykstra iterate makes them
    rng = np.random.default_rng(90 + seed)
    d = 1 + seed % 3
    sets = [
        SecondOrderCone(vec(rng.normal(size=d), rng.normal()), float(rng.uniform(0.3, 3.0)))
        for _ in range(12)
    ]
    sets.insert(4, Halfspace(np.append(np.zeros(d), -1.0), 1.0))
    stack = ConeStack(sets)
    v = np.append(np.zeros(d), 8.0)
    for _ in range(300):
        v = v + rng.normal(size=d + 1) * 10 ** rng.uniform(-6, 0)
        zero = rng.uniform(size=len(sets)) < 0.9
        lo = int(rng.integers(0, len(sets)))
        trivial = zero[lo:] & inside_at(stack, v)[lo:]
        k = int(trivial.argmin())
        expected = len(sets) if trivial[k] else lo + k
        assert stack.first_nontrivial(v, zero, lo) == expected


def test_plus_zero_is_plus_zero_throughout():
    # -0.0, a denormal and nan are not +0.0
    a = np.zeros((5, 3))
    a[1, 2] = -0.0
    a[2, 0] = 5e-324
    a[3] = np.nan
    assert [plus_zero(r) for r in a] == [True, False, False, False, True]


@pytest.mark.parametrize("size", range(1, 9))
def test_norm_is_numpy_norm_bit_for_bit(size):
    rng = np.random.default_rng(size)
    # squares that underflow to 0 or overflow to inf included
    for scale in (1e-320, 1e-200, 1e-150, 1e-20, 1.0, 3e5, 1e20, 1e150, 1e200):
        for _ in range(50):
            v = rng.normal(size=size) * scale
            with np.errstate(over="ignore"):
                assert norm(v).hex() == float(np.linalg.norm(v)).hex()
                assert type(norm(v)) is float


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
    cone = SecondOrderCone(np.array([0.0, 0.0]), 1.0)
    a, b = vec([px], pt_), vec([qx], qt)
    assert dist(cone.project(a), cone.project(b)) <= dist(a, b) + 1e-9


def test_midpoint_convexity_spot_check_for_epigraph_oracle():
    # the epigraph contract assumes a convex f; spot-check the test oracle
    f = lambda x: float(np.linalg.norm(x))
    rng = np.random.default_rng(9)
    for _ in range(100):
        a, b = rng.normal(size=2), rng.normal(size=2)
        assert f((a + b) / 2) <= (f(a) + f(b)) / 2 + 1e-12
