import ast

import numpy as np
import pytest

from minmaxap import (
    GridSpec,
    Halfspace,
    SecondOrderCone,
    grid_minmax,
    numeric_projection,
    second_order_reach_time_zero_vel,
)
from minmaxap import oracle
from minmaxap.errors import OracleBudgetError


def vec(x, t):
    """A raw (x..., t) point, as sets and the oracle take it."""
    return np.append(np.asarray(x, float), t)


def dist(a, b):
    return float(np.linalg.norm(a - b))


class TestGridSpec:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            GridSpec(np.array([1.0]), np.array([0.0]), 100)
        with pytest.raises(ValueError):
            GridSpec(np.array([0.0]), np.array([1.0]), 2)


class TestGridMinmax:
    def test_symmetric_absolute_values(self):
        g = grid_minmax(
            [lambda x: abs(x[0] + 1), lambda x: abs(x[0] - 1)],
            GridSpec(np.array([-2.0]), np.array([2.0]), 4001),
        )
        assert g.x[0] == pytest.approx(0.0, abs=1e-3)
        assert g.value == pytest.approx(1.0, abs=1e-3)

    def test_experiment_one_reach_times(self):
        funcs = [
            (lambda x0: (lambda x: second_order_reach_time_zero_vel(x0, float(x[0]), 1.0)))(x0)
            for x0 in (-3.542884, 3.001152, 6.924106, -18.0296)
        ]
        g = grid_minmax(funcs, GridSpec(np.array([-20.0]), np.array([10.0]), 30001))
        assert g.x[0] == pytest.approx(-5.5527, abs=2e-3)
        assert g.value == pytest.approx(7.0645, abs=1e-3)

    def test_single_quadratic(self):
        g = grid_minmax(
            [lambda x: (x[0] - 3.0) ** 2],
            GridSpec(np.array([0.0]), np.array([5.0]), 2001),
        )
        assert g.x[0] == pytest.approx(3.0, abs=3e-3)

    def test_value_is_upper_bound_under_refinement(self):
        funcs = [lambda x: abs(x[0] - 0.3), lambda x: 2 * abs(x[0] + 0.7)]
        vals = []
        for res in (101, 201, 401, 801):
            # nested grids: each refinement keeps all previous nodes
            g = grid_minmax(funcs, GridSpec(np.array([-2.0]), np.array([2.0]), res))
            vals.append(g.value)
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_2d_grid(self):
        g = grid_minmax(
            [lambda x: float(np.linalg.norm(x - np.array([1.0, 0.0])))],
            GridSpec(np.array([-2.0, -2.0]), np.array([2.0, 2.0]), 81),
        )
        assert np.allclose(g.x, [1.0, 0.0], atol=0.06)

    def test_2d_bound_uses_axis_neighbours(self):
        # a 1-Lipschitz function: the bound is at most spacing * sqrt(2),
        # which a difference across the end of a grid row would exceed
        g = grid_minmax(
            [lambda x: float(np.linalg.norm(x - np.array([1.0, 1.0])))],
            GridSpec(np.array([-2.0, -2.0]), np.array([2.0, 2.0]), 81),
        )
        assert g.error_bound <= g.spacing * np.sqrt(2) * (1 + 1e-9)


class TestNumericProjection:
    def test_nonpositive_quadrant(self):
        member = lambda q: q[0] <= 1e-12 and q[-1] <= 1e-12
        q = numeric_projection(member, vec([1.0], 1.0), seed=1)
        assert np.allclose(q, [0.0, 0.0], atol=1e-4)

    def test_cone(self):
        cone = SecondOrderCone(vec([0.0], 0.0), 1.0)
        q = numeric_projection(lambda z: cone.contains(z, 1e-12), vec([2.0], 0.0), seed=2)
        assert np.allclose(q, [1.0, 1.0], atol=1e-4)

    def test_lower_halfspace(self):
        # membership-only oracle needs full-dimensional sets; use t <= 0
        member = lambda z: z[-1] <= 1e-12
        q = numeric_projection(member, vec([5.0], 3.0), seed=3)
        assert np.allclose(q, [5.0, 0.0], atol=1e-4)

    def test_feasible_input_returned_unchanged(self):
        cone = SecondOrderCone(vec([0.0], 0.0), 1.0)
        p = vec([0.0], 2.0)
        assert numeric_projection(lambda z: cone.contains(z, 0.0), p) is p

    def test_agrees_with_closed_forms(self):
        rng = np.random.default_rng(13)
        for seed in range(10):
            cone = SecondOrderCone(vec(rng.normal(size=1), rng.normal()), float(rng.uniform(0.5, 2)))
            p = vec(rng.normal(scale=3, size=1), rng.normal(scale=3))
            q = numeric_projection(
                lambda z: cone.contains(z, 1e-12),
                p,
                feasible_hint=vec(cone.apex[:-1], cone.apex[-1] + 50.0),
                seed=seed,
            )
            assert dist(q, cone.project(p)) < 1e-4

    def test_variational_inequality_certificate(self):
        hs = Halfspace(np.array([0.6, 0.8]), 1.0)
        p = vec([4.0], 3.0)
        q = numeric_projection(lambda z: hs.contains(z, 1e-12), p, seed=4)
        rng = np.random.default_rng(14)
        for _ in range(100):
            z = hs.project(vec(rng.normal(scale=3, size=1), rng.normal(scale=3)))
            ip = float((p - q) @ (z - q))
            assert ip <= 1e-3 * dist(p, q) * max(dist(z, q), 1.0) + 1e-6

    def test_budget_exhaustion(self):
        member = lambda q: q[0] <= -1e9  # effectively unreachable
        with pytest.raises(OracleBudgetError):
            numeric_projection(member, vec([0.0], 0.0), max_evals=500, seed=5)


def test_oracle_imports_nothing_of_the_solvers():
    # the oracles check the solvers, so they may share only the error types
    with open(oracle.__file__) as fh:
        tree = ast.parse(fh.read())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("minmaxap")):
            package.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            package.update(a.name for a in node.names if a.name.startswith("minmaxap"))
    assert package == {".errors"}
