import math

import numpy as np
import pytest

from minmaxap import (
    AgentDynamics,
    Model,
    SecondOrderAttainableSet,
    bang_bang_control,
    first_order_attainable_set,
    first_order_reach_time,
    inverse_time_square,
    second_order_reach_time_general,
    second_order_reach_time_zero_vel,
    second_order_zero_vel_set,
    simulate_trajectory,
    solve_min_time_consensus,
)

EXP1_POSITIONS = (-3.542884, 3.001152, 6.924106, -18.0296)
EXP2_STATES = (
    (-3.542884, 5.140490),
    (3.001152, 3.794066),
    (6.924106, -3.281824),
    (-18.0296, 1.9023),
)


def so_agent(x, v=0.0, u_max=1.0):
    return AgentDynamics(Model.SECOND_ORDER, [x], v, u_max)


def vec(x, t):
    """A raw (x..., t) point, as the sets take it."""
    return np.append(np.asarray(x, float), t)


class TestAgentDynamics:
    def test_first_order_forbids_velocity(self):
        with pytest.raises(ValueError):
            AgentDynamics(Model.FIRST_ORDER, [0.0], v0=1.0)

    def test_u_max_positive(self):
        with pytest.raises(ValueError):
            so_agent(0.0, u_max=0.0)

    @pytest.mark.parametrize("field", ["v0", "u_max"])
    def test_rejects_bool_velocity_and_bound(self, field):
        # JSON true would otherwise pass as 1.0
        with pytest.raises(TypeError):
            AgentDynamics(Model.SECOND_ORDER, [0.0], **{field: True})


class TestFirstOrder:
    @pytest.mark.parametrize(
        "x0,x,u,expected",
        [(([0.0]), [3.0], 1.0, 3.0), ([1.0, 1.0], [1.0, 1.0], 5.0, 0.0),
         ([0.0, 0.0], [3.0, 4.0], 2.0, 2.5)],
    )
    def test_reach_time(self, x0, x, u, expected):
        assert first_order_reach_time(np.atleast_1d(x0), np.atleast_1d(x), u) == pytest.approx(expected)

    def test_attainable_cone(self):
        cone = first_order_attainable_set(AgentDynamics(Model.FIRST_ORDER, [0.0]))
        assert cone.slope == 1.0 and cone.apex.t == 0.0
        cone2 = first_order_attainable_set(AgentDynamics(Model.FIRST_ORDER, [2.0], u_max=2.0))
        assert cone2.slope == 0.5
        assert cone2.contains(vec([3.0], 1.0), 0.0)  # |3-2|/2 <= 1

    def test_wrong_model_rejected(self):
        with pytest.raises(ValueError):
            first_order_attainable_set(so_agent(0.0))


class TestSecondOrderReachTimes:
    def test_zero_vel_unit_case(self):
        assert second_order_reach_time_zero_vel(0.0, 1.0, 1.0) == pytest.approx(2.0)

    def test_zero_vel_experiment_time(self):
        t = second_order_reach_time_zero_vel(6.924106, -5.5527, 1.0)
        assert t == pytest.approx(7.0645, abs=1e-3)

    def test_zero_distance(self):
        assert second_order_reach_time_zero_vel(0.0, 0.0, 1.0) == 0.0

    def test_general_reduces_to_zero_vel(self):
        assert second_order_reach_time_general(0.0, 0.0, 1.0, 0.0) == pytest.approx(2.0)
        t = second_order_reach_time_general(6.924106, 0.0, -5.5527, 0.0)
        assert t == pytest.approx(7.0645, abs=1e-3)

    def test_general_experiment_binding_agent(self):
        t = second_order_reach_time_general(-3.542884, 5.140490, 6.9366, 0.0)
        assert t == pytest.approx(8.4467, abs=1e-3)
        assert t <= 8.4467 + 1e-3

    def test_branch_continuity(self):
        # both branch formulas agree where the switching function vanishes
        v = 1.3
        x2 = 0.5 * v * abs(v)
        t_plus = -(v) + math.sqrt(4 * x2 + 2 * v * v)
        t_minus = v + math.sqrt(-4 * x2 + 2 * v * v)
        assert t_plus == pytest.approx(t_minus)
        assert second_order_reach_time_general(0.0, v, x2, 0.0) == pytest.approx(t_plus)

    def test_u_max_scaling(self):
        assert second_order_reach_time_general(0.0, 0.0, 4.0, 0.0, u_max=4.0) == pytest.approx(2.0)

    def test_matches_trajectory_oracle_random(self):
        # independent oracle: dense bisection on arrival time via forward
        # integration of the two-phase control law
        rng = np.random.default_rng(21)
        for _ in range(50):
            x1, v1 = rng.uniform(-5, 5), rng.uniform(-3, 3)
            x2 = rng.uniform(-5, 5)
            um = rng.uniform(0.5, 3.0)
            t = second_order_reach_time_general(x1, v1, x2, 0.0, um)
            # simulate with the bang-bang law at fine steps; arrival near t
            dt = t / 20000 if t > 0 else 1.0
            x, v = x1, v1
            for _ in range(20000):
                u = bang_bang_control((x, v), (x2, 0.0), um)
                x += v * dt + 0.5 * u * dt * dt
                v += u * dt
            assert abs(x - x2) < 5e-3 * (1 + abs(x2 - x1))
            assert abs(v) < 5e-2 * (1 + abs(v1))


class TestTransforms:
    def test_square_roundtrip(self):
        assert inverse_time_square(4.0) == 2.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            inverse_time_square(-1.0)

    def test_zero_vel_set(self):
        cone = second_order_zero_vel_set(so_agent(0.0))
        assert cone.slope == 4.0
        assert cone.contains(vec([1.0], 4.0), 0.0)  # boundary point
        assert cone.violation(vec([1.0], 3.9)) > 0
        # apex is the unique height-0 point
        assert cone.contains(vec([0.0], 0.0), 0.0)
        assert cone.violation(vec([0.1], 0.0)) > 0

    def test_zero_vel_set_requires_zero_velocity(self):
        with pytest.raises(ValueError):
            second_order_zero_vel_set(so_agent(0.0, v=1.0))


class TestAttainableSet:
    def test_membership_matches_reach_time(self):
        s = SecondOrderAttainableSet(1.0, 2.0)
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.uniform(-10, 10)
            t = rng.uniform(0, 12)
            assert s.contains(vec([x], t), 1e-12) == (s.reach_time(x) <= t + 1e-12)

    def test_projection_lands_in_set(self):
        rng = np.random.default_rng(6)
        for v in (-2.0, 0.0, 1.5):
            s = SecondOrderAttainableSet(0.5, v)
            for _ in range(200):
                p = vec([rng.uniform(-15, 15)], rng.uniform(-5, 15))
                q = s.project(p)
                assert s.contains(q, 1e-6)

    def test_zero_velocity_projection_is_near_exact(self):
        s = SecondOrderAttainableSet(0.0, 0.0)
        cone = second_order_zero_vel_set(so_agent(0.0))
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = vec([rng.uniform(-5, 5)], rng.uniform(-5, 20))
            # both describe s >= 4|x|; the branchwise projector may differ
            # from the exact cone projection only via the squared-height metric
            q = s.project(p)
            assert s.contains(q, 1e-9)
            if cone.contains(p, 0.0):
                assert np.linalg.norm(q - p) == 0.0


class TestBangBang:
    def test_target_ahead(self):
        assert bang_bang_control((0.0, 0.0), (1.0, 0.0), 1.0) == 1.0

    def test_target_behind(self):
        assert bang_bang_control((1.0, 0.0), (0.0, 0.0), 1.0) == -1.0

    def test_switching_surface_decelerates(self):
        assert bang_bang_control((0.5, 1.0), (1.0, 0.0), 1.0) == -1.0

    def test_at_target(self):
        assert bang_bang_control((1.0, 0.0), (1.0, 0.0), 1.0) == 0.0


class TestTrajectory:
    def test_unit_move(self):
        traj = simulate_trajectory(so_agent(0.0), (1.0, 0.0), dt=0.25)
        assert traj.schedule.segments == ((1.0, 1.0), (1.0, -1.0))
        assert traj.arrival_time == pytest.approx(2.0)
        last = traj.samples[-1]
        assert last.x == pytest.approx(1.0, abs=1e-9)
        assert last.v == pytest.approx(0.0, abs=1e-9)

    def test_zero_move(self):
        traj = simulate_trajectory(so_agent(0.0), (0.0, 0.0), dt=0.5)
        assert traj.schedule.segments == ()
        assert traj.arrival_time == 0.0

    def test_experiment_one_agent_four(self):
        traj = simulate_trajectory(so_agent(-18.0296), (-5.5527, 0.0), dt=0.1)
        assert traj.arrival_time == pytest.approx(7.0645, abs=1e-3)
        assert traj.samples[-1].x == pytest.approx(-5.5527, abs=1e-9)

    def test_arrival_matches_formula_random(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x0 = float(rng.uniform(-10, 10))
            xt = float(rng.uniform(-10, 10))
            um = float(rng.uniform(0.5, 4.0))
            a = so_agent(x0, 0.0, um)
            traj = simulate_trajectory(a, (xt, 0.0), dt=1.0)
            t_formula = second_order_reach_time_zero_vel(x0, xt, um)
            assert traj.arrival_time == pytest.approx(t_formula, abs=1e-9)
            last = traj.samples[-1]
            assert abs(last.x - xt) <= 1e-6
            assert abs(last.v) <= 1e-6

    def test_nonzero_velocity_arrival(self):
        for x0, v0 in EXP2_STATES:
            traj = simulate_trajectory(so_agent(x0, v0), (6.9366, 0.0), dt=0.1)
            last = traj.samples[-1]
            assert abs(last.x - 6.9366) <= 1e-6
            assert abs(last.v) <= 1e-6

    def test_schedule_has_at_most_one_switch(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            traj = simulate_trajectory(
                so_agent(rng.uniform(-5, 5), rng.uniform(-2, 2)),
                (float(rng.uniform(-5, 5)), 0.0),
                dt=0.5,
            )
            assert len(traj.schedule.segments) <= 2


class TestSolveConsensus:
    def test_experiment_one(self):
        agents = [so_agent(x) for x in EXP1_POSITIONS]
        for mode in ("centralized", "ring"):
            r = solve_min_time_consensus(agents, mode=mode)
            assert r.x_consensus[0] == pytest.approx(-5.5527, abs=1e-3)
            assert r.t_consensus == pytest.approx(7.0645, abs=1e-3)
            assert not r.experimental

    def test_experiment_two(self):
        agents = [so_agent(x, v) for x, v in EXP2_STATES]
        r = solve_min_time_consensus(agents)
        assert r.experimental
        assert r.x_consensus[0] == pytest.approx(6.9366, abs=0.05)
        assert r.t_consensus == pytest.approx(8.4467, abs=0.05)

    def test_symmetric_pair(self):
        a = 4.0
        r = solve_min_time_consensus([so_agent(-a), so_agent(a)])
        assert r.x_consensus[0] == pytest.approx(0.0, abs=1e-4)
        assert r.t_consensus == pytest.approx(2 * math.sqrt(a), abs=1e-4)

    def test_zero_vel_optimum_is_extreme_midpoint(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            xs = rng.uniform(-20, 20, size=4)
            r = solve_min_time_consensus([so_agent(x) for x in xs])
            mid = (xs.min() + xs.max()) / 2
            assert r.x_consensus[0] == pytest.approx(mid, abs=1e-3)
            assert r.t_consensus == pytest.approx(
                2 * math.sqrt((xs.max() - xs.min()) / 2), abs=1e-3
            )

    def test_scale_covariance(self):
        xs = [-2.0, 1.0, 5.0]
        r1 = solve_min_time_consensus([so_agent(x) for x in xs])
        c = 4.0
        r2 = solve_min_time_consensus([so_agent(c * x) for x in xs])
        assert r2.x_consensus[0] == pytest.approx(c * r1.x_consensus[0], abs=1e-3)
        assert r2.t_consensus == pytest.approx(math.sqrt(c) * r1.t_consensus, abs=1e-3)

    def test_first_order_agents(self):
        agents = [
            AgentDynamics(Model.FIRST_ORDER, [x0]) for x0 in (-3.0, 1.0, 5.0)
        ]
        r = solve_min_time_consensus(agents)
        assert r.x_consensus[0] == pytest.approx(1.0, abs=1e-4)
        assert r.t_consensus == pytest.approx(4.0, abs=1e-4)
        assert r.schedules[0].total_duration == pytest.approx(4.0, abs=1e-4)

    def test_mixed_models_rejected(self):
        with pytest.raises(ValueError):
            solve_min_time_consensus(
                [so_agent(0.0), AgentDynamics(Model.FIRST_ORDER, [1.0])]
            )

    def test_consensus_time_is_max_reach_time(self):
        agents = [so_agent(x) for x in EXP1_POSITIONS]
        r = solve_min_time_consensus(agents)
        times = [
            second_order_reach_time_zero_vel(float(a.x0[0]), float(r.x_consensus[0]), a.u_max)
            for a in agents
        ]
        assert r.t_consensus == pytest.approx(max(times), abs=1e-4)

    def test_transform_consistency_with_grid(self):
        from minmaxap import GridSpec, grid_minmax

        xs = [-6.0, -1.0, 3.5]
        agents = [so_agent(x) for x in xs]
        r = solve_min_time_consensus(agents)
        g = grid_minmax(
            [
                (lambda x0: (lambda x: second_order_reach_time_zero_vel(x0, float(x[0]), 1.0)))(x0)
                for x0 in xs
            ],
            GridSpec(np.array([-10.0]), np.array([10.0]), 20001),
        )
        assert abs(r.x_consensus[0] - g.x[0]) < 1e-3
        assert abs(r.t_consensus - g.value) < 1e-3
