import math

import numpy as np
import pytest

from minmaxap import (
    AgentDynamics,
    ControlSchedule,
    ConvergenceError,
    DimensionMismatchError,
    Model,
    SecondOrderAttainableSet,
    SecondOrderCone,
    ToleranceConfig,
    bang_bang_control,
    reach_time,
    second_order_reach_time_general,
    second_order_reach_time_zero_vel,
    simulate_trajectory,
    solve_min_time_consensus,
)
from minmaxap.consensus import _build_sets

EXP1_POSITIONS = (-3.542884, 3.001152, 6.924106, -18.0296)
EXP2_STATES = (
    (-3.542884, 5.140490),
    (3.001152, 3.794066),
    (6.924106, -3.281824),
    (-18.0296, 1.9023),
)


# (x1, v1, x2, v2, u_max, minimum time) with the target on the switching
# curve x2 - x1 = (v1 + v2)|v1 - v2| / (2 u_max), exactly in floats
SWITCHING_CURVE = [
    (0.0, -1.0, 0.0, -1.0, 1.0, 0.0),
    (0.0, -1.0, -1.5, -2.0, 1.0, 1.0),
    (0.0, -2.0, -1.5, -1.0, 1.0, 1.0),
    (0.0, 1.0, 1.5, 2.0, 1.0, 1.0),
    (0.0, 2.0, 1.5, 1.0, 1.0, 1.0),
    (1.0, -2.0, -2.0, -4.0, 2.0, 1.0),
    (1.0, 3.0, 5.0, 1.0, 1.0, 2.0),
]


def so_agent(x, v=0.0, u_max=1.0):
    return AgentDynamics(Model.SECOND_ORDER, [x], v, u_max)


def vec(x, t):
    """A raw (x..., t) point, as the sets take it."""
    return np.append(np.asarray(x, float), t)


def assert_maneuver_reaches(x1, v1, x2, v2, u_max):
    """The trajectory to (x2, v2) ends there, in the reach time, and opens
    with bang_bang_control's input; its schedule, replayed, ends there too."""
    traj = simulate_trajectory(so_agent(x1, v1, u_max), (x2, v2), dt=10.0)
    last = traj.samples[-1]
    assert last.x == pytest.approx(x2, rel=1e-9, abs=1e-9)
    assert last.v == pytest.approx(v2, rel=1e-9, abs=1e-9)
    assert traj.arrival_time == second_order_reach_time_general(x1, v1, x2, v2, u_max)
    u = bang_bang_control((x1, v1), (x2, v2), u_max)
    assert traj.samples[0].u == u
    segments = traj.schedule.segments
    assert segments[0][1] == u
    x, v = x1, v1
    for d, w in segments:
        x, v = x + v * d + 0.5 * w * d * d, v + w * d
    assert x == pytest.approx(x2, rel=1e-9, abs=1e-9)
    assert v == pytest.approx(v2, rel=1e-9, abs=1e-9)


def attainable_set(agent):
    """The one set _build_sets makes for a lone agent."""
    (s,), *_ = _build_sets([agent])
    return s


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


# (constructor, error) pairs: strings, booleans and non-finite numbers are
# refused where a consensus object is built, as geometry's sets refuse them
BAD_CONSENSUS_OBJECTS = {
    "agent-x0-string": (lambda: AgentDynamics(Model.SECOND_ORDER, ["1.5"]), TypeError),
    "agent-x0-scalar-string": (lambda: AgentDynamics(Model.SECOND_ORDER, "1.5"), TypeError),
    "agent-x0-bool": (lambda: AgentDynamics(Model.SECOND_ORDER, [True]), TypeError),
    "agent-x0-bool-among-floats": (
        lambda: AgentDynamics(Model.FIRST_ORDER, [True, 1.5]), TypeError),
    "agent-x0-bool-array": (
        lambda: AgentDynamics(Model.SECOND_ORDER, np.array([True])), TypeError),
    "agent-x0-nan": (lambda: AgentDynamics(Model.SECOND_ORDER, [math.nan]), ValueError),
    "agent-x0-inf": (lambda: AgentDynamics(Model.FIRST_ORDER, [0.0, math.inf]), ValueError),
    "agent-u_max-string": (lambda: so_agent(0.0, u_max="2"), TypeError),
    "agent-u_max-nan": (lambda: so_agent(0.0, u_max=math.nan), ValueError),
    "agent-u_max-inf": (lambda: so_agent(0.0, u_max=math.inf), ValueError),
    "agent-v0-string": (lambda: so_agent(0.0, v="1"), TypeError),
    "agent-v0-nan": (lambda: so_agent(0.0, v=math.nan), ValueError),
    "set-x0-nan": (lambda: SecondOrderAttainableSet(math.nan, 0.0), ValueError),
    "set-x0-bool": (lambda: SecondOrderAttainableSet(True, 0.0), TypeError),
    "set-v0-inf": (lambda: SecondOrderAttainableSet(0.0, math.inf), ValueError),
    "set-v0-bool": (lambda: SecondOrderAttainableSet(0.0, False), TypeError),
    "set-u_max-nan": (lambda: SecondOrderAttainableSet(0.0, 0.0, math.nan), ValueError),
    "set-u_max-inf": (lambda: SecondOrderAttainableSet(0.0, 0.0, math.inf), ValueError),
    "set-u_max-bool": (lambda: SecondOrderAttainableSet(0.0, 0.0, True), TypeError),
    "set-u_max-zero": (lambda: SecondOrderAttainableSet(0.0, 0.0, 0.0), ValueError),
    "schedule-nan-duration": (lambda: ControlSchedule(((math.nan, 1.0),)), ValueError),
    "schedule-inf-duration": (lambda: ControlSchedule(((1.0, 1.0), (math.inf, -1.0))), ValueError),
    "schedule-negative-duration": (lambda: ControlSchedule(((-1.0, 1.0),)), ValueError),
    "schedule-bool-duration": (lambda: ControlSchedule(((True, 1.0),)), TypeError),
    "schedule-string-duration": (lambda: ControlSchedule((("1", 1.0),)), TypeError),
    "schedule-nan-input": (lambda: ControlSchedule(((1.0, math.nan),)), ValueError),
    "schedule-inf-vector-input": (
        lambda: ControlSchedule(((1.0, np.array([1.0, -math.inf])),)), ValueError),
    "schedule-bool-input": (lambda: ControlSchedule(((1.0, True),)), TypeError),
    "schedule-string-input": (lambda: ControlSchedule(((1.0, "1"),)), TypeError),
}


@pytest.mark.parametrize("case", sorted(BAD_CONSENSUS_OBJECTS))
def test_consensus_parameters_validated_at_construction(case):
    build, error = BAD_CONSENSUS_OBJECTS[case]
    with pytest.raises(error):
        build()


class TestFirstOrder:
    @pytest.mark.parametrize(
        "x0,x,u,expected",
        [(([0.0]), [3.0], 1.0, 3.0), ([1.0, 1.0], [1.0, 1.0], 5.0, 0.0),
         ([0.0, 0.0], [3.0, 4.0], 2.0, 2.5)],
    )
    def test_reach_time(self, x0, x, u, expected):
        agent = AgentDynamics(Model.FIRST_ORDER, x0, u_max=u)
        assert reach_time(agent, np.atleast_1d(x)) == pytest.approx(expected)

    def test_attainable_cone(self):
        cone = attainable_set(AgentDynamics(Model.FIRST_ORDER, [0.0]))
        assert cone.slope == 1.0 and cone.apex[-1] == 0.0
        cone2 = attainable_set(AgentDynamics(Model.FIRST_ORDER, [2.0], u_max=2.0))
        assert cone2.slope == 0.5
        assert cone2.contains(vec([3.0], 1.0), 0.0)  # |3-2|/2 <= 1

    @pytest.mark.parametrize("x", [[3.0], [3.0, 4.0, 0.0], [[3.0], [4.0]]])
    def test_position_of_another_length_rejected(self, x):
        # numpy would broadcast [3.0] against a 2-D x0 and answer 4.2426
        agent = AgentDynamics(Model.FIRST_ORDER, [0.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            reach_time(agent, np.array(x))
        if np.ndim(x) == 1:
            with pytest.raises(DimensionMismatchError):
                simulate_trajectory(agent, (np.array(x), 0.0), dt=0.1)


class TestSecondOrderReachTimes:
    def test_position_of_another_length_rejected(self):
        # only x[0] was read, so [1.0, 5.0] gave the time to 1.0
        agent = so_agent(0.0)
        assert reach_time(agent, 1.0) == reach_time(agent, np.array([1.0])) == 2.0
        with pytest.raises(DimensionMismatchError):
            reach_time(agent, np.array([1.0, 5.0]))
        with pytest.raises(DimensionMismatchError):
            simulate_trajectory(agent, (np.array([1.0, 5.0]), 0.0), dt=0.1)

    def test_zero_vel_unit_case(self):
        assert second_order_reach_time_zero_vel(0.0, 1.0, 1.0) == pytest.approx(2.0)

    def test_zero_vel_experiment_time(self):
        t = second_order_reach_time_zero_vel(6.924106, -5.5527, 1.0)
        assert t == pytest.approx(7.0645, abs=1e-3)

    def test_zero_distance(self):
        assert second_order_reach_time_zero_vel(0.0, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda: second_order_reach_time_zero_vel(0.0, 1.0, math.nan),
            lambda: second_order_reach_time_general(0.0, 0.0, 1.0, 0.0, u_max=math.nan),
            lambda: bang_bang_control((0.0, 0.0), (1.0, 0.0), math.nan),
            lambda: second_order_reach_time_zero_vel(0.0, 5.0, math.inf),
            lambda: second_order_reach_time_general(0.0, 1.0, 5.0, 0.0, u_max=math.inf),
            lambda: bang_bang_control((0.0, 1.0), (5.0, 0.0), math.inf),
        ],
        ids=["zero-vel", "general", "control", "zero-vel-inf", "general-inf", "control-inf"],
    )
    def test_nan_bound_rejected(self, call):
        # u_max <= 0 is False for nan, which then ran through as a nan time;
        # an infinite bound, which AgentDynamics and SecondOrderAttainableSet
        # reject, gave time 0.0 to any target
        with pytest.raises(ValueError, match="u_max must be positive and finite"):
            call()

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

    @pytest.mark.parametrize("x1, v1, x2, v2, u_max, expected", SWITCHING_CURVE)
    def test_switching_curve_is_one_phase(self, x1, v1, x2, v2, u_max, expected):
        # the target lies where one phase at full input ends: that phase's
        # duration is the minimum, in either velocity order and sign
        t = second_order_reach_time_general(x1, v1, x2, v2, u_max)
        assert t == expected
        u = math.copysign(u_max, v2 - v1)
        assert v1 + u * t == v2
        assert x1 + v1 * t + 0.5 * u * t * t == x2

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
    def test_zero_vel_set(self):
        cone = attainable_set(so_agent(0.0))
        assert cone.slope == 4.0
        assert cone.contains(vec([1.0], 4.0), 0.0)  # boundary point
        assert cone.violation(vec([1.0], 3.9)) > 0
        # apex is the unique height-0 point
        assert cone.contains(vec([0.0], 0.0), 0.0)
        assert cone.violation(vec([0.1], 0.0)) > 0


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
        cone = attainable_set(so_agent(0.0))
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

    @pytest.mark.parametrize("x1, v1, x2, v2, u_max, expected", SWITCHING_CURVE)
    def test_switching_curve_target_reached_in_one_phase(self, x1, v1, x2, v2, u_max, expected):
        traj = simulate_trajectory(so_agent(x1, v1, u_max), (x2, v2), dt=0.1)
        assert traj.arrival_time == expected
        assert len(traj.schedule.segments) == (expected > 0)
        last = traj.samples[-1]
        assert (last.t, last.x, last.v) == (expected, x2, v2)

    def test_target_an_ulp_off_the_switching_curve(self):
        # the reach time and the first input once took the switching
        # function's sign apart here, and the schedule ended at x = 0.8071
        assert_maneuver_reaches(1.0, -0.2, 0.9785714285714285, -0.1, 0.7)

    def test_targets_beside_the_switching_curve_random(self):
        # one ulp either side of the curve, where only rounding picks the
        # branch, with a moving target
        rng = np.random.default_rng(41)
        for _ in range(2000):
            u_max = float(rng.choice([0.1, 0.3, 0.7, 3.0]))
            x1, v1 = float(rng.uniform(-5, 5)), float(rng.uniform(-3, 3))
            v2 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3))
            x2 = x1 + (v1 + v2) * abs(v1 - v2) / (2 * u_max)
            x2 = float(np.nextafter(x2, rng.choice([-np.inf, np.inf])))
            assert_maneuver_reaches(x1, v1, x2, v2, u_max)

    def test_targets_at_rest_beside_the_switching_curve_random(self):
        # one ulp either side of the curve x1 + v1|v1|/(2u), where rounding
        # can leave the first phase of the branch that the sign test picks
        # empty; the schedule must still open with bang_bang_control's input
        rng = np.random.default_rng(0)
        for _ in range(20000):
            u_max = float(rng.choice([0.1, 0.3, 0.7, 3.0]))
            x1, v1 = float(rng.uniform(-5, 5)), float(rng.uniform(-3, 3))
            x2 = x1 + v1 * abs(v1) / (2 * u_max)
            x2 = float(np.nextafter(x2, rng.choice([-np.inf, np.inf])))
            assert_maneuver_reaches(x1, v1, x2, 0.0, u_max)

    def test_schedule_has_at_most_one_switch(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            traj = simulate_trajectory(
                so_agent(rng.uniform(-5, 5), rng.uniform(-2, 2)),
                (float(rng.uniform(-5, 5)), 0.0),
                dt=0.5,
            )
            assert len(traj.schedule.segments) <= 2


class TestFirstOrderTrajectory:
    def test_straight_line_at_full_input(self):
        agent = AgentDynamics(Model.FIRST_ORDER, [1.0, -2.0], u_max=2.0)
        target = np.array([4.0, 2.0])
        traj = simulate_trajectory(agent, (target, 0.0), dt=0.3)
        ((duration, u),) = traj.schedule.segments
        assert duration == pytest.approx(5.0 / 2.0) == traj.arrival_time
        assert np.linalg.norm(u) == pytest.approx(2.0)
        first, last = traj.samples[0], traj.samples[-1]
        assert first.t == 0.0 and np.array_equal(first.x, agent.x0)
        assert last.t == traj.arrival_time
        np.testing.assert_allclose(last.x, target, atol=1e-12)
        assert not np.any(last.u)
        assert all(s.v == 0.0 for s in traj.samples)

    def test_zero_move(self):
        agent = AgentDynamics(Model.FIRST_ORDER, [1.0, -2.0])
        traj = simulate_trajectory(agent, (agent.x0.copy(), 0.0), dt=0.3)
        assert traj.schedule.segments == ()
        assert traj.arrival_time == 0.0
        assert len(traj.samples) == 1

    def test_nonzero_target_velocity_rejected(self):
        agent = AgentDynamics(Model.FIRST_ORDER, [0.0])
        with pytest.raises(ValueError):
            simulate_trajectory(agent, ([1.0], 0.5), dt=0.1)


@pytest.mark.parametrize(
    "agent, target, dt, error",
    [
        # True would otherwise sample at dt 1.0
        (so_agent(0.0), (1.0, 0.0), True, TypeError),
        (so_agent(0.0), (1.0, 0.0), math.nan, ValueError),
        (so_agent(0.0), (1.0, 0.0), 0.0, ValueError),
        (so_agent(0.0), (math.inf, 0.0), 0.1, ValueError),
        (so_agent(0.0), (1.0, math.nan), 0.1, ValueError),
        (so_agent(0.0), ("1", 0.0), 0.1, TypeError),
        (AgentDynamics(Model.FIRST_ORDER, [0.0, 0.0]), ([1.0, math.nan], 0.0), 0.1, ValueError),
        (AgentDynamics(Model.FIRST_ORDER, [0.0]), ([1.0], True), 0.1, TypeError),
    ],
    ids=["dt-bool", "dt-nan", "dt-zero", "position-inf", "velocity-nan", "position-string",
         "vector-nan", "velocity-bool"],
)
def test_trajectory_numbers_checked(agent, target, dt, error):
    with pytest.raises(error):
        simulate_trajectory(agent, target, dt)


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
        traj = simulate_trajectory(agents[0], (r.x_consensus, 0.0), dt=1.0)
        ((duration, _),) = traj.schedule.segments
        assert duration == traj.arrival_time == pytest.approx(4.0, abs=1e-4)

    def test_model_given_as_a_string(self):
        agents = [AgentDynamics("second_order", [x]) for x in (1.0, 3.0)]
        assert agents[0].model is Model.SECOND_ORDER
        r = solve_min_time_consensus(agents)
        assert r.t_consensus == pytest.approx(2.0, abs=1e-4)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            AgentDynamics("bogus", [1.0])

    def test_mixed_models_rejected(self):
        with pytest.raises(ValueError, match="same model"):
            solve_min_time_consensus(
                [so_agent(0.0), AgentDynamics(Model.FIRST_ORDER, [1.0])]
            )

    def test_mixed_lengths_rejected(self):
        agents = [AgentDynamics(Model.FIRST_ORDER, x) for x in ([0.0], [1.0, 2.0])]
        with pytest.raises(DimensionMismatchError, match="same length"):
            solve_min_time_consensus(agents)

    def test_no_agents_rejected(self):
        with pytest.raises(ValueError, match="at least one agent"):
            solve_min_time_consensus([])

    def test_unknown_mode_rejected(self):
        agents = [AgentDynamics(Model.FIRST_ORDER, np.array([0.0]))]
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            solve_min_time_consensus(agents, mode="bogus")

    # u_max is finite and positive, but the cone slope 1/u_max (4/u_max for
    # a double integrator at rest) overflows to inf
    OVERFLOWING_SLOPES = {
        "first-order": [AgentDynamics(Model.FIRST_ORDER, [0.0, 1.0], u_max=1e-320),
                        AgentDynamics(Model.FIRST_ORDER, [2.0, -1.0])],
        "second-order-at-rest": [so_agent(0.0, u_max=1e-308), so_agent(3.0)],
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["centralized", "ring"])
    @pytest.mark.parametrize("case", sorted(OVERFLOWING_SLOPES))
    def test_overflowing_slope_rejected(self, case, mode):
        with pytest.raises(ValueError, match="^slope must be finite$"):
            solve_min_time_consensus(self.OVERFLOWING_SLOPES[case], mode=mode)

    def test_cone_stack_is_bit_for_bit_the_agents_cones(self):
        # _build_sets stacks the cones from arrays and takes the start
        # height in one batched pass; each row must project and measure
        # violation as the agent's own SecondOrderCone does, and the height
        # must be the largest of their violations at the centroid. A height
        # from einsum's row norms, as ConeStack.values takes them, differs
        # in the last bits on some of these stacks, so this test can tell
        rng = np.random.default_rng(31)
        einsum_differs = 0
        for k in range(400):
            n, m = (1, 4.0) if k % 4 == 0 else (int(rng.integers(1, 9)), 1.0)
            x0 = rng.uniform(-10.0, 10.0, (int(rng.integers(1, 13)), n)) * 10.0 ** rng.integers(-3, 4)
            u_max = 10.0 ** rng.uniform(-4.0, 4.0, len(x0))
            model = Model.SECOND_ORDER if m == 4.0 else Model.FIRST_ORDER
            stack, p0, *_ = _build_sets([AgentDynamics(model, x, u_max=u) for x, u in zip(x0, u_max)])
            cones = [SecondOrderCone(vec(x, 0.0), m / u) for x, u in zip(x0, u_max)]
            centroid = vec(x0.mean(axis=0), 0.0)
            assert float(p0.t).hex() == max(c.violation(centroid) for c in cones).hex()
            for row, cone in zip(stack, cones):
                for v in rng.normal(scale=20.0, size=(3, n + 1)):
                    assert row.project(v).tobytes() == cone.project(v).tobytes()
                    assert row.violation(v).hex() == cone.violation(v).hex()
            d = x0.mean(axis=0) - x0
            einsum_differs += (m / u_max * np.sqrt(np.einsum("ij,ij->i", d, d))).max() != p0.t
        assert einsum_differs

    def test_reach_time_is_the_set_boundary(self):
        # the height _build_sets gives a position is the reach time there,
        # squared for a double integrator at rest
        for agents, power in (
            ([AgentDynamics(Model.FIRST_ORDER, [1.0, -2.0], u_max=2.0)], 1),
            ([so_agent(1.5, u_max=0.5)], 2),
            ([so_agent(1.5, 2.0, 0.5)], 1),
        ):
            (s,), *_ = _build_sets(agents)
            for x in ([4.0, 2.0], [-3.0, 0.5]):
                x = np.array(x[: agents[0].x0.size])
                t = reach_time(agents[0], x)
                assert s.violation(vec(x, t ** power)) == pytest.approx(0.0, abs=1e-12)

    def test_consensus_time_is_max_reach_time(self):
        agents = [so_agent(x) for x in EXP1_POSITIONS]
        r = solve_min_time_consensus(agents)
        times = [
            second_order_reach_time_zero_vel(float(a.x0[0]), float(r.x_consensus[0]), a.u_max)
            for a in agents
        ]
        assert r.t_consensus == pytest.approx(max(times), abs=1e-4)

    @pytest.mark.parametrize(
        "mode, caps, iterate",
        [
            ("centralized", {"max_inner_cycles": 5}, ("-0x1.2d5289e4bf3fap+3", "0x1.139ff1ce3f85cp+5")),
            ("centralized", {"max_outer_iters": 2}, ("-0x1.63603505a4a68p+2", "0x1.8f4261302c722p+5")),
            ("ring", {"max_inner_cycles": 5}, ("-0x1.74b6134ce3de5p+1", "0x1.e3c4f6dfc5cddp+5")),
            # before the first plane drop: the iterate is a guess the trace holds
            ("ring", {"max_inner_cycles": 1}, ("-0x1.74b6134ce3de5p+1", "0x1.e3c4f6dfc5cddp+5")),
            ("ring", {"max_outer_iters": 2}, ("-0x1.636035059d1d2p+2", "0x1.8f4261303036dp+5")),
        ],
    )
    def test_capped_iterate_is_a_raw_copy(self, mode, caps, iterate):
        agents = [so_agent(x) for x in EXP1_POSITIONS]
        with pytest.raises(ConvergenceError) as exc:
            solve_min_time_consensus(agents, ToleranceConfig(**caps, exact_finish=False), mode=mode)
        it, trace = exc.value.iterate, exc.value.trace

        def rows():
            return [(r.cycle, r.agent_id, r.point.tobytes(), r.increment_norm) for r in trace]

        # an (x..., t) array, pinned bit for bit
        assert type(it) is np.ndarray and it.shape == (2,)
        assert tuple(float(v).hex() for v in it) == iterate
        before = rows()
        it[:] = np.nan
        assert rows() == before

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
