"""Minimum-time multi-agent consensus on top of the min-max solver.

First-order integrators yield exact cones in state-time space.  Double
integrators with zero initial velocity become cones after the squared-time
substitution; nonzero initial velocities go through per-agent piecewise
quadratic height transforms (an experimental construction with no
convexity guarantee) and projections are done branch by branch in the
transformed coordinates.  Bang-bang schedules to the consensus state are
synthesized in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .alternating import MinMaxSolution, ToleranceConfig, solve_minmax
from .errors import InfeasibleTargetError
from .geometry import (
    HorizontalHyperplane,
    PointTime,
    ProjectableSet,
    SecondOrderCone,
)
from .ring import AgentNode, run_ring

Array = np.ndarray


class Model(Enum):
    FIRST_ORDER = "first_order"
    SECOND_ORDER = "second_order"


@dataclass(frozen=True)
class AgentDynamics:
    """Integrator model, initial state and input bound for one agent."""

    model: Model
    x0: Array
    v0: float = 0.0
    u_max: float = 1.0

    def __post_init__(self):
        if isinstance(self.v0, bool) or isinstance(self.u_max, bool):
            raise TypeError("v0 and u_max must be numbers, not booleans")
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "v0", float(self.v0))
        object.__setattr__(self, "u_max", float(self.u_max))
        if x0.ndim != 1 or x0.size < 1 or not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be a nonempty list of finite numbers")
        if not (math.isfinite(self.u_max) and self.u_max > 0 and math.isfinite(self.v0)):
            raise ValueError("u_max must be finite and positive, and v0 finite")
        if self.model is Model.FIRST_ORDER and self.v0 != 0.0:
            raise ValueError("first-order agents have no velocity state")
        if self.model is Model.SECOND_ORDER and x0.size != 1:
            raise ValueError("second-order agents are one-dimensional")


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant input: list of (duration, input) segments."""

    segments: Tuple[Tuple[float, object], ...]

    def __post_init__(self):
        segs = tuple((float(d), u) for d, u in self.segments)
        for d, _ in segs:
            if d < 0:
                raise ValueError("segment durations must be nonnegative")
        object.__setattr__(self, "segments", segs)

    @property
    def total_duration(self) -> float:
        return sum(d for d, _ in self.segments)


@dataclass
class ConsensusResult:
    x_consensus: Array
    t_consensus: float
    schedules: List[ControlSchedule]
    solver: MinMaxSolution
    experimental: bool = False


# ---------------------------------------------------------------------------
# reach times and attainable sets


def first_order_reach_time(x0: Array, x: Array, u_max: float) -> float:
    """Minimum time for a saturated single integrator: ||x - x0|| / u_max."""
    if u_max <= 0:
        raise ValueError("u_max must be positive")
    return float(np.linalg.norm(np.asarray(x, float) - np.asarray(x0, float))) / u_max


def first_order_attainable_set(agent: AgentDynamics) -> SecondOrderCone:
    if agent.model is not Model.FIRST_ORDER:
        raise ValueError("expected a first-order agent")
    return SecondOrderCone(PointTime(agent.x0, 0.0), 1.0 / agent.u_max)


def second_order_reach_time_zero_vel(x0: float, x: float, u_max: float) -> float:
    """Symmetric accelerate/decelerate maneuver: 2*sqrt(|x - x0| / u_max)."""
    if u_max <= 0:
        raise ValueError("u_max must be positive")
    return 2.0 * math.sqrt(abs(float(x) - float(x0)) / u_max)


def inverse_time_square(s: float) -> float:
    if s < 0:
        raise ValueError("squared time must be nonnegative")
    return math.sqrt(float(s))


def second_order_zero_vel_set(agent: AgentDynamics) -> SecondOrderCone:
    """Attainable set in (x, s = t^2) coordinates: s >= (4/u_max)|x - x0|."""
    if agent.model is not Model.SECOND_ORDER:
        raise ValueError("expected a second-order agent")
    if agent.v0 != 0.0:
        raise ValueError("nonzero initial velocity: use the experimental path")
    return SecondOrderCone(PointTime(agent.x0, 0.0), 4.0 / agent.u_max)


def second_order_reach_time_general(
    x1: float, v1: float, x2: float, v2: float, u_max: float = 1.0
) -> float:
    """Minimum time for the bounded double integrator, arbitrary endpoints.

    The active bang-bang branch is picked by the sign of the switching
    function x2 - x1 - (v1 + v2)|v1 - v2| / (2 u_max); both branches agree
    on the boundary.
    """
    if u_max <= 0:
        raise ValueError("u_max must be positive")
    # normalize to unit input bound; time is scale-invariant
    a = float(x1) / u_max
    b = float(x2) / u_max
    w1 = float(v1) / u_max
    w2 = float(v2) / u_max
    delta = (b - a) - 0.5 * (w1 + w2) * abs(w1 - w2)
    if delta >= 0:
        arg = 4.0 * (b - a) + 2.0 * w1 * w1 + 2.0 * w2 * w2
        if arg < 0:
            raise InfeasibleTargetError("no nonnegative root on the + branch")
        t = -(w1 + w2) + math.sqrt(arg)
    else:
        arg = -4.0 * (b - a) + 2.0 * w1 * w1 + 2.0 * w2 * w2
        if arg < 0:
            raise InfeasibleTargetError("no nonnegative root on the - branch")
        t = (w1 + w2) + math.sqrt(arg)
    if t < 0:
        raise InfeasibleTargetError("negative reach time root")
    return t


class SecondOrderAttainableSet(ProjectableSet):
    """(position, time) pairs a double integrator reaches with zero final
    velocity.

    Membership uses the exact reach-time formula.  Projection is a
    branch-wise heuristic: each parabola branch is affine in its own
    squared-time coordinates, so the point is projected onto each branch's
    transformed epigraph (clamped to the branch's position range) and the
    candidate closer in the untransformed metric wins.  Exact for v0 = 0;
    experimental otherwise.
    """

    dim = 1

    def __init__(self, x0: float, v0: float, u_max: float = 1.0):
        if u_max <= 0:
            raise ValueError("u_max must be positive")
        self.x0 = float(x0)
        self.v0 = float(v0)
        self.u_max = float(u_max)
        self.nu = self.v0 / self.u_max
        nu = self.nu
        self.c = abs(nu) - 0.5 * (nu * nu - nu * abs(nu))
        self.bstar = self.x0 + 0.5 * self.u_max * nu * abs(nu)
        self.slope = 4.0 / self.u_max

    def reach_time(self, pos: float) -> float:
        return second_order_reach_time_general(
            self.x0, self.v0, float(pos), 0.0, self.u_max
        )

    def violation(self, v: Array) -> float:
        self._check(v)
        return self.reach_time(v[0]) - float(v[-1])

    def _branch_candidate(self, v: Array, side: float) -> Array:
        nu, c = self.nu, self.c
        b0 = float(v[0])
        base = float(v[1]) + side * nu
        # odd extension below the parabola vertex keeps the map injective
        h0 = base * abs(base) + c
        m = side * self.slope
        k = -m * self.x0 + 2.0 * nu * nu + c
        if h0 >= m * b0 + k:
            b1, h1 = b0, h0
        else:
            b1 = (b0 + m * (h0 - k)) / (1.0 + m * m)
            h1 = m * b1 + k
        if side * (b1 - self.bstar) < 0:
            b1 = self.bstar
            h1 = max(h0, m * b1 + k)
        t1 = -side * nu + math.sqrt(max(h1 - c, 0.0))
        return np.array([b1, max(t1, 0.0)])

    def project(self, v: Array) -> Array:
        if self.reach_time(v[0]) - float(v[1]) <= 1e-12:
            return v
        right = self._branch_candidate(v, +1.0)
        left = self._branch_candidate(v, -1.0)
        if np.linalg.norm(right - v) <= np.linalg.norm(left - v):
            return right
        return left


def _attainable_set(agent: AgentDynamics) -> SecondOrderAttainableSet:
    return SecondOrderAttainableSet(float(agent.x0[0]), agent.v0, agent.u_max)


# ---------------------------------------------------------------------------
# bang-bang synthesis


def bang_bang_control(
    state: Tuple[float, float], target: Tuple[float, float], u_max: float
) -> float:
    """Time-optimal input for the bounded double integrator.

    Sign of the switching function; exactly on the switching surface the
    decelerating sign is taken, which produces the two-phase optimal
    trajectory.
    """
    if u_max <= 0:
        raise ValueError("u_max must be positive")
    x1, x2 = float(state[0]), float(state[1])
    x12, x22 = float(target[0]), float(target[1])
    sigma = (x12 - x1) - (x2 + x22) * abs(x2 - x22) / (2.0 * u_max)
    if sigma > 0:
        return u_max
    if sigma < 0:
        return -u_max
    if x2 == x22:
        return 0.0
    return -math.copysign(u_max, x2 - x22)


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    x: float
    v: float
    u: float


@dataclass
class TrajectoryResult:
    samples: List[TrajectorySample]
    schedule: ControlSchedule
    arrival_time: float


def simulate_trajectory(
    agent: AgentDynamics, target: Tuple[float, float], dt: float
) -> TrajectoryResult:
    """Closed-form two-phase integration of the bang-bang maneuver.

    dt only controls the output sampling; phase switch and arrival times
    are exact.  The sample list always contains the initial point, the
    switch instant and the arrival point.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if agent.model is not Model.SECOND_ORDER:
        raise ValueError("trajectory synthesis is for second-order agents")
    um = agent.u_max
    x0, v0 = float(agent.x0[0]), agent.v0
    xt, vt = float(target[0]), float(target[1])

    total = second_order_reach_time_general(x0, v0, xt, vt, um)
    if total == 0.0:
        sched = ControlSchedule(())
        return TrajectoryResult([TrajectorySample(0.0, x0, v0, 0.0)], sched, 0.0)

    u1 = bang_bang_control((x0, v0), (xt, vt), um)
    if u1 == 0.0:
        # on the switching surface at matched velocity: single decel phase
        u1 = -math.copysign(um, v0 - vt) if v0 != vt else um
    t1 = 0.5 * (total + (vt - v0) / u1)
    t1 = min(max(t1, 0.0), total)
    t2 = total - t1

    segments = []
    if t1 > 1e-12:
        segments.append((t1, u1))
    if t2 > 1e-12:
        segments.append((t2, -u1))
    sched = ControlSchedule(tuple(segments))

    def state_at(t: float) -> Tuple[float, float, float]:
        if t <= t1:
            return (
                x0 + v0 * t + 0.5 * u1 * t * t,
                v0 + u1 * t,
                u1,
            )
        tau = t - t1
        xs = x0 + v0 * t1 + 0.5 * u1 * t1 * t1
        vs = v0 + u1 * t1
        return (
            xs + vs * tau - 0.5 * u1 * tau * tau,
            vs - u1 * tau,
            -u1,
        )

    times = sorted(
        set(
            [round(k * dt, 12) for k in range(int(total / dt) + 1)]
            + ([t1] if 0.0 < t1 < total else [])
            + [0.0, total]
        )
    )
    samples = [TrajectorySample(t, *state_at(t)) for t in times if t <= total]
    return TrajectoryResult(samples, sched, total)


# ---------------------------------------------------------------------------
# the consensus solve


def _build_sets(
    agents: Sequence[AgentDynamics],
) -> Tuple[List[ProjectableSet], str, bool]:
    models = {a.model for a in agents}
    if len(models) != 1:
        raise ValueError("all agents must share one model class")
    model = models.pop()
    if model is Model.FIRST_ORDER:
        return [first_order_attainable_set(a) for a in agents], "time", False
    if all(a.v0 == 0.0 for a in agents):
        return [second_order_zero_vel_set(a) for a in agents], "squared", False
    return [_attainable_set(a) for a in agents], "time", True


def reach_time(agent: AgentDynamics, x: Array) -> float:
    """Minimum time for one agent to reach position x (final velocity 0)."""
    if agent.model is Model.FIRST_ORDER:
        return first_order_reach_time(agent.x0, x, agent.u_max)
    return second_order_reach_time_general(
        float(agent.x0[0]), agent.v0, float(np.atleast_1d(x)[0]), 0.0, agent.u_max
    )


def solve_min_time_consensus(
    agents: Sequence[AgentDynamics],
    cfg: Optional[ToleranceConfig] = None,
    mode: str = "centralized",
) -> ConsensusResult:
    """Find the time-optimal consensus state and per-agent schedules.

    Builds each agent's attainable-set epigraph, solves the min-max
    problem against the zero-height plane (centralized Bregman/Dykstra or
    the simulated ring), maps the height back to seconds and synthesizes
    the controls that take every agent to the consensus state.
    """
    if not agents:
        raise ValueError("at least one agent is required")
    if mode not in ("centralized", "ring"):
        raise ValueError(f"unknown mode {mode!r}")
    cfg = cfg or ToleranceConfig()

    sets, height_kind, experimental = _build_sets(agents)
    centroid = np.mean([a.x0 for a in agents], axis=0)
    # a set's violation at height 0 is its boundary height
    h0 = max(s.violation(np.append(centroid, 0.0)) for s in sets)
    p0 = PointTime(centroid, h0)

    plane = HorizontalHyperplane(0.0)
    if mode == "centralized":
        sol = solve_minmax(sets, plane, p0, cfg)
    else:
        nodes = [AgentNode(i + 1, s) for i, s in enumerate(sets)]
        sol = run_ring(nodes, plane, p0, cfg)

    x_cons = sol.x_star
    if height_kind == "squared":
        t_cons = inverse_time_square(max(sol.t_star, 0.0))
    else:
        t_cons = sol.t_star

    schedules: List[ControlSchedule] = []
    for a in agents:
        if a.model is Model.FIRST_ORDER:
            d = x_cons - a.x0
            dist = float(np.linalg.norm(d))
            if dist == 0.0:
                schedules.append(ControlSchedule(()))
            else:
                u_vec = a.u_max * d / dist
                schedules.append(ControlSchedule(((dist / a.u_max, u_vec),)))
        else:
            traj = simulate_trajectory(a, (float(x_cons[0]), 0.0), dt=max(t_cons, 1.0))
            schedules.append(traj.schedule)

    return ConsensusResult(
        x_consensus=x_cons,
        t_consensus=t_cons,
        schedules=schedules,
        solver=sol,
        experimental=experimental,
    )
