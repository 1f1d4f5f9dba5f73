"""Minimum-time multi-agent consensus on top of the min-max solver.

First-order integrators yield exact cones in state-time space.  Double
integrators with zero initial velocity become cones after the squared-time
substitution; nonzero initial velocities go through per-agent piecewise
quadratic height transforms (an experimental construction with no
convexity guarantee) and projections are done branch by branch in the
transformed coordinates.  simulate_trajectory gives an agent's motion and
schedule to the consensus state in closed form: a straight line at full
input for a first-order agent, the bang-bang maneuver for a second-order one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .alternating import MinMaxSolution, ToleranceConfig, solve_minmax
from .errors import DimensionMismatchError, InfeasibleTargetError
from .geometry import (
    ConeStack,
    HorizontalHyperplane,
    PointTime,
    ProjectableSet,
    finite_number,
    finite_vector,
    positive_number,
)
from .ring import run_ring

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
        object.__setattr__(self, "model", Model(self.model))
        object.__setattr__(self, "x0", finite_vector(self.x0, "x0"))
        object.__setattr__(self, "v0", finite_number(self.v0, "v0"))
        object.__setattr__(self, "u_max", positive_number(self.u_max, "u_max"))
        if self.model is Model.FIRST_ORDER and self.v0 != 0.0:
            raise ValueError("first-order agents have no velocity state")
        if self.model is Model.SECOND_ORDER and self.x0.size != 1:
            raise ValueError("second-order agents are one-dimensional")


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant input: list of (duration, input) segments, each
    input a finite number or vector."""

    segments: Tuple[Tuple[float, object], ...]

    def __post_init__(self):
        segs = tuple((finite_number(d, "duration"), u) for d, u in self.segments)
        if any(d < 0 for d, _ in segs):
            raise ValueError("segment durations must be nonnegative")
        for _, u in segs:
            finite_vector(u, "input")
        object.__setattr__(self, "segments", segs)


@dataclass
class ConsensusResult:
    x_consensus: Array
    t_consensus: float
    solver: MinMaxSolution
    experimental: bool = False


# ---------------------------------------------------------------------------
# reach times and attainable sets


def second_order_reach_time_zero_vel(x0: float, x: float, u_max: float) -> float:
    """Symmetric accelerate/decelerate maneuver: 2*sqrt(|x - x0| / u_max)."""
    if not 0.0 < u_max < math.inf:
        raise ValueError("u_max must be positive and finite")
    return 2.0 * math.sqrt(abs(float(x) - float(x0)) / u_max)


def _bang_bang(
    x1: float, v1: float, x2: float, v2: float, u_max: float
) -> Tuple[float, float, float]:
    """(first input, duration, switch time) of the time-optimal bang-bang
    maneuver from (x1, v1) to (x2, v2) under |u| <= u_max.

    The branch is the sign of the switching function
    x2 - x1 - (v1 + v2)|v1 - v2| / (2 u_max), taken once at unit input
    bound. Where it is 0 the target lies on the switching curve, reached by
    one phase at full input in |v1 - v2| / u_max (input 0.0 at the target
    itself); the two-phase branches agree with that only when v2 = 0.

    The first phase ends at the switch time, clamped to the duration. Where
    rounding puts the switch at or before 0, the target is on the curve to
    rounding, and the maneuver is one phase of the other input.
    """
    # not a test of <= 0, so that a nan rejects, here and in the
    # zero-velocity time; an infinite bound would give time 0 to anywhere
    if not 0.0 < u_max < math.inf:
        raise ValueError("u_max must be positive and finite")
    # normalize to unit input bound; time is scale-invariant
    a = float(x1) / u_max
    b = float(x2) / u_max
    w1 = float(v1) / u_max
    w2 = float(v2) / u_max
    delta = (b - a) - 0.5 * (w1 + w2) * abs(w1 - w2)
    if delta == 0:
        t = abs(w1 - w2)
        return (math.copysign(u_max, w2 - w1) if w1 != w2 else 0.0), t, t
    side = 1.0 if delta > 0 else -1.0
    arg = side * 4.0 * (b - a) + 2.0 * w1 * w1 + 2.0 * w2 * w2
    if arg < 0:
        raise InfeasibleTargetError(f"no nonnegative root on the {'+' if side > 0 else '-'} branch")
    t = -side * (w1 + w2) + math.sqrt(arg)
    if t < 0:
        raise InfeasibleTargetError("negative reach time root")
    u1 = side * u_max
    t1 = 0.5 * (t + (float(v2) - float(v1)) / u1)
    if t1 <= 0:
        return -u1, t, t
    return u1, t, min(t1, t)


def second_order_reach_time_general(
    x1: float, v1: float, x2: float, v2: float, u_max: float = 1.0
) -> float:
    """Minimum time for the bounded double integrator, arbitrary endpoints:
    the duration of the bang-bang maneuver (x1, v1) -> (x2, v2)."""
    return _bang_bang(x1, v1, x2, v2, u_max)[1]


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
        self.x0 = finite_number(x0, "x0")
        self.v0 = finite_number(v0, "v0")
        self.u_max = positive_number(u_max, "u_max")
        self.nu = nu = self.v0 / self.u_max
        self.c = abs(nu) - 0.5 * (nu * nu - nu * abs(nu))
        self.bstar = self.x0 + 0.5 * self.u_max * nu * abs(nu)
        self.slope = 4.0 / self.u_max

    def reach_time(self, pos: float) -> float:
        return _bang_bang(self.x0, self.v0, pos, 0.0, self.u_max)[1]

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


# ---------------------------------------------------------------------------
# bang-bang synthesis


def bang_bang_control(
    state: Tuple[float, float], target: Tuple[float, float], u_max: float
) -> float:
    """Time-optimal input for the bounded double integrator: u_max or
    -u_max by the sign of the switching function, 0.0 at the target, and
    on the switching surface (or within rounding of it, where the branch's
    first phase would be empty) the single phase at full input that ends
    at the target. It is the input of simulate_trajectory's first phase."""
    return _bang_bang(state[0], state[1], target[0], target[1], u_max)[0]


@dataclass(frozen=True)
class TrajectorySample:
    """One sample; x and u are vectors (and v is 0.0) for first-order agents."""

    t: float
    x: Union[float, Array]
    v: float
    u: Union[float, Array]


@dataclass
class TrajectoryResult:
    samples: List[TrajectorySample]
    schedule: ControlSchedule
    arrival_time: float


def simulate_trajectory(
    agent: AgentDynamics, target: Tuple[object, float], dt: float
) -> TrajectoryResult:
    """An agent's time-optimal motion to target = (position, velocity).

    A first-order agent moves straight to the position vector at u_max; its
    target velocity must be 0.  A second-order agent flies the bang-bang
    maneuver to the scalar position, integrated in closed form.  A position
    whose length is not x0's raises DimensionMismatchError.

    dt only controls the output sampling; phase switch and arrival times
    are exact.  The sample list always contains the initial point, the
    switch instant and the arrival point.
    """
    dt = positive_number(dt, "dt")
    xt = _position(agent, finite_vector(target[0], "target position"))
    vt = finite_number(target[1], "target velocity")
    if agent.model is Model.FIRST_ORDER:
        if vt != 0.0:
            raise ValueError("first-order agents have no velocity state")
        d = xt - agent.x0
        dist = float(np.linalg.norm(d))
        if dist == 0.0:
            total, u, sched = 0.0, np.zeros_like(agent.x0), ControlSchedule(())
        else:
            total, u = dist / agent.u_max, agent.u_max * d / dist
            sched = ControlSchedule(((total, u),))
        # a grid time that rounds past total holds the arrival state
        times = sorted({round(k * dt, 12) for k in range(int(total / dt) + 1)} | {0.0, total})
        samples = [
            TrajectorySample(t, agent.x0 + min(t, total) * u, 0.0, u if t < total else 0 * u)
            for t in times
        ]
        return TrajectoryResult(samples, sched, total)
    um = agent.u_max
    x0, v0, xt = float(agent.x0[0]), agent.v0, float(xt[0])

    # one sign test decides the first input, the arrival and the switch
    u1, total, t1 = _bang_bang(x0, v0, xt, vt, um)
    if total == 0.0:
        return TrajectoryResult([TrajectorySample(0.0, x0, v0, 0.0)], ControlSchedule(()), 0.0)
    t2 = total - t1

    segments = [(t1, u1)]
    if t2 > 0:
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
) -> Tuple[Sequence[ProjectableSet], PointTime, bool, bool]:
    """Each agent's attainable set, the solve's start point, whether the
    height is squared time, and whether the sets are the experimental ones.

    The rules of an agent list live here: it is nonempty, its agents share
    one model (ValueError) and one x0 length (DimensionMismatchError), and
    the slopes and the start point are finite (ValueError). That point is
    the centroid of the x0s at the height max_i f_i(centroid), in every set.
    A first-order agent reaches x in ||x - x0|| / u_max, a cone in time; a
    double integrator at rest takes 2 sqrt(|x - x0| / u_max), a cone in
    squared time, s >= (4 / u_max)|x - x0|; the cones come as a ConeStack.
    """
    if not agents:
        raise ValueError("at least one agent is required")
    if any(a.model is not agents[0].model for a in agents):
        raise ValueError("every agent must use the same model")
    if any(a.x0.size != agents[0].x0.size for a in agents):
        raise DimensionMismatchError("every x0 must have the same length")
    second_order = agents[0].model is Model.SECOND_ORDER
    experimental = second_order and any(a.v0 != 0.0 for a in agents)
    x0 = np.array([a.x0 for a in agents])
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.append(x0.mean(axis=0), 0.0)
        if experimental:
            sets = [SecondOrderAttainableSet(a.x0[0], a.v0, a.u_max) for a in agents]
            # a set's violation at height 0 is its boundary height
            heights = np.array([s.violation(base) for s in sets])
        else:
            # a finite u_max can still give an infinite slope
            slope = (4.0 if second_order else 1.0) / np.array([a.u_max for a in agents])
            if not np.isfinite(slope).all():
                raise ValueError("slope must be finite")
            sets = ConeStack(np.column_stack((x0, np.zeros(len(agents)))), slope)
            d = base[:-1] - x0
            # the cone's own norm, sqrt(d.dot(d)), bit for bit, which einsum is not
            heights = slope * np.sqrt(np.matmul(d[:, None, :], d[:, :, None]).ravel())
    if not (np.isfinite(base).all() and np.isfinite(heights).all()):
        raise ValueError("the start height max_i f_i(centroid) overflows: positions or velocities too large")
    return sets, PointTime(base[:-1], heights.max()), second_order and not experimental, experimental


def _position(agent: AgentDynamics, x: Array) -> Array:
    """x; DimensionMismatchError unless a number or a vector of x0's length."""
    if x.ndim > 1 or x.size != agent.x0.size:
        raise DimensionMismatchError(f"position length {x.size}, x0 length {agent.x0.size}")
    return x


def reach_time(agent: AgentDynamics, x: Array) -> float:
    """Minimum time for one agent to reach position x and stop there."""
    x = _position(agent, np.asarray(x, dtype=float))
    if agent.model is Model.FIRST_ORDER:
        return float(np.linalg.norm(x - agent.x0)) / agent.u_max
    return _bang_bang(agent.x0[0], agent.v0, x.item(), 0.0, agent.u_max)[1]


def solve_min_time_consensus(
    agents: Sequence[AgentDynamics],
    cfg: Optional[ToleranceConfig] = None,
    mode: str = "centralized",
) -> ConsensusResult:
    """Find the time-optimal consensus state and time.

    Builds each agent's attainable-set epigraph, solves the min-max
    problem against the zero-height plane (centralized Bregman/Dykstra or
    the simulated ring) and maps the height back to seconds.
    simulate_trajectory gives the motion that takes an agent there.
    """
    if mode not in ("centralized", "ring"):
        raise ValueError(f"unknown mode {mode!r}")
    cfg = cfg or ToleranceConfig()

    sets, p0, squared, experimental = _build_sets(agents)
    plane = HorizontalHyperplane(0.0)
    solve = solve_minmax if mode == "centralized" else run_ring
    sol = solve(sets, plane, p0, cfg)

    return ConsensusResult(
        x_consensus=sol.x_star,
        t_consensus=math.sqrt(max(sol.t_star, 0.0)) if squared else sol.t_star,
        solver=sol,
        experimental=experimental,
    )
