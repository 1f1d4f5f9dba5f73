"""Deterministic token-ring simulation of the distributed solver.

N agents sit on a cyclic digraph; each owns one projectable set and a
private Dykstra increment.  A single (guess, flag) message circulates
1 -> 2 -> ... -> N -> 1.  Agent 1 doubles as coordinator: when its own
projection stops moving it drops the guess onto the plane (the Bregman
step) and raises the increment-reset flag for one full cycle.

run_ring skips the agent visits that would change nothing bit for bit, as
dykstra_project skips trivial steps, and records each run of them as one
entry of its Trace; its traces and results are those of visiting every
agent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .alternating import MinMaxSolution, ToleranceConfig, Trace
from .errors import ConvergenceError
from .geometry import ConeStack, HorizontalHyperplane, PointTime, ProjectableSet, norm, plus_zero

Array = np.ndarray


@dataclass
class AgentNode:
    """Per-agent protocol state: own set, private increment, last guess."""

    id: int
    own_set: ProjectableSet
    increment: Optional[Array] = None
    last_guess: Optional[Array] = None  # used by agent 1 only

    def __post_init__(self):
        if self.id < 1:
            raise ValueError("agent ids start at 1")
        if self.increment is None:
            self.increment = np.zeros(self.own_set.dim + 1)


@dataclass(frozen=True)
class RingMessage:
    """The circulating message: guess, reset flag, and accumulated drift.

    guess is a raw (x..., t) array that no one writes to once it is sent,
    so it is passed on and recorded without a copy. drift sums each
    visited agent's increment change since the coordinator last saw the
    message; the guess alone can stall for whole cycles while increments
    still move, so the coordinator needs both before it may declare the
    inner projection converged.
    """

    guess: Array
    flag: int
    drift: float = 0.0

    def __post_init__(self):
        if self.flag not in (0, 1):
            raise ValueError("flag must be 0 or 1")
        if self.drift < 0:
            raise ValueError("drift must be nonnegative")


@dataclass(frozen=True)
class ProtocolEvent:
    """Outcome of one coordinator turn."""

    bregman: bool
    error_norm: float
    pre_plane: Optional[Array] = None  # guess before the plane drop


def agent_step(node: AgentNode, msg: RingMessage) -> Tuple[AgentNode, RingMessage]:
    """One Dykstra update at a single agent.

    Projects the incoming guess minus the private increment onto the
    agent's own set and updates the increment.  flag = 1 (the cycle after
    a Bregman event) discards the stale increment first, so the reset
    cycle doubles as the first genuine cycle of the restarted inner run;
    zeroing after the projection instead would unanchor the restart from
    the plane point and stall the outer loop on non-optimal fixed points.
    """
    old = node.increment
    if msg.flag == 1:
        node.increment = np.zeros_like(node.increment)
    y = msg.guess - node.increment
    q = node.own_set.project(y)
    node.increment = q - y
    change = norm(node.increment - old)
    return node, RingMessage(q, msg.flag, msg.drift + change)


def coordinator_step(
    node1: AgentNode,
    msg_from_n: RingMessage,
    plane: HorizontalHyperplane,
    cfg: ToleranceConfig,
) -> Tuple[AgentNode, RingMessage, ProtocolEvent]:
    """Agent 1's turn: own Dykstra step, then possibly the Bregman step.

    Compares the spatial part of the fresh projection with the stored
    previous guess; when the change drops below cfg.err the guess is
    projected onto the plane and the reset flag is raised.
    """
    if node1.id != 1:
        raise ValueError("coordinator_step requires the agent with id 1")
    node1, m = agent_step(node1, msg_from_n)
    g = m.guess
    if node1.last_guess is None:
        e = np.inf
    else:
        # m.drift carries every agent's increment movement over the last
        # full circulation, closing the guess-stall blind spot
        e = norm(g[:-1] - node1.last_guess[:-1]) + m.drift
    node1.last_guess = g
    if e < cfg.err:
        # forget the pre-drop guess: the restarted inner run must stabilize
        # on its own evidence, not by matching the run it replaced
        node1.last_guess = None
        out = RingMessage(plane.project(g), 1)
        return node1, out, ProtocolEvent(True, e, pre_plane=g)
    return node1, RingMessage(g, 0), ProtocolEvent(False, e)


def run_ring(
    agents: Sequence[AgentNode],
    plane: HorizontalHyperplane,
    p0: PointTime,
    cfg: ToleranceConfig,
) -> MinMaxSolution:
    """Simulate the token ring until two consecutive Bregman events move
    the plane-side point less than cfg.outer_tol.

    cfg.max_outer_iters caps the Bregman events and cfg.max_inner_cycles
    the cycles between two of them, as in solve_minmax. Every
    ConvergenceError carries the trace so far.

    A visit of agents 2..N is skipped when ConeStack.first_nontrivial finds
    it trivial: the increment is +0.0 on arrival and the guess lies strictly
    inside the agent's cone. agent_step would then send the same guess on,
    keep a zero increment (under flag 1 too) and add 0.0 to the drift, so
    the row (cycle, id, guess, 0.0, flag, False) that the returned Trace
    builds from the received guess array is the one it would have
    written. A nonzero increment that flag 1 resets is a real change,
    and its agent is always visited.
    """
    if not agents:
        raise ValueError("at least one agent is required")
    ids = [a.id for a in agents]
    if ids != list(range(1, len(agents) + 1)):
        raise ValueError("agents must be ordered by id 1..N")
    v0 = p0.to_array()
    plane._check(v0)
    for a in agents:
        a.own_set._check(v0)
    n_agents = len(agents)
    cones = ConeStack([a.own_set for a in agents])
    # increment is +0.0 in every component; agent 1 always takes its turn,
    # so its entry is never read
    zero = np.array([plus_zero(np.asarray(a.increment, dtype=float)) for a in agents])
    msg = RingMessage(v0, 0)
    trace = Trace()
    prev_plane: Optional[Array] = None
    n_events = 0
    last_event_cycle = 0
    best = msg.guess
    for cycle in itertools.count(1):
        node1, msg, event = coordinator_step(agents[0], msg, plane, cfg)
        trace._add(cycle, 1, 2, msg.guess, norm(node1.increment), msg.flag, event.bregman)
        if event.bregman:
            n_events += 1
            last_event_cycle = cycle
            a = best = event.pre_plane
            plane_pt = msg.guess
            gap = norm(a - plane_pt)
            if prev_plane is not None and norm(plane_pt - prev_plane) < cfg.outer_tol:
                t_star = float(a[-1])
                return MinMaxSolution(
                    x_star=a[:-1].copy(),
                    t_star=t_star,
                    distance=gap,
                    inner_cycles_total=cycle,
                    outer_iters=n_events,
                    trace=trace,
                    plane_grazed=(t_star - plane.t_min) < cfg.outer_tol,
                    # agent 1 has taken this cycle's turn, the others not yet
                    message_counts={
                        n.id: cycle if n.id == 1 else cycle - 1 for n in agents
                    },
                )
            if n_events == cfg.max_outer_iters:
                raise ConvergenceError(
                    "ring protocol: Bregman event cap reached",
                    iterate=a.copy(),
                    residual=gap,
                    iterations=n_events,
                    trace=trace,
                )
            prev_plane = plane_pt
        elif n_events == 0:
            best = msg.guess
        i = 1
        while i < n_agents:
            j = cones.first_nontrivial(msg.guess, zero, i)
            # the visits in between are trivial and make one run (ids are
            # indices + 1)
            if j > i:
                trace._add(cycle, i + 1, j + 1, msg.guess, 0.0, msg.flag, False)
            if j == n_agents:
                break
            node, msg = agent_step(agents[j], msg)
            zero[j] = plus_zero(node.increment)
            trace._add(cycle, node.id, node.id + 1, msg.guess, norm(node.increment), msg.flag, False)
            i = j + 1
        if cycle - last_event_cycle == cfg.max_inner_cycles:
            raise ConvergenceError(
                "ring protocol: inner cycle cap reached",
                iterate=best.copy(),
                residual=event.error_norm,
                iterations=cfg.max_inner_cycles,
                trace=trace,
            )
