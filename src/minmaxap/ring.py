"""Deterministic token-ring simulation of the distributed solver.

N agents sit on a cyclic digraph; each owns one projectable set and a
private Dykstra increment.  A single (guess, flag) message circulates
1 -> 2 -> ... -> N -> 1.  Agent 1 doubles as coordinator: when its own
projection stops moving it drops the guess onto the plane (the Bregman
step) and raises the increment-reset flag for one full cycle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .alternating import MinMaxSolution, ToleranceConfig, TraceEvent
from .errors import ConvergenceError
from .geometry import HorizontalHyperplane, PointTime, ProjectableSet

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
    change = float(np.linalg.norm(node.increment - old))
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
        e = float(np.linalg.norm(g[:-1] - node1.last_guess[:-1])) + m.drift
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
    """
    if not agents:
        raise ValueError("at least one agent is required")
    ids = [a.id for a in agents]
    if ids != list(range(1, len(agents) + 1)):
        raise ValueError("agents must be ordered by id 1..N")
    v0 = p0.to_array()
    for a in agents:
        a.own_set._check(v0)
    msg = RingMessage(v0, 0)
    trace: List[TraceEvent] = []
    prev_plane: Optional[Array] = None
    n_events = 0
    last_event_cycle = 0
    best = msg.guess
    for cycle in itertools.count(1):
        node1, msg, event = coordinator_step(agents[0], msg, plane, cfg)
        trace.append(
            TraceEvent(
                cycle,
                1,
                msg.guess,
                float(np.linalg.norm(node1.increment)),
                msg.flag,
                event.bregman,
            )
        )
        if event.bregman:
            n_events += 1
            last_event_cycle = cycle
            a = best = event.pre_plane
            plane_pt = msg.guess
            gap = float(np.linalg.norm(a - plane_pt))
            if (
                prev_plane is not None
                and float(np.linalg.norm(plane_pt - prev_plane)) < cfg.outer_tol
            ):
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
                    iterate=PointTime.from_array(a.copy()),
                    residual=gap,
                    iterations=n_events,
                    trace=trace,
                )
            prev_plane = plane_pt
        elif n_events == 0:
            best = msg.guess
        for node in agents[1:]:
            node, msg = agent_step(node, msg)
            trace.append(
                TraceEvent(
                    cycle,
                    node.id,
                    msg.guess,
                    float(np.linalg.norm(node.increment)),
                    msg.flag,
                    False,
                )
            )
        if cycle - last_event_cycle == cfg.max_inner_cycles:
            raise ConvergenceError(
                "ring protocol: inner cycle cap reached",
                iterate=PointTime.from_array(best.copy()),
                residual=event.error_norm,
                iterations=cfg.max_inner_cycles,
                trace=trace,
            )
