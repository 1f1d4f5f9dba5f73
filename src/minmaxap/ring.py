"""Deterministic token-ring simulation of the distributed solver.

N agents sit on a cyclic digraph; each owns one projectable set and a
private Dykstra increment.  A single (guess, flag) message circulates
1 -> 2 -> ... -> N -> 1.  Agent 1 doubles as coordinator: when its own
projection stops moving it drops the guess onto the plane (the Bregman
step) and raises the increment-reset flag for one full cycle.

run_ring skips the agent visits that would change nothing bit for bit, as
dykstra_project skips trivial steps, and records each run of them as one
entry of its RingTrace; its traces and results are those of visiting every
agent.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from collections import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .alternating import MinMaxSolution, ToleranceConfig, TraceEvent
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


class RingTrace(abc.Sequence):
    """The rows of a ring solve, one per agent visit, read-only.

    A run of skipped visits is stored as one entry (cycle, first_id,
    end_id, guess, flag) and its rows (cycle, id, guess, 0.0, flag, False),
    for first_id <= id < end_id, are built when they are read. len is
    O(1); indexing finds the entry by bisection in row offsets that are
    built on the first index after a write.
    """

    def __init__(self):
        self._entries: list = []
        self._len = 0
        self._starts: Optional[List[int]] = None

    def _append(self, row: TraceEvent) -> None:
        self._entries.append(row)
        self._len += 1
        self._starts = None

    def _skip(self, cycle: int, first_id: int, end_id: int, guess: Array, flag: int) -> None:
        """Record the skipped visits of agents first_id..end_id-1."""
        self._entries.append((cycle, first_id, end_id, guess, flag))
        self._len += end_id - first_id
        self._starts = None

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for e in self._entries:
            if type(e) is TraceEvent:
                yield e
            else:
                cycle, first_id, end_id, guess, flag = e
                for agent_id in range(first_id, end_id):
                    yield TraceEvent(cycle, agent_id, guess, 0.0, flag, False)

    def __getitem__(self, i: Union[int, slice]):
        if isinstance(i, slice):
            return [self[k] for k in range(self._len)[i]]
        i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("trace index out of range")
        if self._starts is None:
            self._starts = list(
                itertools.accumulate(
                    (1 if type(e) is TraceEvent else e[2] - e[1] for e in self._entries),
                    initial=0,
                )
            )
        k = bisect.bisect_right(self._starts, i) - 1
        e = self._entries[k]
        if type(e) is TraceEvent:
            return e
        cycle, first_id, _, guess, flag = e
        return TraceEvent(cycle, first_id + i - self._starts[k], guess, 0.0, flag, False)


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
    the row (cycle, id, guess, 0.0, flag, False) that the returned
    RingTrace builds from the received guess array is the one it would
    have written. A nonzero increment that flag 1 resets is a real change,
    and its agent is always visited.
    """
    if not agents:
        raise ValueError("at least one agent is required")
    ids = [a.id for a in agents]
    if ids != list(range(1, len(agents) + 1)):
        raise ValueError("agents must be ordered by id 1..N")
    v0 = p0.to_array()
    for a in agents:
        a.own_set._check(v0)
    n_agents = len(agents)
    cones = ConeStack([a.own_set for a in agents])
    # increment is +0.0 in every component; agent 1 always takes its turn,
    # so its entry is never read
    zero = np.array([plus_zero(np.asarray(a.increment, dtype=float)) for a in agents])
    msg = RingMessage(v0, 0)
    trace = RingTrace()
    prev_plane: Optional[Array] = None
    n_events = 0
    last_event_cycle = 0
    best = msg.guess
    for cycle in itertools.count(1):
        node1, msg, event = coordinator_step(agents[0], msg, plane, cfg)
        trace._append(
            TraceEvent(
                cycle,
                1,
                msg.guess,
                norm(node1.increment),
                msg.flag,
                event.bregman,
            )
        )
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
                    iterate=PointTime.from_array(a.copy()),
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
                trace._skip(cycle, i + 1, j + 1, msg.guess, msg.flag)
            if j == n_agents:
                break
            node, msg = agent_step(agents[j], msg)
            zero[j] = plus_zero(node.increment)
            trace._append(
                TraceEvent(
                    cycle,
                    node.id,
                    msg.guess,
                    norm(node.increment),
                    msg.flag,
                    False,
                )
            )
            i = j + 1
        if cycle - last_event_cycle == cfg.max_inner_cycles:
            raise ConvergenceError(
                "ring protocol: inner cycle cap reached",
                iterate=PointTime.from_array(best.copy()),
                residual=event.error_norm,
                iterations=cfg.max_inner_cycles,
                trace=trace,
            )
