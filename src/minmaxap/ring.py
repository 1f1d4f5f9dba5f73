"""Deterministic token-ring simulation of the distributed solver.

N agents sit on a cyclic digraph; agent i owns the set sets[i-1] and a
private Dykstra increment.  A single guess circulates 1 -> 2 -> ... -> N
-> 1.  Agent 1 doubles as coordinator: when its own projection stops
moving it drops the guess onto the plane, and when that happens or a try
proves a point it ends the Bregman step in alternating.bregman_step, as
solve_minmax does.  a, agent 1's guess, and b_prev, the plane point the
inner run started from, are both its own, and their difference is the
sum of all the increments, so a warm restart needs no more than they.  A
cold one zeroes every increment at the event; the paper's agents each
discard their own at the next visit, which projects the same points.

run_ring keeps one alternating.DykstraState, as solve_minmax does, and
adds only its visit order, agent 1's stop test and its cycle cap. Each
cycle agent 1 takes agent_step (alternating.dykstra_step) and
coordinator_step, and agents 2..N take alternating.dykstra_pass, which
skips the visits that change nothing but still writes their rows.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Tuple

import numpy as np

from .alternating import DykstraState, MinMaxSolution, ToleranceConfig, Trace, bregman_step, dykstra_pass
from .alternating import dykstra_step as agent_step
from .errors import ConvergenceError
from .geometry import HorizontalHyperplane, PointTime, ProjectableSet, norm

Array = np.ndarray


def coordinator_step(
    guess: Array,
    last_guess: Optional[Array],
    drift: float,
    plane: HorizontalHyperplane,
    cfg: ToleranceConfig,
) -> Tuple[float, Optional[Array]]:
    """Agent 1's test after its own Dykstra step: the error, and the guess
    dropped onto the plane when the error is below cfg.err (else None).

    The error compares the spatial part of agent 1's fresh guess with its
    guess one cycle before (last_guess, None after a Bregman event) and
    adds drift, every agent's increment movement over that cycle: the
    guess alone can stall for whole cycles while increments still move.
    """
    e = np.inf if last_guess is None else norm(guess[:-1] - last_guess[:-1]) + drift
    return e, (plane.project(guess) if e < cfg.err else None)


def run_ring(
    sets: Sequence[ProjectableSet],
    plane: HorizontalHyperplane,
    p0: PointTime,
    cfg: ToleranceConfig,
) -> MinMaxSolution:
    """Simulate the token ring until two consecutive Bregman events move
    the plane-side point less than cfg.outer_tol; agent i owns sets[i-1].

    Each event ends in alternating.bregman_step, which returns the answer,
    raises the outer cap or gives the guess agent 1 sends on, as in
    solve_minmax; run_ring returns nothing else.
    cfg.max_inner_cycles caps the cycles between two events. Every
    ConvergenceError carries the trace so far.

    dykstra_pass skips a visit of agents 2..N when the increment is +0.0
    on arrival and the guess lies strictly inside the agent's cone.
    agent_step would then send the same guess on, keep a zero increment and
    add 0.0 to the drift, so the row (cycle, id, guess, 0.0, flag, False)
    that the returned Trace builds from the received guess array is the one
    it would have written.

    The trace's flag is 1 on the rows of the cycle a cold event (one
    without cfg.warm_start) starts, from agent 1's event row on, and 0
    elsewhere. Agent 1's event row holds the plane point.

    Under cfg.exact_finish, when the stack finishes (every set a cone, or
    every set a ConvexEpigraph: ConeStack.finishes), agent 1 calls
    DykstraState.try_finish on its own turn, before its stop test, as
    dykstra_project does after a cycle; try_finish picks the agents whose
    sets a try starts from. Each event forgets the basis tried. A proof is
    the event of agent 1's turn, step k, and ends the solve in
    bregman_step: agent 1's row, the trace's last, then holds the proved
    point, as solve_minmax's last row does.
    """
    guess = b_prev = p0.to_array()
    state = DykstraState(sets, guess, cfg.exact_finish)
    # every increment's movement since agent 1 last tested the guess
    drift = 0.0
    last_guess: Optional[Array] = None
    trace = Trace()
    n_events = 0
    last_event_cycle = 0
    best = guess
    for cycle in itertools.count(1):
        a, inc = agent_step(sets[0], state.increments[0], guess)
        drift += state.take(0, inc)
        point = state.try_finish(a)
        e, plane_pt = coordinator_step(a, last_guess, drift, plane, cfg)
        # a proof is this turn's Bregman event, and its row holds the proved point
        event = plane_pt if point is None else point
        bregman = event is not None
        flag = int(bregman and not cfg.warm_start)
        trace._add(cycle, 1, 2, event if bregman else a, norm(inc), flag, bregman)
        if bregman or n_events == 0:
            best = a
        if bregman:
            n_events += 1
            last_event_cycle = cycle
            guess = bregman_step(n_events, a, plane_pt, b_prev, point, state, cycle, trace, plane, cfg)
            if isinstance(guess, MinMaxSolution):
                return guess
            # agent 1 forgets the pre-drop guess, and the state the basis
            # it tried: the restarted run must stabilize on its own evidence
            b_prev, last_guess = plane_pt, None
        else:
            guess = last_guess = a
        guess, drift = dykstra_pass(state, guess, 1, trace, cycle, flag)
        if cycle - last_event_cycle == cfg.max_inner_cycles:
            raise ConvergenceError(
                "ring protocol: inner cycle cap reached",
                iterate=best.copy(),
                residual=e,
                iterations=cfg.max_inner_cycles,
                trace=trace,
            )
