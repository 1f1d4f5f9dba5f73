"""Deterministic token-ring simulation of the distributed solver.

N agents sit on a cyclic digraph; agent i owns the set sets[i-1] and a
private Dykstra increment.  A single (guess, flag) message circulates
1 -> 2 -> ... -> N -> 1.  Agent 1 doubles as coordinator: when its own
projection stops moving it drops the guess onto the plane (the Bregman
step) and raises the increment-reset flag for one full cycle.  Under
cfg.warm_start it sends the plane point plus a - b_prev instead, with
flag 0, and every agent keeps its increment: a, agent 1's guess, and
b_prev, the plane point the inner run started from, are both its own,
and their difference is the sum of all the increments.

run_ring keeps the increments in one (N, n+1) array, as dykstra_project
does, and calls agent_step at each visit and coordinator_step once per
cycle. It skips the agent visits that would change nothing bit for bit, as
dykstra_project skips trivial steps, and records each run of them as one
entry of its Trace; its traces and results are those of visiting every
agent.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Tuple

import numpy as np

from .alternating import MinMaxSolution, ToleranceConfig, Trace
from .errors import ConvergenceError
from .geometry import ConeStack, HorizontalHyperplane, PointTime, ProjectableSet, norm, plus_zero

Array = np.ndarray


def agent_step(s: ProjectableSet, increment: Array, guess: Array, flag: int) -> Tuple[Array, Array]:
    """One Dykstra update at a single agent: the guess it sends on and its
    new increment.

    Projects the incoming guess minus the private increment onto the
    agent's own set s.  flag = 1 (the cycle after a Bregman event) discards
    the stale increment first, so the reset cycle doubles as the first
    genuine cycle of the restarted inner run; zeroing after the projection
    instead would unanchor the restart from the plane point and stall the
    outer loop on non-optimal fixed points.
    """
    if flag == 1:
        increment = np.zeros_like(increment)
    y = guess - increment
    q = s.project(y)
    return q, q - y


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

    With cfg.warm_start a Bregman event sends the plane point plus a -
    b_prev with flag 0, so the next inner run starts from the increments
    the last one ended with, as in solve_minmax. Agent 1's event row holds
    the plane point either way.
    """
    if not sets:
        raise ValueError("at least one agent is required")
    guess = b_prev = p0.to_array()
    plane._check(guess)
    for s in sets:
        s._check(guess)
    n_agents = len(sets)
    cones = ConeStack(sets)
    increments = np.zeros((n_agents, guess.size))
    # increment is +0.0 in every component; agent 1 always takes its turn,
    # so its entry is never read
    zero = np.ones(n_agents, dtype=bool)
    flag = 0
    # every increment's movement since agent 1 last tested the guess
    drift = 0.0
    last_guess: Optional[Array] = None
    trace = Trace()
    n_events = 0
    last_event_cycle = 0
    best = guess
    for cycle in itertools.count(1):
        a, inc = agent_step(sets[0], increments[0], guess, flag)
        drift += norm(inc - increments[0])
        increments[0] = inc
        e, plane_pt = coordinator_step(a, last_guess, drift, plane, cfg)
        drift = 0.0
        bregman = plane_pt is not None
        # after a Bregman event agent 1 forgets the pre-drop guess: the
        # restarted inner run must stabilize on its own evidence, not by
        # matching the run it replaced
        if not bregman:
            guess, last_guess, flag = a, a, 0
        elif cfg.warm_start:
            # a - b_prev is the sum of every increment, so the run from
            # plane_pt keeps them all
            guess, last_guess, flag = plane_pt + (a - b_prev), None, 0
        else:
            guess, last_guess, flag = plane_pt, None, 1
        trace._add(cycle, 1, 2, plane_pt if bregman else a, norm(inc), flag, bregman)
        if bregman:
            n_events += 1
            last_event_cycle = cycle
            best = a
            gap = norm(a - plane_pt)
            if n_events > 1 and norm(plane_pt - b_prev) < cfg.outer_tol:
                t_star = float(a[-1])
                return MinMaxSolution(
                    x_star=a[:-1].copy(),
                    t_star=t_star,
                    distance=gap,
                    inner_cycles_total=cycle,
                    outer_iters=n_events,
                    trace=trace,
                    plane_grazed=(t_star - plane.t_min) < cfg.outer_tol,
                )
            if n_events == cfg.max_outer_iters:
                raise ConvergenceError(
                    "ring protocol: Bregman event cap reached",
                    iterate=a.copy(),
                    residual=gap,
                    iterations=n_events,
                    trace=trace,
                )
            b_prev = plane_pt
        elif n_events == 0:
            best = a
        i = 1
        while i < n_agents:
            j = cones.first_nontrivial(guess, zero, i)
            # the visits in between are trivial and make one run (ids are
            # indices + 1)
            if j > i:
                trace._add(cycle, i + 1, j + 1, guess, 0.0, flag, False)
            if j == n_agents:
                break
            guess, inc = agent_step(sets[j], increments[j], guess, flag)
            drift += norm(inc - increments[j])
            increments[j] = inc
            zero[j] = plus_zero(inc)
            trace._add(cycle, j + 1, j + 2, guess, norm(inc), flag, False)
            i = j + 1
        if cycle - last_event_cycle == cfg.max_inner_cycles:
            raise ConvergenceError(
                "ring protocol: inner cycle cap reached",
                iterate=best.copy(),
                residual=e,
                iterations=cfg.max_inner_cycles,
                trace=trace,
            )
