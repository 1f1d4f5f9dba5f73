"""Centralized solvers: Dykstra's cyclic projection onto an intersection,
and the Bregman alternating projection between that intersection and a
second set, which with a plane below the epigraphs solves the min-max."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConvergenceError
from .geometry import ConeStack, HorizontalHyperplane, PointTime, ProjectableSet, plus_zero

Array = np.ndarray


@dataclass(frozen=True)
class ToleranceConfig:
    """Stopping rules for the nested projection loops.

    err is the inner Dykstra cycle-to-cycle threshold; outer_tol stops the
    outer Bregman loop once consecutive plane-side points move less than it.
    max_inner_cycles caps the Dykstra cycles of one inner run and
    max_outer_iters the Bregman steps.
    """

    err: float = 1e-7
    outer_tol: float = 1e-6
    max_inner_cycles: int = 10000
    max_outer_iters: int = 500

    def __post_init__(self):
        for tol in (self.err, self.outer_tol):
            # bool is an int subclass, but true is no tolerance
            if isinstance(tol, bool):
                raise TypeError("tolerances must be numbers, not booleans")
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError("tolerances must be finite and positive")
        for cap in (self.max_inner_cycles, self.max_outer_iters):
            if not isinstance(cap, int) or isinstance(cap, bool):
                raise TypeError("iteration caps must be integers")
            if cap < 1:
                raise ValueError("iteration caps must be at least 1")


class TraceEvent(NamedTuple):
    """One row of a solver trace.

    The centralized solver writes one row per Bregman step: the
    intersection-side iterate, agent 0, increment norm 0.0, flag 1 and a
    Bregman event. The ring writes one row per agent visit: the guess that
    agent sends on, its increment norm and the message flag.
    """

    cycle: int
    agent_id: int
    point: Array  # (x..., t)
    increment_norm: float
    flag: int
    bregman_event: bool


@dataclass
class MinMaxSolution:
    x_star: Array
    t_star: float
    distance: float
    inner_cycles_total: int
    outer_iters: int
    trace: List[TraceEvent]
    plane_grazed: bool = False
    message_counts: Optional[dict] = None


def dykstra_project(
    sets: Sequence[ProjectableSet],
    p0: Array,
    cfg: ToleranceConfig,
    stats: Optional[dict] = None,
) -> Array:
    """Project the (x..., t) array p0 onto the intersection of the given sets.

    Cycles through the sets in order, applying each projection to the
    iterate minus that set's increment and updating the increment, until
    the end-of-cycle iterate moves less than cfg.err between cycles.

    A step is trivial when the set's increment is +0.0 throughout and the
    iterate lies strictly inside the set: the step would leave both
    bit-for-bit unchanged. The trivial steps that
    ConeStack.first_nontrivial finds are skipped, as run_ring skips trivial
    agent visits, so the result and the cycle count are those of the plain
    per-set loop. p0 itself comes back when no step moves it.
    """
    if not sets:
        raise ValueError("sets must be nonempty")
    for s in sets:
        s._check(p0)
    x = p0
    m = len(sets)
    increments = np.zeros((m, x.size))
    zero = np.ones(m, dtype=bool)  # increment is +0.0 in every component
    cones = ConeStack(sets)
    prev = None
    resid = np.inf
    for cycle in range(1, cfg.max_inner_cycles + 1):
        # sum of the increments' moves this cycle, in set order; an
        # unchanged increment would add exactly 0.0
        drift = 0
        i = 0
        while i < m:
            i = cones.first_nontrivial(x, zero, i)
            if i == m:
                break
            y = x - increments[i]
            px = sets[i].project(y)
            inc = px - y
            drift += float(np.linalg.norm(inc - increments[i]))
            increments[i] = inc
            zero[i] = plus_zero(inc)
            x = px
            i += 1
        if prev is not None:
            # the iterate can stall for whole cycles while the increments
            # still drift, so both must settle before we may stop
            resid = float(np.linalg.norm(x - prev)) + drift
            if resid < cfg.err:
                if stats is not None:
                    stats["cycles"] = cycle
                return x
        prev = x
    if stats is not None:
        stats["cycles"] = cfg.max_inner_cycles
    raise ConvergenceError(
        "Dykstra cycle cap reached (empty or ill-conditioned intersection?)",
        iterate=PointTime.from_array(x),
        residual=resid,
        iterations=cfg.max_inner_cycles,
    )


def bregman_alternate(
    sets: Sequence[ProjectableSet],
    set_b: ProjectableSet,
    p0: PointTime,
    cfg: ToleranceConfig,
) -> MinMaxSolution:
    """Alternate a_k = P_A(b_{k-1}), b_k = P_B(a_k), A the intersection of sets.

    P_A is dykstra_project. Stops once consecutive b_k move less than
    cfg.outer_tol; a_k is then the solution and ``distance`` the gap to
    b_k, which is the minimum distance between A and set_b when the two do
    not intersect. Every ConvergenceError carries the trace so far.
    """
    b = p0.to_array()
    set_b._check(b)
    prev_b = None
    trace: List[TraceEvent] = []
    inner_total = 0
    for k in range(1, cfg.max_outer_iters + 1):
        stats: dict = {}
        try:
            a = dykstra_project(sets, b, cfg, stats=stats)
        except ConvergenceError as exc:
            exc.trace = trace
            raise
        inner_total += stats["cycles"]
        b = set_b.project(a)
        trace.append(TraceEvent(k, 0, a, 0.0, 1, True))
        if prev_b is not None and float(np.linalg.norm(b - prev_b)) < cfg.outer_tol:
            return MinMaxSolution(
                x_star=a[:-1].copy(),
                t_star=float(a[-1]),
                distance=float(np.linalg.norm(a - b)),
                inner_cycles_total=inner_total,
                outer_iters=k,
                trace=trace,
            )
        prev_b = b
    raise ConvergenceError(
        "Bregman outer iteration cap reached",
        iterate=PointTime.from_array(a),
        residual=float(np.linalg.norm(a - b)),
        iterations=cfg.max_outer_iters,
        trace=trace,
    )


def solve_minmax(
    epigraphs: Sequence[ProjectableSet],
    plane: HorizontalHyperplane,
    p0: PointTime,
    cfg: ToleranceConfig,
) -> MinMaxSolution:
    """Lowest point of the epigraph intersection, via Bregman + Dykstra.

    Requires plane.t_min to lie strictly below the intersection's minimum
    height; if the limit ends up within outer_tol of the plane the result
    is flagged (plane_grazed) since that signals a violated precondition.
    """
    if not epigraphs:
        raise ValueError("epigraphs must be nonempty")
    sol = bregman_alternate(epigraphs, plane, p0, cfg)
    sol.plane_grazed = (sol.t_star - plane.t_min) < cfg.outer_tol
    return sol
