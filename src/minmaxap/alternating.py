"""Centralized solvers: Dykstra's cyclic projection, Bregman's two-set
alternating projection, and the min-max solver composed from both."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ConvergenceError
from .geometry import ConeStack, HorizontalHyperplane, PointTime, ProjectableSet

Array = np.ndarray


@dataclass(frozen=True)
class ToleranceConfig:
    """Stopping rules for the nested projection loops.

    err is the inner Dykstra cycle-to-cycle threshold; outer_tol stops the
    outer Bregman loop once consecutive plane-side points move less than it.
    """

    err: float = 1e-7
    outer_tol: float = 1e-6
    max_inner_cycles: int = 10000
    max_outer_iters: int = 500

    def __post_init__(self):
        if self.err <= 0 or self.outer_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_inner_cycles < 1 or self.max_outer_iters < 1:
            raise ValueError("iteration caps must be at least 1")


class BregmanResult(NamedTuple):
    a_star: PointTime
    b_star: PointTime
    distance: float
    outer_iters: int


@dataclass(frozen=True)
class OuterRecord:
    """One Bregman outer iteration of the centralized solver."""

    iteration: int
    a: Array  # intersection-side iterate (x..., t)
    b: Array  # plane-side iterate
    gap: float


@dataclass
class MinMaxSolution:
    x_star: Array
    t_star: float
    distance: float
    inner_cycles_total: int
    outer_iters: int
    trace: list
    plane_grazed: bool = False
    message_counts: Optional[dict] = None


def dykstra_project(
    sets: Sequence[ProjectableSet],
    p0: PointTime,
    cfg: ToleranceConfig,
    stats: Optional[dict] = None,
) -> PointTime:
    """Project p0 onto the intersection of the given sets.

    Cycles through the sets in order, applying each projection to the
    iterate minus that set's increment and updating the increment, until
    the end-of-cycle iterate moves less than cfg.err between cycles.

    A step is trivial when the set's increment is +0.0 throughout and the
    iterate lies strictly inside the set: the step would leave both
    bit-for-bit unchanged. Trivial steps found by ConeStack's batched test
    are skipped, so the result and the cycle count are those of the plain
    per-set loop.
    """
    if not sets:
        raise ValueError("sets must be nonempty")
    for s in sets:
        s._check(p0)
    x = p0.to_array()
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
            if cones.any:
                trivial = zero[i:] & cones.inside(x, i)
                k = int(trivial.argmin())
                if trivial[k]:
                    break
                i += k
            y = x - increments[i]
            px = sets[i].project_array(y)
            inc = px - y
            drift += float(np.linalg.norm(inc - increments[i]))
            increments[i] = inc
            zero[i] = not inc.view(np.int64).any()
            x = px
            i += 1
        if prev is not None:
            # the iterate can stall for whole cycles while the increments
            # still drift, so both must settle before we may stop
            resid = float(np.linalg.norm(x - prev)) + drift
            if resid < cfg.err:
                if stats is not None:
                    stats["cycles"] = cycle
                return PointTime.from_array(x)
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
    set_a: Union[ProjectableSet, Sequence[ProjectableSet]],
    set_b: ProjectableSet,
    p0: PointTime,
    cfg: ToleranceConfig,
) -> BregmanResult:
    """Alternate projections a_n = P_A(b_{n-1}), b_n = P_B(a_n).

    When the sets intersect the two limits coincide; otherwise the pair
    approximates the minimum-distance points and ``distance`` their gap.
    set_a may be a sequence of sets, projected onto via Dykstra.
    """
    b = p0
    prev_b = None
    a = p0
    for k in range(1, cfg.max_outer_iters + 1):
        if isinstance(set_a, ProjectableSet):
            a = set_a.project(b)
        else:
            a = dykstra_project(set_a, b, cfg)
        b = set_b.project(a)
        if prev_b is not None and b.distance_to(prev_b) < cfg.outer_tol:
            return BregmanResult(a, b, a.distance_to(b), k)
        prev_b = b
    raise ConvergenceError(
        "Bregman outer iteration cap reached",
        iterate=a,
        residual=a.distance_to(b),
        iterations=cfg.max_outer_iters,
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
    b = p0
    prev_b = None
    a = p0
    trace: List[OuterRecord] = []
    inner_total = 0
    converged_at = None
    for k in range(1, cfg.max_outer_iters + 1):
        stats: dict = {}
        try:
            a = dykstra_project(epigraphs, b, cfg, stats=stats)
        except ConvergenceError as exc:
            exc.trace = trace
            raise
        inner_total += stats["cycles"]
        b = plane.project(a)
        gap = a.distance_to(b)
        trace.append(OuterRecord(k, a.to_array(), b.to_array(), gap))
        if prev_b is not None and b.distance_to(prev_b) < cfg.outer_tol:
            converged_at = k
            break
        prev_b = b
    if converged_at is None:
        raise ConvergenceError(
            "min-max solver: Bregman outer iteration cap reached",
            iterate=a,
            residual=a.distance_to(b),
            iterations=cfg.max_outer_iters,
            trace=trace,
        )
    return MinMaxSolution(
        x_star=a.x.copy(),
        t_star=a.t,
        distance=a.distance_to(b),
        inner_cycles_total=inner_total,
        outer_iters=converged_at,
        trace=trace,
        plane_grazed=(a.t - plane.t_min) < cfg.outer_tol,
    )
