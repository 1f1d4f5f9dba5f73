"""Centralized solvers: Dykstra's cyclic projection onto an intersection,
and the Bregman alternating projection between that intersection and a
plane below it, which solves the min-max."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConvergenceError
from .geometry import (
    ConeStack, HorizontalHyperplane, PointTime, ProjectableSet, norm, plus_zero, positive_integer,
)

Array = np.ndarray


@dataclass(frozen=True)
class ToleranceConfig:
    """Stopping rules for the nested projection loops.

    err is the inner Dykstra cycle-to-cycle threshold; outer_tol stops the
    outer Bregman loop once consecutive plane-side points move less than it.
    max_inner_cycles caps the Dykstra cycles of one inner run and
    max_outer_iters the Bregman steps. warm_start starts every inner run
    after the first from the last run's increments; False restarts each
    from zero increments, the paper's protocol.

    exact_finish, when every set is a SecondOrderCone or every set is a
    ConvexEpigraph, ends the solve as soon as finish() proves the lowest
    point of their intersection exactly: both solvers try it after every
    cycle through DykstraState.try_finish, which says which sets a try
    takes (epigraphs, whose oracles give no curvature, only exactly
    n + 1). On cones a failed try goes on to a basis exchange of at most
    4 (n + 1) steps (exchange()), which hands finish() a repaired support.
    With False, or with any other stack, only the paper's stop rule ends
    the solve.
    """

    err: float = 1e-7
    outer_tol: float = 1e-6
    max_inner_cycles: int = 10000
    max_outer_iters: int = 500
    warm_start: bool = True
    exact_finish: bool = True

    def __post_init__(self):
        for tol in (self.err, self.outer_tol):
            # bool is an int subclass, but true is no tolerance
            if isinstance(tol, bool):
                raise TypeError("tolerances must be numbers, not booleans")
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError("tolerances must be finite and positive")
        for cap in ("max_inner_cycles", "max_outer_iters"):
            object.__setattr__(self, cap, positive_integer(getattr(self, cap), cap))
        for flag in ("warm_start", "exact_finish"):
            if not isinstance(getattr(self, flag), bool):
                raise TypeError(f"{flag} must be true or false")


class TraceEvent(NamedTuple):
    """One row of a solver trace.

    The centralized solver writes one row per Bregman step: the
    intersection-side iterate, agent 0, increment norm 0.0, a Bregman
    event and flag 1, or 0 under warm_start, which resets no increments.
    The ring writes one row per agent visit: the guess that agent sends
    on, its increment norm and flag 1 in the cycle a reset starts; at a
    Bregman event agent 1's row holds the plane point it dropped onto.
    """

    cycle: int
    agent_id: int
    point: Array  # (x..., t)
    increment_norm: float
    flag: int
    bregman_event: bool


class Trace:
    """The TraceEvent rows of a solve, stored as runs.

    Each run (cycle, first_id, end_id, point, increment_norm, flag,
    bregman_event) stands for the rows of agents first_id..end_id-1, which
    share everything but the agent id. A Bregman step or a ring visit is a
    run of one, and consecutive skipped ring visits make one run. len counts
    the rows, iteration builds them, and runs() yields the runs as written.
    """

    def __init__(self):
        self._runs: list = []
        self._rows = 0

    def _add(self, cycle, first_id, end_id, point, increment_norm, flag, bregman_event) -> None:
        self._runs.append((cycle, first_id, end_id, point, increment_norm, flag, bregman_event))
        self._rows += end_id - first_id

    def __len__(self) -> int:
        return self._rows

    def __iter__(self):
        for cycle, first_id, end_id, point, increment_norm, flag, bregman_event in self._runs:
            for agent_id in range(first_id, end_id):
                yield TraceEvent(cycle, agent_id, point, increment_norm, flag, bregman_event)

    def runs(self):
        return iter(self._runs)


@dataclass
class MinMaxSolution:
    """The lowest point (x_star, t_star) of the intersection and how it was
    found. distance is its gap to the last plane point; finished says that
    finish() proved it, which makes it exact to rounding, where the paper's
    stop leaves it about outer_tol away. plane_grazed flags a t_star within
    outer_tol of the plane, which the answer must lie strictly above."""

    x_star: Array
    t_star: float
    distance: float
    inner_cycles_total: int
    outer_iters: int
    trace: Trace
    plane_grazed: bool = False
    finished: bool = False


def dykstra_step(s: ProjectableSet, increment: Array, x: Array) -> tuple[Array, Array]:
    """One Dykstra step onto the set s: the new iterate, the projection of
    x minus s's increment, and s's new increment."""
    y = x - increment
    q = s.project(y)
    return q, q - y


def dykstra_pass(
    state: DykstraState, x: Array, lo: int, trace: Optional[Trace] = None, cycle: int = 0, flag: int = 0,
) -> tuple[Array, float]:
    """One cyclic Dykstra pass over the state's sets[lo:] from x, taking
    each increment into it: the iterate it ends at, and the sum of the
    increments' moves. It skips the steps ConeStack.first_nontrivial
    finds trivial, which would change nothing bit for bit. A trace gets the
    ring's rows, set i being agent i + 1: one per step, and one run per
    stretch of skipped steps, holding the x they pass on."""
    sets, increments = state.sets, state.increments
    m = len(sets)
    drift = 0.0
    i = lo
    while i < m:
        j = state.cones.first_nontrivial(x, state.zero, i)
        if trace is not None and j > i:
            trace._add(cycle, i + 1, j + 1, x, 0.0, flag, False)
        if j == m:
            break
        x, inc = dykstra_step(sets[j], increments[j], x)
        drift += state.take(j, inc)
        if trace is not None:
            trace._add(cycle, j + 1, j + 2, x, norm(inc), flag, False)
        i = j + 1
    return x, drift


def newton(cones: ConeStack, v: Array, weights: Array, active: Array) -> Optional[tuple[Array, Array]]:
    """The point (x..., t) where every set in active binds and weights
    w >= 0 might prove it, by Newton's method on the KKT system, or None.

    active holds the indices S of at most n + 1 sets of a stack that
    finishes (ConeStack.finishes). Newton, from x and t of v, solves
    f_i(x) = t for i in S, sum_i w_i g_i(x) = 0 and sum_i w_i = 1 for at
    most 20 steps, with the values f_i and subgradients g_i of
    ConeStack.terms. With |S| = n + 1 the system splits: the square system
    f_i(x) = t fixes (x, t), and w, linear in the rest, is solved once at
    its root. With |S| <= n the root of f_i = t is no point, so Newton runs
    on (x, t, w) together, from w = weights normalised, with the Hessian of
    sum_i w_i f_i that cones give; oracles give none, and such a solve
    gives up before any oracle call. Newton stops at the second iterate in
    a row whose residual passes the test, which leaves the point at
    rounding: the f_i = t block within 1e-12 (1 + |t|), the gradient block
    within 1e-12 max_i ||g_i|| and sum_i w_i within 1e-12 of 1. Returns
    the root and its w, whose sign it leaves to the caller. A value or
    subgradient that is not finite, x at an apex of S, where grad f_i does
    not exist, or a singular system gives None; an oracle's
    ArithmeticError passes on.
    """
    n, k = v.size - 1, active.size
    square = k == n + 1
    if not square and cones.oracles is not None:
        return None
    terms = cones.terms(active)
    z = v if square else np.concatenate((v, weights / weights.sum()))
    # z is (x..., t) or (x..., t, w...), F the residual and bound its
    # acceptance test, J the Jacobian
    F = np.empty(z.size)
    bound = np.full(z.size, 1e-12)
    J = np.zeros((z.size, z.size))
    J[:k, n] = -1.0
    J[-1, n + 1:] = 1.0
    # at most 20 Newton steps, until two iterates in a row pass the
    # residual test: the step after the first leaves (x, t) at rounding
    near = False
    for _ in range(21):
        x, t = z[:n], z[n]
        at = terms(x)
        if at is None:
            return None
        f, g, hessian, scale = at
        F[:k] = f - t
        bound[:k] = 1e-12 * (1.0 + abs(t))
        J[:k, :n] = g
        if not square:
            w = z[n + 1:]
            F[k:-1] = w @ g
            F[-1] = w.sum() - 1.0
            bound[k:-1] = 1e-12 * scale
        # the largest excess of |F| over its bound, nan or inf unless F is finite
        excess = (np.abs(F) - bound).max()
        if not excess < math.inf:
            return None
        if excess <= 0.0 and near:
            break
        near = excess <= 0.0
        if not square:
            J[k:-1, :n] = hessian(w)
            J[k:-1, n + 1:] = g.T
        try:
            z = z - np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            return None
    else:
        return None
    if square:
        # the rest, sum_i w_i g_i = 0 and -sum_i w_i = -1, is J.T w = -e_n
        try:
            w = np.linalg.solve(J.T, -np.eye(k)[n])
        except np.linalg.LinAlgError:
            return None
        # not <=, so that a nan rejects
        if not ((np.abs(w @ g) <= 1e-12 * scale).all() and abs(w.sum() - 1.0) <= 1e-12):
            return None
    return z[:n + 1].copy(), w


def finish(cones: ConeStack, v: Array, weights: Array, active: Array) -> Optional[Array]:
    """The lowest point (x..., t) of the intersection of the sets, proved
    optimal, or None when this try proves nothing.

    The stack must finish (ConeStack.finishes). active holds the indices S
    of at most n + 1 sets, those that bind at the answer if this try is to
    succeed, and weights, positive and one per set in S, the start of w
    when Newton runs on w too. newton() solves the KKT system from v; its
    root (x, t) is accepted when
    - the f_i = t block is within 1e-12 (1 + |t|), the gradient block
      within 1e-12 max_i ||g_i|| and sum_i w_i within 1e-12 of 1;
    - w >= 0;
    - max f_j(x) <= t + 1e-12 (1 + |t|) over every set;
    - t <= max f_j at v's x + 1e-12 (1 + |t|), an upper bound on t*.
    The first three are the KKT conditions of min t s.t. f_i(x) <= t,
    which prove (x, t) optimal for this convex problem: with the oracles'
    own subgradients a try can fail, but accepts no other point. The first
    and last each reject a root at infinity, where a test relative to |t|
    alone passes. An oracle's ArithmeticError passes on to
    DykstraState.try_finish.
    """
    root = newton(cones, v, weights, active)
    if root is None:
        return None
    point, w = root
    return None if (w < 0).any() or not proves(cones, v, point) else point


def proves(cones: ConeStack, v: Array, point: Array) -> bool:
    """finish()'s last two tests of the point (x..., t), and apex()'s; a
    nan from ConeStack.top fails both."""
    t = point[-1]
    tol = 1e-12 * (1.0 + abs(t))
    return cones.top(point[:-1]) <= t + tol and t <= cones.top(v[:-1]) + tol


def apex(cones: ConeStack, v: Array, j: int) -> Optional[Array]:
    """The apex (p_j, t_j) of cone j, proved the lowest point of a cone
    stack's intersection by proves(), since f_j >= t_j everywhere, or None."""
    point = cones.apex[j].copy()
    return point if proves(cones, v, point) else None


def binding(cones: ConeStack, z: Array, active: Array) -> Optional[tuple[Array, Array]]:
    """The point (x..., t) where every cone in active binds and the
    weights w, summing to 1, that balance their gradients there, or None.

    One cone binds at its apex with w = 1, and two on the segment between
    their apexes p_i and p_j, at distance s from p_i with
    t_i + a_i s = t_j + a_j (d - s), d = ||p_j - p_i||, and w proportional
    to (a_j, a_i); None unless 0 < s < d. More run newton() from the
    (x..., t) array z, with equal starting weights when they number at
    most n. A cone stack only.
    """
    if active.size == 1:
        return cones.apex[active[0]].copy(), np.ones(1)
    if active.size == 2:
        (pi, pj), (ti, tj), (ai, aj) = cones.apex_x[active], cones.apex_t[active], cones.raw_slope[active]
        d = norm(pj - pi)
        s = (tj - ti + aj * d) / (ai + aj)
        if not 0.0 < s < d:
            return None
        return np.append(pi + (s / d) * (pj - pi), ti + ai * s), np.array([aj, ai]) / (ai + aj)
    return newton(cones, z, np.ones(active.size), active)


def basis(cones: ConeStack, z: Array, sets: Array, j: Optional[int] = None) -> Optional[tuple]:
    """The first T of the sets, by size and then index order, that holds j
    (unless j is None) and at most n + 1 sets, whose binding() point has
    w >= 0 and lies on or above every cone of sets, to 1e-12 (1 + |t|):
    (T, point, w), or None when no T does. That point is the lowest of
    the intersection of the sets' cones, for which T is a basis."""
    n = z.size - 1
    first = () if j is None else (j,)
    rest = [i for i in sets.tolist() if i != j]
    for size in range(1, min(sets.size, n + 1) + 1):
        for more in itertools.combinations(rest, size - len(first)):
            T = np.array(first + more)
            found = binding(cones, z, T)
            if found is None:
                continue
            point, w = found
            t = point[-1]
            if (w >= 0).all() and (cones.values(point[:-1], sets) <= t + 1e-12 * (1.0 + abs(t))).all():
                return T, point, w
    return None


def exchange(cones: ConeStack, v: Array, support: Array) -> Optional[Array]:
    """The lowest point (x..., t) of a cone stack, proved, from the
    support of a failed try at the iterate v, or None.

    The min-max of cones is an LP-type problem of combinatorial dimension
    n + 1 (Matousek, Sharir & Welzl 1996), so the try's support is
    repaired as pivoting smallest-enclosing-ball solvers do (Fischer,
    Gartner & Kutz 2003): B, the basis() of the support, takes in the
    cone j with the highest value f_j at its point (x_B, t_B), and basis()
    of B and j, which holds j, replaces it, for at most 4 (n + 1)
    exchanges. Each raises t_B, so no basis returns. Once f_j <= t_B +
    1e-12 (1 + |t_B|), finish() from (x_B, t_B) with B's weights decides;
    a single cone there is proved at its apex in closed form, since
    f_B >= t_B everywhere, when t_B passes finish()'s upper bound at v.
    """
    n = v.size - 1
    found = basis(cones, v, support)
    for _ in range(4 * (n + 1)):
        if found is None:
            return None
        B, point, w = found
        t = point[-1]
        values = cones.values(point[:-1])
        j = int(values.argmax())
        if values[j] <= t + 1e-12 * (1.0 + abs(t)):
            return finish(cones, point, w, B) if B.size > 1 else apex(cones, v, B[0])
        found = basis(cones, point, np.append(B, j), j)
    return None


class DykstraState:
    """The state a solve's Dykstra runs share, in either mode.

    sets are the sets, checked against the (x..., t) array p0 once, and
    cones their ConeStack: sets itself when it is one, else ConeStack.of.
    increments holds one (n+1,) row per set and zero flags the rows that
    are +0.0 throughout; take keeps the two in step. try_finish remembers
    the last support it tried, and tries only with finish true and a stack
    that finishes (ConeStack.finishes). restart begins a Bregman step."""

    def __init__(self, sets: Sequence[ProjectableSet], p0: Array, finish: bool = False):
        if not sets:
            raise ValueError("sets must be nonempty")
        # a stack's rows share one width, so one row's check serves for all
        for s in [sets[0]] if isinstance(sets, ConeStack) else sets:
            s._check(p0)
        self.cones = sets if isinstance(sets, ConeStack) else ConeStack.of(sets)
        self.sets = sets
        self.increments = np.zeros((len(sets), p0.size))
        self.zero = np.ones(len(sets), dtype=bool)
        self.finishing = finish and self.cones.finishes
        self.tried = None

    def take(self, j: int, inc: Array) -> float:
        """Make inc set j's increment: how far the increment moved."""
        move = norm(inc - self.increments[j])
        self.increments[j] = inc
        self.zero[j] = plus_zero(inc)
        return move

    def restart(self, warm: bool) -> None:
        """Forget the support tried, so that the next run tries again on
        its own evidence; unless warm, zero every increment."""
        self.tried = None
        if not warm:
            self.increments[...] = 0.0
            self.zero[:] = True

    def try_finish(self, x: Array) -> Optional[Array]:
        """finish() at the iterate x over a support drawn from S, the sets
        whose increments are nonzero: S itself when it numbers 1 to n + 1,
        else the n + 1 members of S with the highest values f_i at x
        (ConeStack.values), since the increments name the binding sets long
        before S shrinks to them. The support is tried at once unless it is
        the last one tried. On a cone stack a failed try goes on to
        exchange() from its support, and an empty S, with x in every cone,
        tries the apex() of the cone highest at x in every cycle: an answer
        at an apex can leave every increment zero. Returns the proved point
        or None. An oracle's ArithmeticError, at a Newton iterate far from
        any the solve asked for, ends the try with None, not the solve."""
        if not self.finishing:
            return None
        cones = self.cones
        support = np.flatnonzero(~self.zero)
        try:
            # x.size is n + 1
            if support.size > x.size:
                # the n + 1 highest values, kept in index order
                support = np.sort(support[np.argpartition(cones.values(x[:-1], support), -x.size)[-x.size:]])
            if not support.size:
                # x lies in every set and none binds: only an apex can be the answer
                return None if cones.oracles is not None else apex(cones, x, int(cones.values(x[:-1]).argmax()))
            if np.array_equal(support, self.tried):
                return None
            self.tried = support
            point = finish(cones, x, self.increments[support, -1], support)
            if point is None and cones.oracles is None:
                point = exchange(cones, x, support)
            return point
        except ArithmeticError:
            self.tried = support
            return None


def dykstra_project(
    sets: Sequence[ProjectableSet],
    p0: Array,
    cfg: ToleranceConfig,
    stats: Optional[dict] = None,
) -> Array:
    """Project the (x..., t) array p0 onto the intersection of the given sets.

    Runs one dykstra_pass over all the sets per cycle, with no trace, until
    the end-of-cycle iterate moves less than cfg.err between cycles. The
    pass skips only steps that change nothing, so the result and the cycle
    count are those of the plain per-set loop, and p0 itself comes back
    when no step moves it.

    stats, when given, is a dict the run reports its cycle count in, as
    stats["cycles"]. stats["state"] is the run's DykstraState: one found
    there, built for this very list of sets, starts a warm run, which
    updates it in place; without one the run builds its own and leaves it
    there. Every step keeps the iterate at b + increments.sum(0), where b
    is the point being projected, so a warm run's p0 must be b plus the
    sum of its starting increments. From any such start the run converges
    to the projection of b: the increments are the variables of the dual
    problem that Dykstra's method ascends block by block.

    A run is a projection and never finishes a min-max, unless its state
    was built with finish true, as solve_minmax builds it under
    cfg.exact_finish. Then the run calls DykstraState.try_finish after
    each cycle and ends once a try proves a point: the point is
    stats["proved"] (None otherwise), and the run still returns its own
    iterate, which keeps the invariant above.
    """
    stats = {} if stats is None else stats
    state = stats.get("state")
    if state is None:
        state = stats["state"] = DykstraState(sets, p0)
    elif state.sets is not sets:
        raise ValueError("stats['state'] was built for another list of sets")
    x = p0
    prev = None
    resid = np.inf
    for cycle in range(1, cfg.max_inner_cycles + 1):
        x, drift = dykstra_pass(state, x, 0)
        point = state.try_finish(x)
        if point is not None:
            break
        if prev is not None:
            # the iterate can stall for whole cycles while the increments
            # still drift, so both must settle before we may stop
            resid = norm(x - prev) + drift
            if resid < cfg.err:
                break
        prev = x
    else:
        stats["cycles"] = cfg.max_inner_cycles
        raise ConvergenceError(
            "Dykstra cycle cap reached (empty or ill-conditioned intersection?)",
            iterate=x.copy(),
            residual=resid,
            iterations=cfg.max_inner_cycles,
            trace=Trace(),
        )
    stats["cycles"], stats["proved"] = cycle, point
    return x


def solution(
    a: Array, distance: float, cycles: int, k: int, trace: Trace,
    plane: HorizontalHyperplane, cfg: ToleranceConfig, finished: bool = False,
) -> MinMaxSolution:
    """The MinMaxSolution at the (x..., t) point a, found at Bregman step k."""
    t_star = float(a[-1])
    return MinMaxSolution(
        x_star=a[:-1].copy(),
        t_star=t_star,
        distance=distance,
        inner_cycles_total=cycles,
        outer_iters=k,
        trace=trace,
        plane_grazed=(t_star - plane.t_min) < cfg.outer_tol,
        finished=finished,
    )


def proved(
    a: Array, cycles: int, k: int, trace: Trace, plane: HorizontalHyperplane, cfg: ToleranceConfig,
) -> MinMaxSolution:
    """The finished MinMaxSolution at the point a that finish() proved
    during Bregman step k: its distance is its height above the plane."""
    return solution(a, float(a[-1]) - plane.t_min, cycles, k, trace, plane, cfg, finished=True)


def bregman_step(
    k: int, a: Array, b: Array, b_prev: Array, state: DykstraState, cycles: int,
    trace: Trace, plane: HorizontalHyperplane, cfg: ToleranceConfig,
) -> MinMaxSolution | Array:
    """The end of Bregman step k, in solve_minmax and run_ring alike.

    a is the inner run's result, b = plane.project(a), b_prev the plane
    point the run projected, state the solve's DykstraState, cycles the
    inner cycles so far and trace the rows so far. Returns the
    MinMaxSolution once k > 1 and b moved less than cfg.outer_tol (flagged
    plane_grazed when the limit lies within outer_tol of the plane, which
    it must lie strictly above), and raises the outer-cap ConvergenceError
    at k == cfg.max_outer_iters. Otherwise restarts the state and returns
    the next run's start: a - b_prev is the sum of the increments, so
    under cfg.warm_start the run keeps them and starts at b + (a - b_prev),
    where that invariant puts the iterate of a run from b; else they are
    zeroed and it starts at b.
    """
    if k > 1 and norm(b - b_prev) < cfg.outer_tol:
        return solution(a, norm(a - b), cycles, k, trace, plane, cfg)
    if k == cfg.max_outer_iters:
        raise ConvergenceError(
            "Bregman outer iteration cap reached",
            iterate=a.copy(),
            residual=norm(a - b),
            iterations=k,
            trace=trace,
        )
    state.restart(cfg.warm_start)
    return b + (a - b_prev) if cfg.warm_start else b


def solve_minmax(
    epigraphs: Sequence[ProjectableSet],
    plane: HorizontalHyperplane,
    p0: PointTime,
    cfg: ToleranceConfig,
) -> MinMaxSolution:
    """Lowest point of the epigraph intersection A, via Bregman + Dykstra.

    Alternates a_k = P_A(b_{k-1}), b_k = P_plane(a_k), with P_A the
    dykstra_project of the epigraphs, for at most cfg.max_outer_iters
    steps, each ended by bregman_step; a_k is the solution once
    consecutive b_k move less than cfg.outer_tol, and ``distance`` the gap
    to b_k. Every ConvergenceError carries the trace so far. All runs
    share one DykstraState, passed as stats["state"]: one ConeStack, and
    one increment array, kept under cfg.warm_start and zeroed between runs
    otherwise.

    Under cfg.exact_finish every run may end early with a point finish()
    proved (see dykstra_project and DykstraState.try_finish); each Bregman
    step forgets the support tried, so each run tries again on its own
    evidence. A proof in step k ends the solve with one trace row for
    step k, holding the proved point.
    """
    start = b = p0.to_array()
    stats = {"state": DykstraState(epigraphs, b, cfg.exact_finish)}
    trace = Trace()
    inner_total = 0
    flag = int(not cfg.warm_start)
    for k in range(1, cfg.max_outer_iters + 1):
        try:
            a = dykstra_project(epigraphs, start, cfg, stats=stats)
        except ConvergenceError as exc:
            exc.trace = trace
            raise
        inner_total += stats["cycles"]
        point = stats["proved"]
        if point is not None:
            trace._add(k, 0, 1, point, 0.0, flag, True)
            return proved(point, inner_total, k, trace, plane, cfg)
        prev_b, b = b, plane.project(a)
        trace._add(k, 0, 1, a, 0.0, flag, True)
        start = bregman_step(k, a, b, prev_b, stats["state"], inner_total, trace, plane, cfg)
        if isinstance(start, MinMaxSolution):
            return start
