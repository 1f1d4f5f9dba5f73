"""Centralized solvers: Dykstra's cyclic projection onto an intersection,
and the Bregman alternating projection between that intersection and a
plane below it, which solves the min-max."""

from __future__ import annotations

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
    ConvexEpigraph, ends the solve as soon as a try proves the lowest
    point of their intersection exactly: both solvers try after every
    cycle through DykstraState.try_finish, which says which sets a try
    takes. Every try pivots to the answer from those sets (exchange(), at
    most 4 (n + 1) steps); epigraphs, which have no apexes, pivot only
    from n + 1 at once. With False, or with any other stack, only the
    paper's stop rule ends the solve.
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
    the exact finish proved it, which makes it exact to rounding, where the
    paper's stop leaves it about outer_tol away. plane_grazed flags a
    t_star within outer_tol of the plane, which the answer must lie
    strictly above."""

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


def newton(cones: ConeStack, v: Array, active: Array) -> Optional[tuple[Array, Array]]:
    """The point (x..., t) where every set in active binds and weights
    w >= 0 might prove it, by Newton's method on the KKT system, or None.

    active holds the indices S of at most n + 1 sets of a stack that
    finishes (ConeStack.finishes). Newton solves the square system
    f_i = t, i in S, from v, with the values f_i and subgradients g_i of
    ConeStack.terms: over (x, t) for n + 1 sets, else over (y, t) with
    x = p_0 + Q y in the affine hull of the apexes p_i of S's cones, Q an
    orthonormal basis of the p_i - p_0; the hull holds S's lowest point,
    and span(Q) each x - p_i (oracles have no apexes, so an oracle basis
    of |S| <= n sets gives up before any oracle call). It stops at the
    second iterate in a row with f_i = t within 1e-12 (1 + |t|), in at
    most 20 steps, and solves w there, which must balance the gradients
    within 1e-12 max_i ||g_i|| and sum to within 1e-12 of 1; its sign is
    left to the caller. A value or subgradient that
    is not finite, x at an apex, where grad f_i does not exist, or a
    singular system gives None; an oracle's ArithmeticError passes on.
    """
    n, k = v.size - 1, active.size
    z = v
    if k <= n:
        if cones.oracles is not None:
            return None
        p = cones.apex_x[active]
        q = np.linalg.qr((p[1:] - p[0]).T)[0]
        z = np.append(q.T @ (v[:n] - p[0]), v[n])
    terms = cones.terms(active)
    # z is (x..., t) or (y..., t), F the residual of f_i = t and J its Jacobian
    J = np.full((k, k), -1.0)
    # until two iterates in a row pass: the second leaves (x, t) at rounding
    near = False
    for _ in range(21):
        t = z[-1]
        x = z[:n] if k > n else p[0] + q @ z[:-1]
        at = terms(x)
        if at is None:
            return None
        f, g, scale = at
        F = f - t
        J[:, :-1] = g if k > n else g @ q
        # the largest excess of |F| over its bound, nan or inf unless F is finite
        excess = (np.abs(F) - 1e-12 * (1.0 + abs(t))).max()
        if not excess < math.inf:
            return None
        if excess <= 0.0 and near:
            break
        near = excess <= 0.0
        try:
            z = z - np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            return None
    else:
        return None
    # the rest, sum_i w_i g_i = 0 and -sum_i w_i = -1, is J.T w = -e_k
    try:
        w = np.linalg.solve(J.T, -np.eye(k)[-1])
    except np.linalg.LinAlgError:
        return None
    # not <=, so that a nan rejects
    if not ((np.abs(w @ g) <= 1e-12 * scale).all() and abs(w.sum() - 1.0) <= 1e-12):
        return None
    return np.append(x, t), w


def proves(cones: ConeStack, v: Array, point: Array) -> bool:
    """Whether the point (x..., t), an apex or a root that exchange()
    weighs, passes the last two tests of exchange(): max_j f_j(x) <=
    t + 1e-12 (1 + |t|) over every set, and t <= max_j f_j at v's x +
    1e-12 (1 + |t|), an upper bound on t*. A nan from ConeStack.top fails
    both."""
    t = point[-1]
    tol = 1e-12 * (1.0 + abs(t))
    return cones.top(point[:-1]) <= t + tol and t <= cones.top(v[:-1]) + tol


def binding(cones: ConeStack, z: Array, active: Array) -> Optional[tuple[Array, Array]]:
    """The point (x..., t) where every set in active binds and the
    weights w, summing to 1, that balance their gradients there, or None.

    On a cone stack one cone binds at its apex with w = 1, and two on the
    segment between their apexes p_i and p_j, at distance s from p_i with
    t_i + a_i s = t_j + a_j (d - s), d = ||p_j - p_i||, and w proportional
    to (a_j, a_i). Unless 0 < s < d, one apex lies on or above the other
    cone and is the pair's lowest point: it comes back with w = 1 on its
    own cone and 0 on the other. More cones, and every oracle basis, run
    newton() from the (x..., t) array z: cones in their apexes' affine
    hull if at most n, oracles only when n + 1.
    """
    if cones.oracles is not None or active.size > 2:
        return newton(cones, z, active)
    if active.size == 1:
        return cones.apex[active[0]].copy(), np.ones(1)
    (pi, pj), (ti, tj), (ai, aj) = cones.apex_x[active], cones.apex_t[active], cones.raw_slope[active]
    d = norm(pj - pi)
    s = (tj - ti + aj * d) / (ai + aj)
    if not 0.0 < s < d:
        k = int(s > 0.0)
        return cones.apex[active[k]].copy(), np.eye(2)[k]
    return np.append(pi + (s / d) * (pj - pi), ti + ai * s), np.array([aj, ai]) / (ai + aj)


def exchange(cones: ConeStack, v: Array, support: Array) -> Optional[Array]:
    """The lowest point (x..., t) of a stack that finishes
    (ConeStack.finishes), proved, from the support of a try at the
    iterate v, or None.

    The min-max of convex functions f_i is an LP-type problem of
    combinatorial dimension n + 1 (Matousek, Sharir & Welzl 1996): its
    answer is that of a basis B of at most n + 1 sets, which is found by
    pivoting, as smallest-enclosing-ball solvers do (Fischer, Gartner &
    Kutz 2003). Each step solves binding() of B from the last point. B
    starts as the support when that holds n + 1 sets, whose system often
    proves at once. When it holds fewer, or that solve fails or gives a
    weight w_i <= 0, a cone stack starts again from the cone of the
    support highest at v, and an oracle stack gives up: one oracle set has
    no apex to solve. Later, a weight w_i <= 0 drops its set, and an
    oracle basis left with n sets fails in newton().

    With w > 0, B's point (x_B, t_B), which passed binding()'s residual
    test, is the answer once proves() accepts it. f_i(x_B) = t_B over B,
    sum_i w_i g_i = 0 with sum_i w_i = 1 and w >= 0, and
    max_j f_j(x_B) <= t_B are the KKT conditions of min t s.t.
    f_i(x) <= t, which prove (x_B, t_B) optimal for this convex problem:
    with an oracle's own subgradients a try can fail, but it accepts no
    other point. newton()'s tests and proves()'s upper bound each reject a
    root at infinity, where a test relative to |t| alone passes.

    Until then the set j highest at x_B, which lies above
    t_B + 1e-12 (1 + |t_B|), joins B, and a full B makes room by the
    ratio test: with j's gradient row (g_j, -1) = sum_i mu_i (g_i, -1)
    over B, the member with the least w_i / mu_i over mu_i > 0 leaves, the
    first whose weight runs out as j's grows, so a full B stays full. Each
    basis's t_B is at most t*: sum_i w_i g_i = 0 with w > 0 makes x_B a
    minimiser of the convex sum_i w_i f_i, so t_B = sum_i w_i f_i(x_B) <=
    sum_i w_i f_i(x*) <= t*. t* is at most proves()'s upper bound, so only
    a set above t_B fails it. At most 4 (n + 1) steps. An oracle's
    ArithmeticError passes on to DykstraState.try_finish.
    """
    n = v.size - 1
    B, point = support, v
    for _ in range(4 * (n + 1)):
        # the support itself is solved only when it holds n + 1 sets
        found = binding(cones, point, B) if B is not support or B.size == n + 1 else None
        if B is support and (found is None or (found[1] <= 0).any()):
            if cones.oracles is not None:
                return None
            B = support[[int(cones.values(v[:-1], support).argmax())]]
            continue
        if found is None:
            return None
        point, w = found
        if (w <= 0).any():
            B = np.delete(B, w.argmin())
            continue
        if proves(cones, v, point):
            return point
        j = int(cones.values(point[:-1]).argmax())
        if B.size > n:
            at = cones.terms(np.append(B, j))(point[:-1])
            if at is None:
                return None
            a = np.c_[at[1], -np.ones(n + 2)]
            try:
                mu = np.linalg.solve(a[:-1].T, a[-1])
            except np.linalg.LinAlgError:
                return None
            B = np.delete(B, np.divide(w, mu, out=np.full(n + 1, np.inf), where=mu > 0).argmin())
        B = np.append(B, j)
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
        """A try at the iterate x over a support drawn from S, the sets
        whose increments are nonzero: S itself when it numbers 1 to n + 1,
        else the n + 1 members of S with the highest values f_i at x
        (ConeStack.values), since the increments name the binding sets long
        before S shrinks to them. The support is tried at once, by
        exchange(), unless it is the last one tried. On a cone stack an
        empty S, with x in every cone, tries in every cycle the apex
        (p_j, t_j) of the cone j highest at x, which proves() accepts,
        since f_j >= t_j everywhere: an answer at an apex can leave every
        increment zero. Returns the proved point or None. An oracle's
        ArithmeticError, at a Newton iterate far from any the solve asked
        for, ends the try with None, not the solve."""
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
                if cones.oracles is not None:
                    return None
                point = cones.apex[int(cones.values(x[:-1]).argmax())].copy()
                return point if proves(cones, x, point) else None
            if np.array_equal(support, self.tried):
                return None
            self.tried = support
            return exchange(cones, x, support)
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
    """The finished MinMaxSolution at the point a that a try proved
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

    Under cfg.exact_finish every run may end early with a point a try
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
