"""Core point/set types and exact orthogonal projections.

All sets live in R^{n+1}: n spatial coordinates plus one scalar height
(time, or squared time after a coordinate transform).  Every set exposes
membership with a tolerance and an orthogonal projection; projections are
closed-form wherever one exists; the epigraph of a generic convex function
given by value and subgradient oracles is projected numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, ProjectionError

Array = np.ndarray


@dataclass(frozen=True)
class PointTime:
    """A point (x, t): spatial coordinates plus a scalar height."""

    x: Array
    t: float

    def __post_init__(self):
        object.__setattr__(self, "x", finite_vector(self.x, "x"))
        object.__setattr__(self, "t", finite_number(self.t, "t"))

    def to_array(self) -> Array:
        return np.append(self.x, self.t)


def finite_number(value, what: str) -> float:
    """value as a float: TypeError for a boolean or a string (JSON true
    and "2" would otherwise pass as 1.0 and 2.0), ValueError unless finite."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise TypeError(f"{what} must be a number, not {type(value).__name__}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite")
    return value


def positive_number(value, what: str) -> float:
    """finite_number(value, what), and ValueError unless it is > 0."""
    value = finite_number(value, what)
    if value <= 0:
        raise ValueError(f"{what} must be positive")
    return value


def positive_integer(value, what: str) -> int:
    """value as an int: TypeError unless it is an integer, numpy's included
    (a boolean or a float is not one), ValueError unless it is >= 1."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer")
    if value < 1:
        raise ValueError(f"{what} must be at least 1")
    return int(value)


def finite_vector(x, what: str) -> Array:
    """x (a scalar or a sequence) as a new nonempty 1-D float array, by
    finite_number's rules: an ndarray by its dtype, anything else item by
    item, since numpy reads [True, 1.5] as two floats. Never x itself, so
    no later write to the caller's array moves the object built from it."""
    if isinstance(x, np.ndarray):
        if x.dtype.kind not in "fiu":
            raise TypeError(f"{what} must hold numbers, not {x.dtype}")
    else:
        for v in np.ravel(np.array(x, dtype=object)):
            finite_number(v, what)
    a = np.atleast_1d(np.array(x, dtype=float))
    if a.ndim != 1 or a.size < 1 or not np.isfinite(a).all():
        raise ValueError(f"{what} must be a nonempty list of finite numbers")
    return a


class ProjectableSet:
    """A closed convex subset of R^{n+1} with membership and projection.

    Points are raw (n+1) float arrays (x..., t). dim is n for every set
    but HorizontalHyperplane, which has none and takes every length.
    """

    dim: int

    def _check(self, v: Array) -> None:
        if len(v) != self.dim + 1:
            raise DimensionMismatchError(
                f"point has dim {len(v) - 1}, set expects {self.dim}"
            )

    def violation(self, v: Array) -> float:
        """How far v violates the defining inequality (<= 0 means inside)."""
        raise NotImplementedError

    def contains(self, v: Array, tol: float = 0.0) -> bool:
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        return self.violation(v) <= tol

    def project(self, v: Array) -> Array:
        """Nearest point of the set: v itself when v is inside, and a new
        array otherwise. Does not check dimensions."""
        raise NotImplementedError


@dataclass(frozen=True)
class HorizontalHyperplane(ProjectableSet):
    """The plane {(x, t) | t = t_min}, in the dimension of each point."""

    t_min: float

    def __post_init__(self):
        object.__setattr__(self, "t_min", finite_number(self.t_min, "t_min"))

    def _check(self, v: Array) -> None:
        """Every length is right: the plane exists in every dimension."""

    def violation(self, v: Array) -> float:
        return abs(float(v[-1]) - self.t_min)

    def project(self, v: Array) -> Array:
        if v[-1] == self.t_min:
            return v
        q = v.copy()
        q[-1] = self.t_min
        return q


@dataclass(frozen=True)
class SecondOrderCone(ProjectableSet):
    """The cone {(x, t) : slope * ||x - x_a|| <= t - t_a}, slope > 0, with
    apex the (x_a..., t_a) array."""

    apex: Array
    slope: float

    def __post_init__(self):
        object.__setattr__(self, "apex", finite_vector(self.apex, "apex"))
        positive_integer(self.apex.size - 1, "dim")
        positive_number(self.slope, "slope")

    @classmethod
    def _from_row(cls, apex: Array, slope: float) -> SecondOrderCone:
        """The cone with this apex, taken as it is: a finite float (x..., t)
        array of length >= 2 that nothing else writes to. Only the slope is
        checked, since one computed from valid inputs can still overflow."""
        cone = object.__new__(cls)
        object.__setattr__(cone, "apex", apex)
        object.__setattr__(cone, "slope", positive_number(slope, "slope"))
        return cone

    @property
    def dim(self) -> int:  # type: ignore[override]
        return int(self.apex.size) - 1

    def violation(self, v: Array) -> float:
        self._check(v)
        r = norm(v[:-1] - self.apex[:-1])
        return self.slope * r - float(v[-1] - self.apex[-1])

    def project(self, v: Array) -> Array:
        a, apex = self.slope, self.apex
        y = v[:-1] - apex[:-1]
        th = float(v[-1] - apex[-1])
        r = norm(y)
        if a * r <= th:
            return v
        if r <= -a * th:
            return apex.copy()
        # here r > 0; nearest boundary point along the ray through y
        rho = (r + a * th) / (1.0 + a * a)
        q = apex.copy()
        q[:-1] += rho * (y / r)
        q[-1] += a * rho
        return q


def norm(v: Array) -> float:
    """np.linalg.norm(v) of a 1-D float array, bit for bit: numpy computes
    it as sqrt(v.dot(v)) too, but this skips its dispatch."""
    return math.sqrt(v.dot(v))


def plus_zero(v: Array) -> bool:
    """Whether every component of the float array v is +0.0 (-0.0 is not)."""
    return v.tobytes() == bytes(v.nbytes)


def plus_zero_rows(a: Array) -> Array:
    """plus_zero of each row of the 2-D array a, by one bitwise test: a row
    is +0.0 throughout when no bit of its float64 words is set."""
    return ~np.ascontiguousarray(a, dtype=np.float64).view(np.int64).any(axis=1)


class ConeStack:
    """The SecondOrderCones among a list of sets, stacked for one batched test.

    inside(v, lo) says, for each of sets[lo:], whether v surely lies strictly
    inside that set; every set that is not a cone reads False. Where it says
    True, SecondOrderCone.project(v) returns v itself: the test keeps a
    relative margin of 1e-12 (the batched norm may differ from
    np.linalg.norm by a few ulps, well under that up to thousands of
    dimensions) plus 1e-150 for squares that underflow.

    first_nontrivial runs that test only now and then. Each run, at a point
    ref, also sets one radius per cone,

        cap_i = (th_i - a'_i * r_i - floor_i) / (a'_i + 1) * (1 - 1e-9),

    with th_i the height of ref above the apex, r_i its distance from the
    axis, a'_i the slope with its margin and floor_i the underflow floor.
    A move by d changes r_i and th_i by at most d each, so every point
    within cap_i of ref passes the margined test too; 1 - 1e-9 absorbs the
    rounding of cap_i and of the distance. Sets that are not cones get
    cap -inf.
    """

    def __init__(self, sets: Sequence[ProjectableSet]):
        cones = [s if isinstance(s, SecondOrderCone) else None for s in sets]
        self.cone = np.array([c is not None for c in cones])
        self.any = bool(self.cone.any())
        dim = next((c.dim for c in cones if c is not None), 1)
        # a set that is not a cone gets an infinite apex height, which
        # leaves every point outside it
        self.apex_x = np.array([np.zeros(dim) if c is None else c.apex[:-1] for c in cones])
        self.apex_t = np.array([np.inf if c is None else c.apex[-1] for c in cones])
        slope = np.array([1.0 if c is None else c.slope for c in cones])
        self.slope = slope * (1.0 + 1e-12)
        self.floor = slope * 1e-150
        # no point is certified until the first refresh
        self.ref = np.zeros(dim + 1)
        self.cap = np.full(len(cones), -np.inf)

    def _sides(self, v: Array):
        """a'_i * r_i + floor_i and th_i at v, for every set."""
        d = v[:-1] - self.apex_x
        r = np.sqrt(np.einsum("ij,ij->i", d, d))
        return self.slope * r + self.floor, v[-1] - self.apex_t

    def inside(self, v: Array, lo: int = 0) -> Array:
        lhs, th = self._sides(v)
        return (lhs < th)[lo:]

    def refresh(self, v: Array) -> Array:
        """Certify from v: make v the reference point, set the caps, and
        return inside(v)."""
        lhs, th = self._sides(v)
        self.ref = v
        self.cap = (th - lhs) / (self.slope + 1.0) * (1.0 - 1e-9)
        return lhs < th

    def first_nontrivial(self, v: Array, zero: Array, lo: int) -> int:
        """Index of the first set at or after lo whose Dykstra step at v is
        not trivial, or len(zero) when none is; lo < len(zero).

        zero[i] says whether set i's increment is +0.0 in every component.
        A step is trivial when it is and v lies strictly inside the set:
        the step would then leave v and the increment bit-for-bit as they
        are. Only cones are ever found trivial, so with none this is lo.

        A cone counts as holding v when v lies within its cap of ref. The
        test runs again, from v, only when a cone with a zero increment
        fails that, and then it alone decides.
        """
        if not (self.any and zero[lo]):
            return lo
        n = len(zero)
        trivial = zero[lo:] & (self.cap[lo:] > norm(v - self.ref))
        k = int(trivial.argmin())
        if trivial[k]:
            return n
        if zero[lo + k] and self.cone[lo + k]:
            trivial = zero[lo:] & self.refresh(v)[lo:]
            k = int(trivial.argmin())
            if trivial[k]:
                return n
        return lo + k


@dataclass(frozen=True)
class Halfspace(ProjectableSet):
    """The halfspace {v in R^{n+1} : normal . v <= offset} (normal unit-norm)."""

    normal: Array
    offset: float

    def __post_init__(self):
        n = finite_vector(self.normal, "normal")
        nrm = float(np.linalg.norm(n))
        if nrm == 0:
            raise ValueError("normal must be nonzero")
        object.__setattr__(self, "normal", n / nrm)
        object.__setattr__(self, "offset", finite_number(self.offset, "offset") / nrm)

    @property
    def dim(self) -> int:  # type: ignore[override]
        return int(self.normal.size) - 1

    def violation(self, v: Array) -> float:
        self._check(v)
        return float(self.normal @ v - self.offset)

    def project(self, v: Array) -> Array:
        excess = float(self.normal @ v - self.offset)
        # boundary points re-enter with a few ulps of excess; treat them as
        # inside so projection is exactly idempotent
        if excess <= 1e-13 * (1.0 + abs(self.offset) + float(np.linalg.norm(v))):
            return v
        return v - excess * self.normal


@dataclass(frozen=True)
class Ball(ProjectableSet):
    """The closed ball {v in R^{n+1} : ||v - center|| <= radius}."""

    center: Array
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", finite_vector(self.center, "center"))
        positive_number(self.radius, "radius")

    @property
    def dim(self) -> int:  # type: ignore[override]
        return int(self.center.size) - 1

    def violation(self, v: Array) -> float:
        self._check(v)
        return float(np.linalg.norm(v - self.center)) - self.radius

    def project(self, v: Array) -> Array:
        d = v - self.center
        nrm = float(np.linalg.norm(d))
        # same ulp guard as Halfspace: keep boundary points fixed exactly
        if nrm <= self.radius * (1.0 + 1e-13) + 1e-13:
            return v
        return self.center + (self.radius / nrm) * d


_NONFINITE = "epigraph projection: the oracle returned a non-finite {}"


class _Proved(Exception):
    """Ends SLSQP once the epigraph projection's error bound is met."""


class ConvexEpigraph(ProjectableSet):
    """Epigraph {(x, t) : f(x) <= t} of a convex function given by oracles.

    Parameters
    ----------
    value : callable mapping an n-vector to f(x).
    subgrad : callable mapping an n-vector to one subgradient of f at x.
    dim : spatial dimension n.
    """

    def __init__(
        self,
        value: Callable[[Array], float],
        subgrad: Callable[[Array], Array],
        dim: int,
    ):
        self.dim = positive_integer(dim, "dim")
        self.value = value
        self.subgrad = subgrad

    def violation(self, v: Array) -> float:
        self._check(v)
        return float(self.value(v[:-1])) - float(v[-1])

    def project(self, v: Array) -> Array:
        """Nearest point of the epigraph by one SLSQP solve (Kraft 1988),
        stopped as soon as its best point is proved accurate.

        min 0.5*||q - v||^2 s.t. f(q.x) <= q.t goes to scipy as it stands,
        started at (v.x, f(v.x)), with f called once at v.x. SLSQP
        linearizes the constraint at each step, which is a subgradient cut,
        so kinks of f do not trap it.

        Each point where SLSQP evaluates f is lifted to (x, max(f(x), v.t)),
        on or above the graph, and the lifted point q nearest v is returned.
        For a feasible q, ||q - q*||^2 <= ||q - v||^2 - ||q* - v||^2, so the
        nearest has the smallest error bound; SLSQP's own last iterate can
        drift off the graph once its merit function stalls.

        The bound also stops the solve. Every subgradient g that SLSQP asks
        for at an x where it has just evaluated f is a cut: the halfspace
        f(x) + g.(y - x) <= s holds the epigraph, so ||q* - v|| >= L, the
        largest distance from v to such a halfspace. With U = ||q - v||,
        ||q - q*||^2 <= U^2 - L^2, and SLSQP is stopped once that falls to
        (1e-8 (1 + U))^2. On the 60 test quadratics this takes 14.1 value
        and subgradient calls per projection on average and 35 at most,
        and the worst error is 2e-8; the tests demand 1e-6 and at most 100
        calls. ftol 1e-14 and 200 iterations remain as SLSQP's own stop,
        for oracles whose cuts never close the gap.

        Raises ProjectionError when the oracle gives a non-finite value or
        subgradient, at v or at any point SLSQP tries.
        """
        px, pt = v[:-1], float(v[-1])
        fx = self._value(px)
        if fx - pt <= 0:
            return v
        # scipy takes most of a second to import; only this projection uses it
        from scipy.optimize import minimize

        # SLSQP updates its iterate in place, so the best and the last x are
        # copied; both start at px, lifted to (px, fx), where SLSQP starts
        best_x, best_t, best_d2 = px.copy(), fx, (fx - pt) ** 2
        last_x, last_f, lower = best_x, fx, 0.0

        def slack(q):
            nonlocal best_x, best_t, best_d2, last_x, last_f
            x = q[:-1]
            # SLSQP evaluates the start, whose f is known, twice more
            fq = fx if x.tobytes() == px.tobytes() else self._value(x)
            t = max(fq, pt)
            dx = x - px
            d2 = dx.dot(dx) + (t - pt) ** 2
            if d2 < best_d2:
                best_x, best_t, best_d2 = x.copy(), t, d2
            last_x, last_f = x.copy(), fq
            return q[-1] - fq

        def slack_jac(q):
            nonlocal lower
            x = q[:-1]
            g = self.subgrad(x)
            if not np.isfinite(g).all():
                raise ProjectionError(_NONFINITE.format("subgradient"))
            if (x == last_x).all():
                cut = (last_f + np.dot(g, px - x) - pt) / math.sqrt(1.0 + np.dot(g, g))
                lower = max(lower, cut)
                if best_d2 - lower * lower <= (1e-8 * (1.0 + math.sqrt(best_d2))) ** 2:
                    raise _Proved
            jac = np.empty(q.size)
            np.negative(g, out=jac[:-1])
            jac[-1] = 1.0
            return jac

        # the gradient goes in as a callback of its own: with jac=True scipy
        # would copy and compare every iterate to pair the two up
        def half_sq_dist(q):
            d = q - v
            return 0.5 * d.dot(d)

        def gap(q):
            return q - v

        try:
            minimize(
                half_sq_dist,
                np.append(px, fx),
                jac=gap,
                method="SLSQP",
                constraints=[{"type": "ineq", "fun": slack, "jac": slack_jac}],
                options={"ftol": 1e-14, "maxiter": 200},
            )
        except _Proved:
            pass
        return np.append(best_x, best_t)

    def _value(self, x: Array) -> float:
        """f(x) as a float, or ProjectionError when it is not finite."""
        fx = float(self.value(x))
        if not math.isfinite(fx):
            raise ProjectionError(_NONFINITE.format("value"))
        return fx
