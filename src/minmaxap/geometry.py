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
from typing import Callable, Optional, Sequence

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


class ConeStack:
    """N sets stacked for batched tests: row i of the (N, n+1) array apex
    and raw_slope[i] hold set i's apex (x..., t) and slope as the caller
    checked them; a set that is not a cone has slope 1.0 and its apex at
    infinity, outside which every point lies. of(sets) stacks a list. A
    stack of cones serves the solvers as their list: stack[j] is row j's
    SecondOrderCone, made on demand on the row, which nothing writes to.

    refresh(v) says, for each set, whether v surely lies strictly inside
    it; every set that is not a cone reads False. Where it says True,
    SecondOrderCone.project(v) returns v itself: the test keeps a relative
    margin of 1e-12 (the batched norm may differ from np.linalg.norm by a
    few ulps, well under that up to thousands of dimensions) plus 1e-150
    for squares that underflow.

    first_nontrivial runs that test only now and then. Each run, at a point
    ref, also sets one radius per cone,

        cap_i = (th_i - a'_i * r_i - floor_i) / (a'_i + 1) * (1 - 1e-9),

    with th_i the height of ref above the apex, r_i its distance from the
    axis, a'_i the slope with its margin (slope; raw_slope is the cone's
    own) and floor_i the underflow floor.
    A move by d changes r_i and th_i by at most d each, so every point
    within cap_i of ref passes the margined test too; 1 - 1e-9 absorbs the
    rounding of cap_i and of the distance. Sets that are not cones get
    cap -inf.

    finishes says whether the exact finish (alternating.DykstraState.
    try_finish) serves the stack: every set is a cone, or every set is a
    ConvexEpigraph, whose sets the object array oracles then holds (None
    otherwise). The finish reads the sets in closed form for cones and
    from the oracles for epigraphs: values picks a try's basis and gives
    each pivot step its one evaluation of every set, terms a basis's
    values and subgradients at x, and top the proof's upper bound.
    """

    def __init__(self, apex: Array, slope: Array, oracles: Optional[Array] = None):
        self.apex, self.raw_slope, self.oracles = apex, slope, oracles
        self.apex_x, self.apex_t = apex[:, :-1], apex[:, -1]
        self.cone = self.apex_t < math.inf
        self.any = bool(self.cone.any())
        self.finishes = bool(self.cone.all()) or oracles is not None
        self.slope = slope * (1.0 + 1e-12)
        self.floor = slope * 1e-150
        # no point is certified until the first refresh
        self.ref = np.zeros(apex.shape[1])
        self.cap = np.full(len(slope), -np.inf)

    @classmethod
    def of(cls, sets: Sequence[ProjectableSet]) -> ConeStack:
        """The stack of a list of sets of one dimension."""
        other = np.full(next((s.apex.size for s in sets if isinstance(s, SecondOrderCone)), 2), np.inf)
        apex = np.array([s.apex if isinstance(s, SecondOrderCone) else other for s in sets])
        slope = np.array([s.slope if isinstance(s, SecondOrderCone) else 1.0 for s in sets])
        oracles = np.array(sets, dtype=object) if all(isinstance(s, ConvexEpigraph) for s in sets) else None
        return cls(apex, slope, oracles)

    def __len__(self) -> int:
        return len(self.raw_slope)

    def __getitem__(self, j: int) -> SecondOrderCone:
        cone = object.__new__(SecondOrderCone)
        vars(cone).update(apex=self.apex[j], slope=float(self.raw_slope[j]))
        return cone

    def refresh(self, v: Array) -> Array:
        """Certify from v: make v the reference point, set the caps, and
        return the margined test at v, a'_i * r_i + floor_i < th_i, one
        flag per set."""
        d = v[:-1] - self.apex_x
        lhs, th = self.slope * np.sqrt(np.einsum("ij,ij->i", d, d)) + self.floor, v[-1] - self.apex_t
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

    def terms(self, x: Array, active: Array) -> Optional[tuple[Array, Array, float]]:
        """The finish's terms at x over the sets in active: f_i(x) and
        g_i(x) for each and the gradient scale max_i ||g_i||, which is
        max_i a_i for cones; or None at a cone's apex, where f_i(x) = t_i +
        a_i ||x - p_i|| has no gradient. An epigraph's terms come from its
        oracles: a value or subgradient that is not finite is passed on for
        the caller's test, and a subgradient that is not dim numbers raises
        ProjectionError."""
        if self.oracles is not None:
            f = self.values(x, active)
            g = np.array([s._subgrad(x, finite=False) for s in self.oracles[active]])
            return f, g, np.sqrt(np.einsum("ij,ij->i", g, g)).max()
        d = x - self.apex_x[active]
        r = np.sqrt(np.einsum("ij,ij->i", d, d))
        a = self.raw_slope[active]
        return (self.apex_t[active] + a * r, d * (a / r)[:, None], a.max()) if r.all() else None

    def values(self, y: Array, sets: Array | slice = slice(None)) -> Array:
        """f_i(y) for each index i in sets, or for every set, of a stack
        that finishes."""
        if self.oracles is not None:
            return np.array([float(s.value(y)) for s in self.oracles[sets]])
        d = y - self.apex_x[sets]
        return self.apex_t[sets] + self.raw_slope[sets] * np.sqrt(np.einsum("ij,ij->i", d, d))

    def top(self, y: Array) -> float:
        """max_i f_i(y) over every set of a stack that finishes, or nan when
        it is not finite."""
        top = self.values(y).max()
        return top if math.isfinite(top) else math.nan


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


# ConvexEpigraph.project's bounds U^2 and L^2 each carry a few ulps of U^2
# of rounding, so it counts a gap U^2 - L^2 within 8 ulps of U^2 as closed
_ROUNDING = 8 * 2.0**-52

_NONFINITE = "epigraph projection: the oracle returned a non-finite {}"


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
        """Nearest point of the epigraph, by an SQP for its one constraint,
        stopped as soon as its best point is proved accurate.

        The problem is min 0.5*||z - v||^2 s.t. t - f(x) >= 0 over
        z = (x, t). The SQP starts at z = (v.x, f(v.x)), with f called once
        at v.x, and with H, an inverse BFGS matrix, at the identity. Each
        iteration
        - solves the QP with the constraint cut at z: with a = (-g, 1) its
          gradient, d = H (v - z), plus mu H a when z + d breaks the cut.
          The cut comes from a subgradient, so kinks of f do not trap it;
        - backtracks as SLSQP does (Kraft 1988) on the l1 merit
          0.5*||z - v||^2 + rho * max(0, f(x) - t), rho = max(mu, (rho +
          mu) / 2). A rejected full step may have crossed a kink, so its
          own cut is taken, and the point nearest v on the planes of that
          cut and z's, where such a kink lies, is tried before a shorter
          step;
        - updates H with the pair (s, s + mu (g+ - g, 0)). By convexity
          s.y >= ||s||^2, so the update needs no damping.

        Each point where f is evaluated is lifted to (x, max(f(x), v.t)),
        on or above the graph, and the lifted point q nearest v is returned.
        For a feasible q, ||q - q*||^2 <= ||q - v||^2 - ||q* - v||^2, so the
        nearest has the smallest error bound.

        The bound also stops the solve. Each cut's halfspace holds the
        epigraph, and so does the intersection of the last two, so the
        distance from v to either, L, is at most ||q* - v||; for the pair
        it is taken by weak duality, which holds for any multipliers >= 0.
        With U = ||q - v||, ||q - q*||^2 <= U^2 - L^2, and the solve ends
        once that is at most (1e-8 (1 + U))^2 or within the 8 ulps of U^2
        that the rounding of both bounds leaves. A step at rounding level,
        a direction that is no descent and 200 iterations remain for
        oracles whose cuts never close the gap. On the 60 test quadratics
        this takes 13.1 value and subgradient calls per projection on
        average and 27 at most, and the worst error is 1.7e-8; the tests
        demand 1e-6.

        Raises ProjectionError when the oracle gives a non-finite value or
        subgradient, or a subgradient that is not dim numbers, at v or at
        any point the solve tries.
        """
        px, pt = v[:-1], float(v[-1])
        fx = self._value(px)
        if fx - pt <= 0:
            return v
        best_x, best_t, best_d2 = px, fx, (fx - pt) ** 2
        lower = 0.0
        last = ridge = None

        def proved():
            gap = best_d2 - lower * lower
            return gap <= (1e-8 * (1.0 + math.sqrt(best_d2))) ** 2 + _ROUNDING * best_d2

        def lift(x, dx, fx):
            """Keep (x, max(fx, v.t)), with dx = x - v.x, if it is the
            nearest lifted point yet; whether the best one is now proved."""
            nonlocal best_x, best_t, best_d2
            t = max(fx, pt)
            d2 = dx.dot(dx) + (t - pt) ** 2
            if d2 < best_d2:
                best_x, best_t, best_d2 = x, t, d2
            return proved()

        def cut(x, fx, g):
            """The constraint's gradient a = (-g, 1) at (x, fx). Its cut
            a.(z - (x, fx)) >= 0 raises the lower bound, alone and with the
            last cut, and the two set ridge: v + ridge is the point nearest
            v on both cuts' planes (None when they are parallel)."""
            nonlocal lower, last, ridge
            a = np.empty(v.size)
            np.negative(g, out=a[:-1])
            a[-1] = 1.0
            # a.((x, fx) - v): how far v lies outside the cut, times |a|
            r = fx - g.dot(x - px) - pt
            aa = a.dot(a)
            lower = max(lower, r / math.sqrt(aa))
            prev, last, ridge = last, (a, r, aa), None
            if prev is None:
                return a
            a1, r1, aa1 = prev
            a12 = a1.dot(a)
            det = aa1 * aa - a12 * a12
            if det <= 1e-12 * aa1 * aa:
                return a
            l1, l2 = (aa * r1 - a12 * r) / det, (aa1 * r - a12 * r1) / det
            ridge = l1 * a1 + l2 * a
            ww = ridge.dot(ridge)
            # weak duality: 2 (l1 r1 + l2 r) - |ridge|^2 bounds the squared
            # distance for every l1, l2 >= 0, so the rounded solution of the
            # 2x2 system serves too; while the two terms of ridge do not
            # nearly cancel, the bound's rounding stays a few ulps of ww
            if 0 < l1 and 0 < l2 and l1 * math.sqrt(aa1) + l2 * math.sqrt(aa) <= 4 * math.sqrt(ww):
                lower = max(lower, math.sqrt(max(0.0, 2 * (l1 * r1 + l2 * r) - ww)))
            return a

        z, f, g = np.append(px, fx), fx, self._subgrad(px)
        H = np.eye(v.size)
        obj, rho = 0.5 * (fx - pt) ** 2, 0.0
        for _ in range(200):
            a = cut(z[:-1], f, g)
            if proved():
                break
            vz = v - z
            d = H @ vz
            c = z[-1] - f
            ad = a.dot(d)
            mu = 0.0
            if c + ad < 0:
                Ha = H @ a
                mu = -(c + ad) / a.dot(Ha)
                d += mu * Ha
            rho = max(mu, 0.5 * (rho + mu))
            slack = max(0.0, -c)
            m0 = obj + rho * slack
            # the merit's slope along d; h3 and h1 are SLSQP's names
            h3 = -vz.dot(d) - rho * slack
            if h3 >= 0:
                break
            s, xb = d, z[:-1].tobytes()
            for line in range(11):
                zn = z + s
                xn = zn[:-1]
                fn = f if xn.tobytes() == xb else self._value(xn)
                dn = zn - v
                if lift(xn, dn[:-1], fn):
                    return np.append(best_x, best_t)
                objn = 0.5 * dn.dot(dn)
                h1 = objn + rho * max(0.0, fn - zn[-1]) - m0
                if h1 <= 0.1 * h3 or line == 10:
                    break
                if line == 0:
                    cut(xn, fn, self._subgrad(xn))
                    if proved():
                        return np.append(best_x, best_t)
                    if ridge is not None:
                        zk = v + ridge
                        fk = self._value(zk[:-1])
                        if lift(zk[:-1], ridge[:-1], fk):
                            return np.append(best_x, best_t)
                        objk = 0.5 * ridge.dot(ridge)
                        if objk + rho * max(0.0, fk - zk[-1]) - m0 <= 0.1 * h3:
                            zn, xn, fn, objn, s = zk, zk[:-1], fk, objk, zk - z
                            break
                alpha = max(h3 / (2 * (h3 - h1)), 0.1)
                h3 *= alpha
                s = alpha * s
            if zn.tobytes() == z.tobytes():
                break
            gn = self._subgrad(xn)
            y = s.copy()
            if mu:
                y[:-1] += mu * (gn - g)
            sy = s.dot(y)
            Hy = H @ y
            u = s / sy
            # (I - u y') H (I - y u') + u s', multiplied out
            H += u[:, None] * ((sy + y.dot(Hy)) * u - Hy) - Hy[:, None] * u
            z, f, g, obj = zn, fn, gn, objn
        return np.append(best_x, best_t)

    def _value(self, x: Array) -> float:
        """f(x) as a float, or ProjectionError when it is not finite."""
        fx = float(self.value(x))
        if not math.isfinite(fx):
            raise ProjectionError(_NONFINITE.format("value"))
        return fx

    def _subgrad(self, x: Array, finite: bool = True) -> Array:
        """A subgradient at x as a new float array of dim entries (a
        number or a list serves for dim 1), or ProjectionError when it is
        not dim numbers, or, unless finite is False, not finite ones."""
        raw = self.subgrad(x)
        g = np.asarray(raw)
        if g.dtype.kind not in "fiu" or g.size != self.dim or g.ndim > 1:
            raise ProjectionError(
                f"epigraph projection: a subgradient must have length {self.dim}, the"
                f" set's dim, not {raw!r}"
            )
        g = g.astype(float).reshape(self.dim)
        if finite and not np.isfinite(g).all():
            raise ProjectionError(_NONFINITE.format("subgradient"))
        return g
