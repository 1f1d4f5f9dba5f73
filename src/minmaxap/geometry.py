"""Core point/set types and exact orthogonal projections.

All sets live in R^{n+1}: n spatial coordinates plus one scalar height
(time, or squared time after a coordinate transform).  Every set exposes
membership with a tolerance and an orthogonal projection; projections are
closed-form wherever one exists; the epigraph of a generic convex function
given by value and subgradient oracles is projected numerically.
"""

from __future__ import annotations

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
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if x.ndim != 1 or x.size < 1:
            raise ValueError("x must be a 1-D vector with at least one component")
        if not (np.all(np.isfinite(x)) and np.isfinite(self.t)):
            raise ValueError("PointTime components must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", float(self.t))

    @property
    def dim(self) -> int:
        return int(self.x.size)

    def to_array(self) -> Array:
        return np.append(self.x, self.t)

    @staticmethod
    def from_array(v: Array) -> "PointTime":
        v = np.asarray(v, dtype=float)
        return PointTime(v[:-1], float(v[-1]))


class ProjectableSet:
    """A closed convex subset of R^{n+1} with membership and projection.

    Points are raw (n+1) float arrays (x..., t).
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
    """The plane {(x, t) | t = t_min}."""

    t_min: float
    dim: int = 1

    def __post_init__(self):
        if not np.isfinite(self.t_min):
            raise ValueError("t_min must be finite")

    def _check(self, v: Array) -> None:
        # a horizontal plane is well-defined for any spatial dimension
        pass

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
    """The cone {(x, t) : slope * ||x - apex.x|| <= t - apex.t}, slope > 0."""

    apex: PointTime
    slope: float

    def __post_init__(self):
        if self.slope <= 0:
            raise ValueError("slope must be positive")

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.apex.dim

    def violation(self, v: Array) -> float:
        self._check(v)
        r = float(np.linalg.norm(v[:-1] - self.apex.x))
        return self.slope * r - (float(v[-1]) - self.apex.t)

    def project(self, v: Array) -> Array:
        a = self.slope
        y = v[:-1] - self.apex.x
        th = float(v[-1]) - self.apex.t
        r = float(np.linalg.norm(y))
        if a * r <= th:
            return v
        if r <= -a * th:
            return self.apex.to_array()
        # here r > 0; nearest boundary point along the ray through y
        rho = (r + a * th) / (1.0 + a * a)
        return np.append(self.apex.x + rho * (y / r), self.apex.t + a * rho)


def plus_zero(v: Array) -> bool:
    """Whether every component of the float array v is +0.0 (-0.0 is not)."""
    return v.tobytes() == bytes(v.nbytes)


class ConeStack:
    """The SecondOrderCones among a list of sets, stacked for one batched test.

    inside(v, lo) says, for each of sets[lo:], whether v surely lies strictly
    inside that set; every set that is not a cone reads False. Where it says
    True, SecondOrderCone.project(v) returns v itself: the test keeps a
    relative margin of 1e-12 (the batched norm may differ from
    np.linalg.norm by a few ulps, well under that up to thousands of
    dimensions) plus 1e-150 for squares that underflow.
    """

    def __init__(self, sets: Sequence[ProjectableSet]):
        cones = [s if isinstance(s, SecondOrderCone) else None for s in sets]
        self.any = any(c is not None for c in cones)
        dim = next((c.dim for c in cones if c is not None), 1)
        # a set that is not a cone gets an infinite apex height, which
        # leaves every point outside it
        self.apex_x = np.array([np.zeros(dim) if c is None else c.apex.x for c in cones])
        self.apex_t = np.array([np.inf if c is None else c.apex.t for c in cones])
        slope = np.array([1.0 if c is None else c.slope for c in cones])
        self.slope = slope * (1.0 + 1e-12)
        self.floor = slope * 1e-150

    def inside(self, v: Array, lo: int = 0) -> Array:
        d = v[:-1] - self.apex_x[lo:]
        r = np.sqrt(np.einsum("ij,ij->i", d, d))
        return self.slope[lo:] * r + self.floor[lo:] < v[-1] - self.apex_t[lo:]

    def first_nontrivial(self, v: Array, zero: Array, lo: int) -> int:
        """Index of the first set at or after lo whose Dykstra step at v is
        not trivial, or len(zero) when none is; lo < len(zero).

        zero[i] says whether set i's increment is +0.0 in every component.
        A step is trivial when it is and v lies strictly inside the set:
        the step would then leave v and the increment bit-for-bit as they
        are. Only cones are ever found trivial, so with none this is lo.
        """
        if not (self.any and zero[lo]):
            return lo
        trivial = zero[lo:] & self.inside(v, lo)
        k = int(trivial.argmin())
        return len(zero) if trivial[k] else lo + k


@dataclass(frozen=True)
class Halfspace(ProjectableSet):
    """The halfspace {v in R^{n+1} : normal . v <= offset} (normal unit-norm)."""

    normal: Array
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        nrm = float(np.linalg.norm(n))
        if nrm == 0 or not np.all(np.isfinite(n)):
            raise ValueError("normal must be a finite nonzero vector")
        object.__setattr__(self, "normal", n / nrm)
        object.__setattr__(self, "offset", float(self.offset) / nrm)

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
        c = np.asarray(self.center, dtype=float)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", c)

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


def _finite(y, what: str):
    """y as float(s), or ProjectionError when an oracle gave a non-finite one."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ProjectionError(f"epigraph projection: the oracle returned a non-finite {what}")
    return y


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
        if dim < 1:
            raise ValueError("dim must be at least 1")
        self.value = value
        self.subgrad = subgrad
        self.dim = dim

    def violation(self, v: Array) -> float:
        self._check(v)
        return float(self.value(v[:-1])) - float(v[-1])

    def project(self, v: Array) -> Array:
        """Nearest point of the epigraph by one SLSQP solve (Kraft 1988).

        min 0.5*||q - v||^2 s.t. f(q.x) <= q.t goes to scipy as it stands,
        started at (v.x, f(v.x)). SLSQP linearizes the constraint at each
        step, which is a subgradient cut, so kinks of f do not trap it.

        Each point where SLSQP evaluates f is lifted to (x, max(f(x), v.t)),
        on or above the graph, and the lifted point nearest v is returned.
        For a feasible q, ||q - q*||^2 <= ||q - v||^2 - ||q* - v||^2, so the
        nearest has the smallest error bound; SLSQP's own last iterate can
        drift off the graph once its merit function stalls.
        """
        px, pt = v[:-1], float(v[-1])
        fx = float(_finite(self.value(px), "value"))
        if fx - pt <= 0:
            return v
        # scipy takes most of a second to import; only this projection uses it
        from scipy.optimize import minimize

        best, best_d2 = None, np.inf

        def slack(q):
            nonlocal best, best_d2
            fq = float(_finite(self.value(q[:-1]), "value"))
            lifted = np.append(q[:-1], max(fq, pt))
            d2 = float((lifted - v) @ (lifted - v))
            if d2 < best_d2:
                best, best_d2 = lifted, d2
            return q[-1] - fq

        def slack_jac(q):
            return np.append(-_finite(self.subgrad(q[:-1]), "subgradient"), 1.0)

        def half_sq_dist(q):
            d = q - v
            return 0.5 * float(d @ d), d

        minimize(
            half_sq_dist,
            np.append(px, fx),
            jac=True,
            method="SLSQP",
            constraints=[{"type": "ineq", "fun": slack, "jac": slack_jac}],
            options={"ftol": 1e-16, "maxiter": 200},
        )
        return best
