"""Independent brute-force verifiers.

Deliberately slow and simple, and deliberately sharing no algorithmic code
with the solver modules: a dense grid search for min-max values and a
randomized membership-only search for nearest feasible points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import OracleBudgetError

Array = np.ndarray


@dataclass(frozen=True)
class GridSpec:
    lower: Array
    upper: Array
    resolution: int

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or not np.all(lo < hi):
            raise ValueError("need lower < upper componentwise")
        if isinstance(self.resolution, bool) or not isinstance(self.resolution, (int, np.integer)):
            raise TypeError("resolution must be an integer")
        if self.resolution < 3:
            raise ValueError("resolution must be at least 3")
        if lo.size > 3:
            raise ValueError("grid search supports at most 3 dimensions")


@dataclass(frozen=True)
class GridMinMaxResult:
    x: Array
    value: float
    spacing: float
    error_bound: float


def grid_minmax(
    functions: Sequence[Callable[[Array], float]], grid: GridSpec
) -> GridMinMaxResult:
    """argmin over grid nodes of max_i f_i, ties broken by lowest index.

    The reported error bound is grid spacing times a finite-difference
    Lipschitz estimate of the max function, taken between neighbours along
    each axis.
    """
    if not functions:
        raise ValueError("functions must be nonempty")
    axes = [
        np.linspace(grid.lower[d], grid.upper[d], grid.resolution)
        for d in range(grid.lower.size)
    ]
    spacing = max(float(ax[1] - ax[0]) for ax in axes)
    vals = np.array(
        [max(float(f(np.array(node))) for f in functions) for node in itertools.product(*axes)]
    ).reshape([ax.size for ax in axes])
    best = np.unravel_index(int(np.argmin(vals)), vals.shape)
    lipschitz = max(
        float(np.abs(np.diff(vals, axis=d)).max()) / spacing for d in range(vals.ndim)
    )
    bound = lipschitz * spacing * np.sqrt(grid.lower.size)
    best_x = np.array([ax[i] for ax, i in zip(axes, best)])
    return GridMinMaxResult(best_x, float(vals[best]), spacing, float(bound))


def _pull_toward(member: Callable[[Array], bool], q: Array, p: Array) -> Array:
    """Farthest point on the segment [q, p] that stays feasible (q is)."""
    lo, hi = 0.0, 1.0
    if member(p):
        return p.copy()
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if member(q + mid * (p - q)):
            lo = mid
        else:
            hi = mid
    return q + lo * (p - q)


def numeric_projection(
    membership: Callable[[Array], bool],
    p: Array,
    max_evals: int = 60000,
    seed: int = 0,
    feasible_hint: Array | None = None,
) -> Array:
    """Approximate nearest feasible point from a membership oracle alone.

    Points are raw (x..., t) float arrays; p itself comes back when it is
    feasible.

    Penalized local search: keep a feasible incumbent, propose random
    steps with an annealed step size, and pull every feasible candidate
    along the segment toward p by bisection.  Random restarts guard
    against bad initial feasible samples.
    """
    evals = 0

    def member(v: Array) -> bool:
        nonlocal evals
        evals += 1
        return bool(membership(v))

    if member(p):
        return p

    rng = np.random.default_rng(seed)

    def find_feasible() -> Array:
        if feasible_hint is not None and member(feasible_hint):
            return feasible_hint
        for scale in np.geomspace(1e-3, 1e3, 25):
            for _ in range(40):
                cand = p + scale * rng.standard_normal(p.size)
                if member(cand):
                    return cand
                if evals >= max_evals:
                    raise OracleBudgetError(
                        "no feasible point found within budget", evals=evals
                    )
        raise OracleBudgetError("no feasible point found", evals=evals)

    best = None
    restarts = 2 if feasible_hint is None else 1
    for restart in range(restarts):
        try:
            q = find_feasible()
        except OracleBudgetError:
            if best is None:
                raise
            break
        q = _pull_toward(member, q, p)
        step = max(float(np.linalg.norm(q - p)), 1e-3)
        while step > 1e-8:
            improved = 0
            for _ in range(25):
                if evals >= max_evals:
                    raise OracleBudgetError(
                        "projection search budget exhausted",
                        best=q if best is None else best,
                        evals=evals,
                    )
                d = rng.standard_normal(p.size)
                d /= np.linalg.norm(d)
                cand = q + step * d
                if not member(cand):
                    continue
                cand = _pull_toward(member, cand, p)
                if np.linalg.norm(cand - p) < np.linalg.norm(q - p):
                    q = cand
                    improved += 1
            step *= 0.5 if improved else 0.35
        if best is None or np.linalg.norm(q - p) < np.linalg.norm(best - p):
            best = q
    return best
