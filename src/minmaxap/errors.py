"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """A point and a set (or two points) disagree on the spatial dimension."""


class ProjectionError(RuntimeError):
    """A numeric projection failed to reach its tolerance."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap.

    Carries the best iterate seen so far as a raw (x..., t) array of its
    own, the residual at the stop and the solver's trace up to the stop,
    so callers can inspect or report partial progress. The trace is the
    Trace that solve_minmax and run_ring write, an empty Trace from
    dykstra_project, which keeps none, and None when no trace is given.
    """

    def __init__(self, message, iterate=None, residual=None, iterations=None, trace=None):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual
        self.iterations = iterations
        self.trace = trace


class OracleBudgetError(RuntimeError):
    """A brute-force oracle ran out of its evaluation budget."""

    def __init__(self, message, best=None, evals=None):
        super().__init__(message)
        self.best = best
        self.evals = evals


class InfeasibleTargetError(ValueError):
    """The requested target state cannot be reached under the agent model."""
