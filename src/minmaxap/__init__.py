"""Distributed min-max convex optimization by alternating projections,
with a minimum-time multi-agent consensus application."""

from .alternating import (
    MinMaxSolution,
    ToleranceConfig,
    Trace,
    TraceEvent,
    dykstra_project,
    solve_minmax,
)
from .consensus import (
    AgentDynamics,
    ConsensusResult,
    ControlSchedule,
    Model,
    SecondOrderAttainableSet,
    bang_bang_control,
    reach_time,
    second_order_reach_time_general,
    second_order_reach_time_zero_vel,
    simulate_trajectory,
    solve_min_time_consensus,
)
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    InfeasibleTargetError,
    OracleBudgetError,
    ProjectionError,
)
from .geometry import (
    Ball,
    ConvexEpigraph,
    Halfspace,
    HorizontalHyperplane,
    PointTime,
    ProjectableSet,
    SecondOrderCone,
)
from .oracle import GridSpec, grid_minmax, numeric_projection
from .ring import agent_step, coordinator_step, run_ring

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
