"""Command-line front end: solve / simulate / verify over JSON configs.

Exit codes: 0 ok, 2 config validation error or an output file that cannot be
written, 3 solver failure, 4 verification mismatch (an inconclusive check,
when the oracle budget runs out or x0 has more than 3 axes, is reported
distinctly but also exits 4).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .alternating import ToleranceConfig, Trace
from .consensus import (
    AgentDynamics,
    ConsensusResult,
    Model,
    _build_sets,
    reach_time,
    simulate_trajectory,
    solve_min_time_consensus,
)
from .errors import ConvergenceError, OracleBudgetError
from .geometry import positive_number
from .oracle import GridSpec, grid_minmax, numeric_projection

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


@dataclass
class ExperimentConfig:
    agents: List[AgentDynamics]
    solver: ToleranceConfig
    mode: str
    solution_path: Optional[str] = None
    trace_path: Optional[str] = None
    trajectory_path: Optional[str] = None
    sample_dt: float = 0.1


# the keys each part of a config may hold
CONFIG_KEYS = ("agents", "solver", "mode", "outputs")
TOLERANCE_KEYS = ("err", "outer_tol", "max_inner_cycles", "max_outer_iters")
SOLVER_KEYS = TOLERANCE_KEYS + ("t_min",)
OUTPUT_KEYS = ("solution", "trace", "trajectory", "sample_dt")
AGENT_KEYS = ("model", "x0", "v0", "u_max")


class ConfigError(ValueError):
    def __init__(self, problems: List[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def _sig9(v: float) -> float:
    """Round to 9 significant digits for stable, diff-able output files."""
    return float(f"{v:.9g}")


def _joined(values) -> str:
    """A vector as ;-joined 9-significant-digit numbers, one CSV field."""
    return ";".join(f"{v:.9g}" for v in values)


def _section(raw: dict, name: str, problems: List[str]) -> dict:
    """raw[name], or {} with a problem noted when it is not a JSON object."""
    section = raw.get(name, {})
    if isinstance(section, dict):
        return section
    problems.append(f"{name}: must be a JSON object")
    return {}


def _unknown_keys(section: dict, prefix: str, known, problems: List[str]) -> None:
    """Note every key of section that is not one of known: a misspelt key
    would otherwise leave its default in force without a word."""
    problems.extend(f"{prefix}{k}: unknown key" for k in section if k not in known)


def load_config(path: str) -> ExperimentConfig:
    problems: List[str] = []
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError([f"cannot read config: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError(["config: the top level must be a JSON object"])
    _unknown_keys(raw, "", CONFIG_KEYS, problems)

    agents_raw = raw.get("agents")
    agents: List[AgentDynamics] = []
    if not isinstance(agents_raw, list) or not agents_raw:
        problems.append("agents: need a nonempty list")
    else:
        for i, a in enumerate(agents_raw):
            if not isinstance(a, dict):
                problems.append(f"agents[{i}]: must be a JSON object")
                continue
            _unknown_keys(a, f"agents[{i}].", AGENT_KEYS, problems)
            try:
                agents.append(
                    AgentDynamics(
                        model=a.get("model", "second_order"),
                        x0=a["x0"],
                        v0=a.get("v0", 0.0),
                        u_max=a.get("u_max", 1.0),
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                problems.append(f"agents[{i}]: {exc}")
        if agents:
            try:
                _build_sets(agents)
            except ValueError as exc:
                problems.append(f"agents: {exc}")

    s = _section(raw, "solver", problems)
    _unknown_keys(s, "solver.", SOLVER_KEYS, problems)
    solver = None
    try:
        # the defaults are ToleranceConfig's own, but the CLI keeps the
        # paper's protocol: every inner run restarts from zero increments
        # and only the paper's stop rule ends a solve, so warm_start and
        # exact_finish are no config keys
        solver = ToleranceConfig(
            warm_start=False,
            exact_finish=False,
            **{k: s[k] for k in TOLERANCE_KEYS if k in s},
        )
    except (ValueError, TypeError) as exc:
        problems.append(f"solver: {exc}")
    # the plane must lie below the epigraph intersection, and reach times
    # are nonnegative, so the plane is fixed at height 0
    t_min = s.get("t_min", 0.0)
    if isinstance(t_min, bool) or t_min != 0.0:
        problems.append("solver.t_min: the plane is fixed at height 0; only 0.0 is accepted")

    mode = raw.get("mode", "centralized")
    if mode not in ("centralized", "ring"):
        problems.append(f"mode: must be centralized or ring, got {mode!r}")

    out = _section(raw, "outputs", problems)
    _unknown_keys(out, "outputs.", OUTPUT_KEYS, problems)
    outputs = {}
    for key in ("solution", "trace", "trajectory"):
        path = outputs[f"{key}_path"] = out.get(key)
        if path is not None and not isinstance(path, str):
            problems.append(f"outputs.{key}: must be a file path string")
    if "sample_dt" in out:
        # the check simulate_trajectory makes of its step
        try:
            outputs["sample_dt"] = positive_number(out["sample_dt"], "sample_dt")
        except (ValueError, TypeError) as exc:
            problems.append(f"outputs: {exc}")

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(agents=agents, solver=solver, mode=mode, **outputs)


def _write_solution(cfg: ExperimentConfig, result) -> str:
    record = {
        "x_consensus": [_sig9(v) for v in result.x_consensus],
        "t_consensus": _sig9(result.t_consensus),
        "distance": _sig9(result.solver.distance),
        "outer_iters": result.solver.outer_iters,
        "inner_cycles_total": result.solver.inner_cycles_total,
        "mode": cfg.mode,
        "experimental": result.experimental,
    }
    text = json.dumps(record, sort_keys=True, indent=2) + "\n"
    if cfg.solution_path:
        with open(cfg.solution_path, "w") as fh:
            fh.write(text)
    return text


def _write_trace(cfg: ExperimentConfig, trace: Trace) -> None:
    if not cfg.trace_path:
        return
    with open(cfg.trace_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cycle", "agent_id", "x", "height", "increment_norm", "flag", "bregman_event"])
        # a run's rows differ only in the agent id, so its fields are formatted once
        for cycle, first_id, end_id, point, increment_norm, flag, bregman_event in trace.runs():
            rest = (
                _joined(point[:-1]),
                f"{point[-1]:.9g}",
                f"{increment_norm:.9g}",
                flag,
                int(bregman_event),
            )
            w.writerows((cycle, agent_id) + rest for agent_id in range(first_id, end_id))


def cmd_solve(cfg: ExperimentConfig, result: ConsensusResult, quiet: bool = False) -> int:
    text = _write_solution(cfg, result)
    _write_trace(cfg, result.solver.trace)
    if not quiet:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, result: ConsensusResult, quiet: bool = False) -> int:
    # every agent shares one model; first-order positions and inputs are vectors
    x = result.x_consensus
    if cfg.agents[0].model is Model.FIRST_ORDER:
        target = (x, 0.0)
        row = lambda s: [_sig9(s.t), _joined(s.x), "0", _joined(s.u)]
    else:
        target = (float(x[0]), 0.0)
        row = lambda s: [_sig9(s.t), _sig9(s.x), _sig9(s.v), _sig9(s.u)]
    rows = [
        [i] + row(s)
        for i, agent in enumerate(cfg.agents, start=1)
        for s in simulate_trajectory(agent, target, dt=cfg.sample_dt).samples
    ]
    if cfg.trajectory_path:
        with open(cfg.trajectory_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["agent_id", "t", "x", "v", "u"])
            w.writerows(rows)
    if not quiet:
        print(f"simulated {len(cfg.agents)} agents, {len(rows)} samples")
    _write_solution(cfg, result)
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, result: ConsensusResult, quiet: bool = False) -> int:
    positions = np.array([a.x0 for a in cfg.agents])
    lo, hi = positions.min(axis=0), positions.max(axis=0)
    margin = np.maximum(1.0, 0.2 * (hi - lo + 1.0))
    # every axis gridded, with at most 8001 nodes in all
    try:
        grid = GridSpec(lo - margin, hi + margin, resolution=round(8001 ** (1 / lo.size)))
    except ValueError as exc:
        print(f"verification inconclusive: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    funcs = [
        (lambda a: (lambda x: reach_time(a, x)))(agent) for agent in cfg.agents
    ]
    g = grid_minmax(funcs, grid)

    x_err = float(np.linalg.norm(result.x_consensus - g.x))
    t_err = abs(result.t_consensus - g.value)
    bound = max(g.error_bound + 1e-3, 2 * g.spacing)

    # independent check of the projection machinery: nearest point of the
    # intersection of attainable sets (in solver height coordinates) to the
    # plane-side point must match the solver's intersection-side point
    sets = _build_sets(cfg.agents)[0]
    membership = lambda q: all(s.contains(q, 1e-9) for s in sets)
    plane_side = np.append(result.x_consensus, 0.0)
    hint = np.append(result.x_consensus, result.solver.t_star + 1.0)
    target = np.append(result.x_consensus, result.solver.t_star)
    try:
        q = numeric_projection(membership, plane_side, feasible_hint=hint, seed=7)
        proj_err = float(np.linalg.norm(q - target))
    except OracleBudgetError:
        # inconclusive, not a mismatch
        proj_err = None

    proj_tol = 1e-2 * (1.0 + abs(result.solver.t_star))
    # the position row shows the first coordinates and the distance
    # between the whole position vectors
    rows = [
        ("consensus position", float(result.x_consensus[0]), float(g.x[0]), x_err, bound),
        ("consensus time", result.t_consensus, g.value, t_err, bound),
    ]
    if not quiet:
        print(f"{'quantity':<20} {'solver':>14} {'oracle':>14} {'|diff|':>12} {'bound':>12}")
        for name, sv, ov, err, bnd in rows:
            print(f"{name:<20} {sv:>14.6f} {ov:>14.6f} {err:>12.2e} {bnd:>12.2e}")
        if proj_err is not None:
            print(f"{'projection check':<20} {proj_err:>14.2e} vs tol {proj_tol:.2e}")
        else:
            print("projection check     ORACLE BUDGET EXHAUSTED (not a mismatch)")

    if proj_err is None:
        print("verification inconclusive: oracle budget exhausted", file=sys.stderr)
        return EXIT_VERIFY
    if x_err > bound or t_err > bound or proj_err > proj_tol:
        print("verification mismatch: solver disagrees with oracles", file=sys.stderr)
        return EXIT_VERIFY
    if not quiet:
        print("verification passed")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="minmaxap",
        description="min-max consensus solver: alternating projections on a ring",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "simulate", "verify"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--mode", choices=["centralized", "ring"])
        sp.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        for p in exc.problems:
            print(f"config error: {p}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.mode:
        cfg.mode = args.mode

    # an output file that cannot be written, the partial trace of a capped
    # solve included, is a config error
    try:
        try:
            result = solve_min_time_consensus(cfg.agents, cfg.solver, mode=cfg.mode)
        except ConvergenceError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            if args.command == "solve":
                _write_trace(cfg, exc.trace)
            return EXIT_SOLVER
        handler = {"solve": cmd_solve, "simulate": cmd_simulate, "verify": cmd_verify}
        return handler[args.command](cfg, result, quiet=args.quiet)
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
