"""Spans around the calls into minmaxap's layers, kept in memory.

`install` replaces each layer's public names where their callers look them
up with wrappers that record a span (name, start, end, parent) and a few
counters. Spans live in flat arrays so that a traced solve with a hundred
thousand projections stays small, and are written to an .npz file when the
run ends. `layer_metrics` turns saved spans into the per-layer metrics.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import Counter
from typing import Callable, Dict, Iterable

CLOCK = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: Dict[str, int] = {}
        self.counts: Counter = Counter()
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]

    def reset(self) -> None:
        """Drop what was recorded so far; the wrappers keep working."""
        for column in (self.name, self.start, self.end, self.parent):
            del column[:]
        self.stack[:] = [-1]
        self.counts.clear()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """fn recording one span per call; after(args, result) may count."""
        nid = self._id(name)
        stack, names, starts, ends, parents = (
            self.stack, self.name, self.start, self.end, self.parent)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(CLOCK())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = CLOCK()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def save(self, path: str, extra: Dict[str, float] | None = None) -> None:
        import numpy as np

        counters = dict(self.counts)
        counters.update(extra or {})
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            counter_names=np.array(list(counters), dtype=str),
            counter_values=np.array(list(counters.values()), dtype=float),
        )


def install(tracer: Tracer) -> None:
    """Wrap minmaxap's layer entry points; call once, after importing it."""
    import minmaxap.alternating as alternating
    import minmaxap.cli as cli
    import minmaxap.consensus as consensus
    import minmaxap.geometry as geometry
    import minmaxap.ring as ring

    counts = tracer.counts
    t = tracer.wrap

    def cone_after(args, result):
        if result is args[1]:
            counts["geometry.cone_noop"] += 1

    geometry.SecondOrderCone.project = t(
        "geometry.cone_project", geometry.SecondOrderCone.project, cone_after)
    geometry.PointTime.__post_init__ = tracer.counted(
        "geometry.pointtime", geometry.PointTime.__post_init__)
    geometry.ConvexEpigraph.project = t(
        "geometry.epigraph_project", geometry.ConvexEpigraph.project)

    dykstra = alternating.dykstra_project

    def dykstra_counted(sets, p0, cfg, stats=None):
        stats = {} if stats is None else stats
        try:
            return dykstra(sets, p0, cfg, stats=stats)
        finally:
            counts["alternating.dykstra_cycles"] += stats.get("cycles", 0)

    alternating.dykstra_project = t("alternating.dykstra_project", dykstra_counted)
    solve_minmax = t("alternating.solve_minmax", alternating.solve_minmax)
    alternating.solve_minmax = consensus.solve_minmax = solve_minmax

    def ring_after(args, sol):
        counts["ring.cycles"] += sol.inner_cycles_total
        counts["ring.trace_rows"] += len(sol.trace)

    ring.agent_step = t("ring.agent_step", ring.agent_step)
    ring.coordinator_step = t("ring.coordinator_step", ring.coordinator_step)
    ring.run_ring = consensus.run_ring = t("ring.run_ring", ring.run_ring, ring_after)

    solve = t("consensus.solve", consensus.solve_min_time_consensus)
    consensus.solve_min_time_consensus = cli.solve_min_time_consensus = solve
    consensus.SecondOrderAttainableSet.project = t(
        "consensus.attainable_project", consensus.SecondOrderAttainableSet.project)
    simulate = t("consensus.simulate_trajectory", consensus.simulate_trajectory)
    consensus.simulate_trajectory = cli.simulate_trajectory = simulate

    grid_minmax = t("oracle.grid_minmax", cli.grid_minmax)
    numeric_projection = t("oracle.numeric_projection", cli.numeric_projection)

    def grid_counted(functions, grid):
        return grid_minmax(
            [tracer.counted("oracle.grid_evals", f) for f in functions], grid)

    def projection_counted(membership, *args, **kwargs):
        member = tracer.counted("oracle.membership_evals", membership)
        return numeric_projection(member, *args, **kwargs)

    cli.grid_minmax = grid_counted
    cli.numeric_projection = projection_counted
    cli.load_config = t("cli.load_config", cli.load_config)


# name and unit of every per-layer metric; README.md defines each
PER_LAYER = [
    ("geometry.cone_project_us", "us"),
    ("geometry.cone_project_calls", "count"),
    ("geometry.cone_project_noop_share", "fraction"),
    ("geometry.pointtime_per_op", "count"),
    ("geometry.epigraph_project_ms", "ms"),
    ("geometry.epigraph_f_evals_per_project", "count"),
    ("alternating.dykstra_self_ms", "ms"),
    ("alternating.dykstra_calls_per_op", "count"),
    ("alternating.cycles_per_dykstra", "count"),
    ("alternating.solve_minmax_self_ms", "ms"),
    ("ring.agent_step_self_us", "us"),
    ("ring.coordinator_step_self_us", "us"),
    ("ring.run_ring_self_ms", "ms"),
    ("ring.trace_rows_per_op", "count"),
    ("ring.cycles_per_op", "count"),
    ("consensus.solve_self_ms", "ms"),
    ("consensus.attainable_project_us", "us"),
    ("consensus.simulate_trajectory_ms", "ms"),
    ("oracle.grid_minmax_ms", "ms"),
    ("oracle.grid_evals", "count"),
    ("oracle.numeric_projection_ms", "ms"),
    ("oracle.membership_evals", "count"),
    ("cli.import_ms", "ms"),
    ("cli.load_config_ms", "ms"),
    ("cli.solve_ms", "ms"),
    ("cli.simulate_ms", "ms"),
    ("cli.verify_ms", "ms"),
    ("cli.output_bytes_per_op", "bytes"),
]


def layer_metrics(files: Iterable[str], n_ops: int):
    """Per-layer metrics from the span files of n_ops operations, and the
    self time per op of every span name. cli.output_bytes_per_op is left to
    the caller, which sees the output files.

    A span's self time is its duration minus the durations of its direct
    children; the children's own children are already inside those.
    """
    import numpy as np

    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    counts: Counter = Counter()
    import_ms = []
    for path in files:
        with np.load(path) as z:
            names, name, parent = z["names"], z["name"], z["parent"]
            dur = z["end"] - z["start"]
            extra = dict(zip(z["counter_names"], z["counter_values"]))
        kids = parent >= 0
        child = np.bincount(parent[kids], weights=dur[kids], minlength=dur.size)
        own = dur - child
        n = len(names)
        for i, (c, s, d) in enumerate(zip(
                np.bincount(name, minlength=n),
                np.bincount(name, weights=own, minlength=n),
                np.bincount(name, weights=dur, minlength=n))):
            calls[str(names[i])] += int(c)
            self_s[str(names[i])] += float(s)
            total_s[str(names[i])] += float(d)
        if "import_s" in extra:
            import_ms.append(1e3 * float(extra.pop("import_s")))
        counts.update({str(k): float(v) for k, v in extra.items()})

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ops = max(n_ops, 1)
    m = {
        "geometry.cone_project_us": 1e6 * ratio(self_s["geometry.cone_project"], calls["geometry.cone_project"]),
        "geometry.cone_project_calls": calls["geometry.cone_project"] / ops,
        "geometry.cone_project_noop_share": ratio(counts["geometry.cone_noop"], calls["geometry.cone_project"]),
        "geometry.pointtime_per_op": counts["geometry.pointtime"] / ops,
        "geometry.epigraph_project_ms": 1e3 * ratio(self_s["geometry.epigraph_project"], calls["geometry.epigraph_project"]),
        "geometry.epigraph_f_evals_per_project": ratio(counts["geometry.epigraph_f_evals"], calls["geometry.epigraph_project"]),
        "alternating.dykstra_self_ms": 1e3 * self_s["alternating.dykstra_project"] / ops,
        "alternating.dykstra_calls_per_op": calls["alternating.dykstra_project"] / ops,
        "alternating.cycles_per_dykstra": ratio(counts["alternating.dykstra_cycles"], calls["alternating.dykstra_project"]),
        "alternating.solve_minmax_self_ms": 1e3 * self_s["alternating.solve_minmax"] / ops,
        "ring.agent_step_self_us": 1e6 * ratio(self_s["ring.agent_step"], calls["ring.agent_step"]),
        "ring.coordinator_step_self_us": 1e6 * ratio(self_s["ring.coordinator_step"], calls["ring.coordinator_step"]),
        "ring.run_ring_self_ms": 1e3 * self_s["ring.run_ring"] / ops,
        "ring.trace_rows_per_op": counts["ring.trace_rows"] / ops,
        "ring.cycles_per_op": counts["ring.cycles"] / ops,
        "consensus.solve_self_ms": 1e3 * ratio(self_s["consensus.solve"], calls["consensus.solve"]),
        "consensus.attainable_project_us": 1e6 * ratio(self_s["consensus.attainable_project"], calls["consensus.attainable_project"]),
        "consensus.simulate_trajectory_ms": 1e3 * ratio(total_s["consensus.simulate_trajectory"], calls["consensus.simulate_trajectory"]),
        "oracle.grid_minmax_ms": 1e3 * ratio(total_s["oracle.grid_minmax"], calls["oracle.grid_minmax"]),
        "oracle.grid_evals": ratio(counts["oracle.grid_evals"], calls["oracle.grid_minmax"]),
        "oracle.numeric_projection_ms": 1e3 * ratio(total_s["oracle.numeric_projection"], calls["oracle.numeric_projection"]),
        "oracle.membership_evals": ratio(counts["oracle.membership_evals"], calls["oracle.numeric_projection"]),
        "cli.import_ms": statistics.median(import_ms) if import_ms else 0.0,
        "cli.load_config_ms": 1e3 * ratio(total_s["cli.load_config"], calls["cli.load_config"]),
        "cli.solve_ms": 1e3 * ratio(total_s["cli.solve"], calls["cli.solve"]),
        "cli.simulate_ms": 1e3 * ratio(total_s["cli.simulate"], calls["cli.simulate"]),
        "cli.verify_ms": 1e3 * ratio(total_s["cli.verify"], calls["cli.verify"]),
    }
    return m, {k: 1e3 * v / ops for k, v in sorted(self_s.items())}
