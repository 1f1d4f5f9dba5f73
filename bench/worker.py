"""One workload process: set up, warm up, then run operations in a closed loop.

    python3 bench/worker.py --workload swarm-central --seed 1 --seconds 20 \
        --trace 0 [--setup-only]

One caller issues each operation after the previous one ends. A run is a
whole number of rounds, and a round runs every operation of the workload
once, so each instance is timed equally often and the failed share of a run
does not depend on its length. The worker prints {"ready": <clock>} when
set-up ends and, unless --setup-only, one JSON line of raw samples when the
run ends; run.py turns those into the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter

import reference

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, SRC)
CLOCK = time.perf_counter

# --- inputs -----------------------------------------------------------------

SWARM_N = 96
# Base positions come from these generator seeds; --seed only moves them
# rigidly, which leaves every iteration count unchanged (the cones are
# isotropic), so runs with different seeds do the same work on new numbers.
# They are the seeds of 0..13 whose centralized solve takes 190-300 inner
# cycles: with instances of like cost the median operation is not caught
# between instances of very different cost (the others take 100-630).
SWARM_BASE_SEEDS = (0, 2, 4, 8, 10)

# Two quadratics a (x - c)^2 + h each, from the seeds of 0..24 whose solve
# takes 50-70 inner cycles (1.2-1.7 s here). Ten of the 25 need over 4 s
# and up to 25 s a solve, which would let one operation outlast a run.
EPIGRAPH_BASE_SEEDS = (9, 14, 17)

EXP1 = (-3.542884, 3.001152, 6.924106, -18.0296)
EXP2 = ((-3.542884, 5.140490), (3.001152, 3.794066), (6.924106, -3.281824), (-18.0296, 1.9023))
PLANE2D = ((0.0, 0.0), (5.0, 0.0), (1.0, 3.0))

# accepted distance from the independent answer, relative to 1 + |answer|;
# the solvers land within 6e-7 of it, and verify prints six decimals
ANSWER_TOL = 1e-5


def close(value: float, expected: float) -> bool:
    return abs(value - expected) <= ANSWER_TOL * (1.0 + abs(expected))


class Op:
    """One timed operation: run() does the work, check(result) returns
    (answer correct, projections or None) and may raise on a failed run."""

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


class Failed(Exception):
    """The program reported failure (exception or nonzero exit code)."""


# --- in-process workloads -----------------------------------------------------


def rigid_motion(rng: random.Random):
    th = rng.uniform(0.0, 2.0 * math.pi)
    flip = rng.choice((1.0, -1.0))
    dx, dy = rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)
    c, s = math.cos(th), math.sin(th)
    return lambda x, y: (c * x - s * flip * y + dx, s * x + c * flip * y + dy)


def swarm_ops(mode: str, seed: int, mm):
    import numpy as np

    rng = random.Random(seed)
    consensus = mm.consensus

    def make(points, label):
        agents = [mm.AgentDynamics(mm.Model.FIRST_ORDER, np.array(p)) for p in points]
        (cx, cy), radius = reference.min_enclosing_circle(points)
        cfg = mm.ToleranceConfig()

        def run():
            return consensus.solve_min_time_consensus(agents, cfg, mode=mode)

        def check(res):
            x, y = (float(v) for v in res.x_consensus)
            ok = close(x, cx) and close(y, cy) and close(res.t_consensus, radius)
            return ok, res.solver.inner_cycles_total * len(agents)

        return Op(label, run, check)

    ops = []
    for base in SWARM_BASE_SEEDS:
        move = rigid_motion(rng)
        pts = np.random.default_rng(base).uniform(0.0, 10.0, size=(SWARM_N, 2))
        ops.append(make([move(x, y) for x, y in pts], f"swarm{base}"))
    warm_pts = np.random.default_rng(99).uniform(0.0, 10.0, size=(8, 2))
    return ops, make([tuple(p) for p in warm_pts], "warm-up")


def epigraph_ops(seed: int, mm, counts):
    import numpy as np

    rng = random.Random(seed)

    def make(quads, label):
        def epigraph(a, c, h):
            def value(x):
                counts["geometry.epigraph_f_evals"] += 1
                return a * (x[0] - c) ** 2 + h

            def subgrad(x):
                counts["geometry.epigraph_f_evals"] += 1
                return np.array([2.0 * a * (x[0] - c)])

            return mm.ConvexEpigraph(value, subgrad, 1)

        sets = [epigraph(*q) for q in quads]
        x0 = sum(c for _, c, _ in quads) / len(quads)
        h0 = max(a * (x0 - c) ** 2 + h for a, c, h in quads)
        p0 = mm.PointTime(np.array([x0]), h0)
        plane = mm.HorizontalHyperplane(min(h for *_, h in quads) - 1.0)
        cfg = mm.ToleranceConfig()
        x_ref, t_ref = reference.quadratic_minmax(quads)

        def run():
            return mm.alternating.solve_minmax(sets, plane, p0, cfg)

        def check(sol):
            ok = close(float(sol.x_star[0]), x_ref) and close(sol.t_star, t_ref)
            return ok, sol.inner_cycles_total * len(sets)

        return Op(label, run, check)

    ops = []
    for base in EPIGRAPH_BASE_SEEDS:
        shift, flip = rng.uniform(-20.0, 20.0), rng.choice((1.0, -1.0))
        g = np.random.default_rng(base)
        a, c, h = g.uniform(0.5, 2.0, 2), g.uniform(-3.0, 3.0, 2), g.uniform(0.0, 2.0, 2)
        quads = [(float(a[i]), flip * float(c[i]) + shift, float(h[i])) for i in range(2)]
        ops.append(make(quads, f"quad{base}"))
    return ops, make([(1.0, 0.5, 1.0)], "warm-up")


# --- the CLI, one fresh interpreter per command -------------------------------


class CliRunner:
    """Writes the experiment configs and runs commands through cli_launch.py."""

    OUTPUTS = ("solution.json", "trace.csv", "trajectory.csv")

    def __init__(self, seed: int, tracing: bool):
        self.rng = random.Random(seed)
        self.work = os.path.join(OUT, "cli-work")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.tracing = tracing
        self.span_files = []
        self.output_bytes = 0
        self.env = dict(os.environ)
        outputs = {"solution": "solution.json", "trace": "trace.csv",
                   "trajectory": "trajectory.csv", "sample_dt": 0.05}
        second = [{"model": "second_order", "x0": [x], "v0": v} for x, v in EXP2]
        configs = {
            "exp1": [{"model": "second_order", "x0": [x]} for x in EXP1],
            "exp2": second,
            "plane2d": [{"model": "first_order", "x0": list(p)} for p in PLANE2D],
        }
        for name, agents in configs.items():
            with open(os.path.join(self.work, name + ".json"), "w") as fh:
                json.dump({"agents": agents, "solver": {"err": 1e-7, "outer_tol": 1e-6},
                           "outputs": outputs}, fh, indent=2)
        self.answers = {
            "exp1": reference.zero_velocity_consensus(EXP1),
            "exp2": reference.double_integrator_consensus(EXP2),
            "plane2d": (lambda c: (c[0][0], c[1]))(reference.min_enclosing_circle(PLANE2D)),
        }
        self.agents = {"exp1": [(x, 0.0, 1.0) for x in EXP1],
                       "exp2": [(x, v, 1.0) for x, v in EXP2]}

    def op(self, config: str, command: str, mode: str) -> Op:
        label = f"{command}:{config}:{mode}"
        x_ref, t_ref = self.answers[config]

        def run():
            for name in self.OUTPUTS:
                path = os.path.join(self.work, name)
                if os.path.exists(path):
                    os.remove(path)
            env = self.env
            if self.tracing:
                spans = os.path.join(self.work, f"spans-{len(self.span_files)}.npz")
                self.span_files.append(spans)
                env = dict(env, MINMAXAP_BENCH_SPANS=spans)
            return subprocess.run(
                [sys.executable, os.path.join(BENCH, "cli_launch.py"), command,
                 "--config", config + ".json", "--mode", mode],
                cwd=self.work, env=env, capture_output=True, text=True, timeout=150)

        def check(proc):
            if proc.returncode != 0:
                raise Failed(f"{label} exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
            for name in self.OUTPUTS:
                path = os.path.join(self.work, name)
                if os.path.exists(path):
                    self.output_bytes += os.path.getsize(path)
            if command == "verify":
                return self.check_verify(proc.stdout, x_ref, t_ref), None
            with open(os.path.join(self.work, "solution.json")) as fh:
                sol = json.load(fh)
            ok = close(sol["x_consensus"][0], x_ref) and close(sol["t_consensus"], t_ref)
            if command == "solve":
                with open(os.path.join(self.work, "trace.csv")) as fh:
                    ok = ok and fh.readline().startswith("cycle,") and bool(fh.readline())
            else:
                ok = ok and not reference.check_trajectory(
                    os.path.join(self.work, "trajectory.csv"), self.agents[config],
                    sol["x_consensus"][0], sol["t_consensus"])
            return ok, sol["inner_cycles_total"] * len(self.agents[config])

        return Op(label, run, check)

    @staticmethod
    def check_verify(stdout: str, x_ref: float, t_ref: float) -> bool:
        solver = {}
        for line in stdout.splitlines():
            for key in ("consensus position", "consensus time"):
                if line.startswith(key):
                    solver[key] = float(line[len(key):].split()[0])
        return ("verification passed" in stdout
                and close(solver.get("consensus position", math.nan), x_ref)
                and close(solver.get("consensus time", math.nan), t_ref))

    def round(self):
        ops = [self.op(cfg, cmd, mode)
               for cfg in ("exp1", "exp2")
               for cmd in ("solve", "simulate", "verify")
               for mode in ("centralized", "ring")]
        ops += [self.op("plane2d", "verify", mode) for mode in ("centralized", "ring")]
        self.rng.shuffle(ops)
        return ops


# --- diagnostics ----------------------------------------------------------------


def steal_seconds():
    """Steal time of this machine's CPUs so far, or None where /proc is unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def reference_kernel_ms() -> float:
    """Median of five timings of a fixed pure-Python loop."""
    times = []
    for _ in range(5):
        t0 = CLOCK()
        acc = 0.0
        for i in range(100000):
            acc += math.sqrt(i)
        times.append(1e3 * (CLOCK() - t0))
    return sorted(times)[2]


# --- the loop -------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    os.makedirs(OUT, exist_ok=True)

    counts = Counter()
    tracer = cli = None
    import_ms = None
    if args.workload == "cli-experiments":
        cli = CliRunner(args.seed, bool(args.trace))
        rounds = cli.round
        warm = cli.op("exp1", "solve", "centralized")
    else:
        t0 = CLOCK()
        import minmaxap.cli  # noqa: F401  (every layer, as the CLI loads it)
        import_ms = 1e3 * (CLOCK() - t0)
        import minmaxap as mm

        if not os.path.abspath(mm.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"minmaxap imported from {mm.__file__}, not {SRC}")
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
            counts = tracer.counts
        if args.workload == "epigraph-generic":
            ops, warm = epigraph_ops(args.seed, mm, counts)
        else:
            mode = {"swarm-central": "centralized", "swarm-ring": "ring"}[args.workload]
            ops, warm = swarm_ops(mode, args.seed, mm)
        rounds = lambda: ops  # noqa: E731

    ok, _ = warm.check(warm.run())
    if not ok:
        raise SystemExit("warm-up operation gave a wrong answer")
    gc.collect()
    if tracer is not None:
        tracer.reset()
    if cli is not None:
        cli.span_files.clear()
        cli.output_bytes = 0
    print(json.dumps({"ready": CLOCK()}), flush=True)
    if args.setup_only:
        return 0

    kernel_before = reference_kernel_ms()
    steal_before = steal_seconds()
    samples = []  # (label, seconds, outcome, projections)
    loop_start = CLOCK()
    while True:
        for op in rounds():
            gc.collect()
            if tracer is not None:
                op_run = tracer.wrap("op", op.run)
            else:
                op_run = op.run
            t0 = CLOCK()
            try:
                result = op_run()
                error = None
            except Exception as exc:  # a solver failure is a failed operation
                result, error = None, exc
            dt = CLOCK() - t0
            projections = None
            if error is None:
                try:
                    ok, projections = op.check(result)
                    outcome = "ok" if ok else "wrong"
                except Failed as exc:
                    outcome, error = "failed", exc
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    outcome, error = "wrong", exc  # missing or malformed output
            else:
                outcome = "failed"
            samples.append((op.label, dt, outcome, projections))
            if error is not None:
                print(f"failed: {op.label}: {error}", file=sys.stderr)
        if CLOCK() - loop_start >= args.seconds:
            break
    steal_after = steal_seconds()
    kernel_after = reference_kernel_ms()

    if cli is not None:
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "samples": samples,
        "peak_rss_mb": peak,
        "steal_s": None if steal_before is None else steal_after - steal_before,
        "kernel_ms": [kernel_before, kernel_after],
    }
    if args.trace:
        import spans

        if cli is not None:
            files = cli.span_files
        else:
            files = [os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz")]
            tracer.save(files[0], extra={"import_s": import_ms / 1e3})
        layer, self_ms = spans.layer_metrics(files, len(samples))
        layer["cli.output_bytes_per_op"] = (cli.output_bytes if cli else 0) / len(samples)
        report["layer"] = layer
        report["self_ms_per_op"] = self_ms
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
