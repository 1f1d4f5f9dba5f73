"""Benchmark of minmaxap: one workload per invocation, metrics as JSON.

    python3 bench/run.py --workload swarm-central --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Workloads: swarm-central, swarm-ring,
cli-experiments, epigraph-generic (README.md says what each stresses).
With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
A report with every sample and the noise diagnostics is written to
bench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("swarm-central", "swarm-ring", "cli-experiments", "epigraph-generic")
# set-up is timed in this many fresh processes; the last one also runs the loop
SETUP_RUNS = 5
# a run must end within this many seconds of its start
DEADLINE_S = 170.0


def child_env() -> dict:
    """Environment of every benchmark child: sources on the path, hashing
    fixed, BLAS pools pinned to one thread."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("MINMAXAP_BENCH_SPANS", None)
    return env


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def worker(args, env, setup_only: bool, timeout: float):
    """Start one worker; return (set-up seconds, its final JSON line or None).

    The worker runs in its own process group, so that a worker stopped at
    the deadline takes the CLI command it may be running with it.
    """
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker ran past {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    ready = lines[0]["ready"] - started
    return ready, (None if setup_only else lines[-1])


def end_to_end(report: dict, setups: list) -> dict:
    times = [dt for _, dt, _, _ in report["samples"]]
    projections = [p for _, _, _, p in report["samples"] if p is not None]
    return {
        "op_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
        "ops_per_s": {"value": len(times) / sum(times), "unit": "ops/s"},
        "projections_per_op": {"value": statistics.mean(projections) if projections else 0.0,
                               "unit": "count"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    began = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "minmaxap", "__init__.py")):
        return fail(f"no minmaxap sources under {SRC}; run from a checkout")
    os.makedirs(OUT, exist_ok=True)
    # bytecode is written before anything is timed
    for path in (os.path.join(SRC, "minmaxap"), BENCH):
        if not compileall.compile_dir(path, quiet=1, maxlevels=0):
            return fail(f"cannot compile {path}")

    env = child_env()
    setups = []
    try:
        for _ in range(0 if args.trace else SETUP_RUNS - 1):
            setups.append(worker(args, env, True, DEADLINE_S - (time.perf_counter() - began))[0])
        ready, report = worker(args, env, False, DEADLINE_S - (time.perf_counter() - began))
    except (RuntimeError, ValueError, IndexError, KeyError) as exc:
        return fail(str(exc))
    setups.append(ready)

    outcomes = [outcome for _, _, outcome, _ in report["samples"]]
    if args.trace:
        from spans import PER_LAYER

        metrics = {name: {"value": report["layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = end_to_end(report, setups)
    result = {
        "correct": "wrong" not in outcomes,
        "attempted": len(outcomes),
        "failed": sum(o != "ok" for o in outcomes),
        "metrics": metrics,
    }
    diagnostics = {"steal_s": report["steal_s"], "kernel_ms": report["kernel_ms"],
                   "setup_runs_s": setups}
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(dict(result, diagnostics=diagnostics, samples=report["samples"],
                       self_ms_per_op=report.get("self_ms_per_op")), fh, indent=1)
    print("diagnostics: " + json.dumps(diagnostics))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
