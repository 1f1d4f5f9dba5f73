"""Reference figures for README.md: solve time against N, and import cost.

    python3 bench/sweep.py

Solves the first swarm of swarm-central / swarm-ring (base seed 0) at
N = 4 ... 256 in both modes, once each, and times `import minmaxap` in
fresh interpreters with -X importtime to find the share of scipy.optimize.
"""

import statistics
import subprocess
import sys
import time

from run import SRC, child_env


def import_share(runs: int = 5):
    """Median (import minmaxap ms, scipy.optimize ms) over fresh interpreters."""
    totals, scipy_opt = [], []
    for _ in range(runs):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import minmaxap"],
                             env=child_env(), capture_output=True, text=True, check=True).stderr
        cumulative = {}
        for line in err.splitlines()[1:]:
            _, cum, name = line.split("|")
            cumulative.setdefault(name.strip(), int(cum))
        totals.append(cumulative["minmaxap"] / 1e3)
        scipy_opt.append(cumulative["scipy.optimize"] / 1e3)
    return statistics.median(totals), statistics.median(scipy_opt)


def main():
    total, scipy_opt = import_share()
    print(f"import minmaxap {total:.0f} ms, of which scipy.optimize {scipy_opt:.0f} ms "
          f"({100 * scipy_opt / total:.0f} %)")
    sys.path.insert(0, SRC)
    import numpy as np

    import minmaxap as mm

    print("| N | centralized s | cycles | ring s | cycles | trace rows |")
    print("|---|---|---|---|---|---|")
    for n in (4, 8, 16, 32, 64, 128, 256):
        pts = np.random.default_rng(0).uniform(0.0, 10.0, size=(n, 2))
        agents = [mm.AgentDynamics(mm.Model.FIRST_ORDER, p) for p in pts]
        row = [str(n)]
        for mode in ("centralized", "ring"):
            t0 = time.perf_counter()
            sol = mm.solve_min_time_consensus(agents, mm.ToleranceConfig(), mode=mode).solver
            row += [f"{time.perf_counter() - t0:.3f}", str(sol.inner_cycles_total)]
        row.append(str(len(sol.trace)))
        print("| " + " | ".join(row) + " |", flush=True)


if __name__ == "__main__":
    main()
