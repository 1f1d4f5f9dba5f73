"""The benchmark's independent answers against brute force on small inputs.

    python3 -m pytest bench/test_reference.py -q
"""

import itertools
import math
import random

import pytest

import reference


def brute_circle(points):
    """Smallest circle through two or three of the points holding them all."""
    best = None
    for pair in itertools.combinations(points, 2):
        cands = [reference._circle_two(*pair)]
        for third in points:
            cands.append(reference._circle_three(*pair, third))
        for c, r in cands:
            if all(math.dist(c, p) <= r + 1e-9 for p in points):
                if best is None or r < best[1]:
                    best = (c, r)
    return best


@pytest.mark.parametrize("seed", range(40))
def test_enclosing_circle_matches_brute_force(seed):
    rng = random.Random(seed)
    points = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(rng.randint(2, 9))]
    (cx, cy), r = reference.min_enclosing_circle(points)
    (bx, by), br = brute_circle(points)
    assert r == pytest.approx(br, abs=1e-9)
    assert (cx, cy) == pytest.approx((bx, by), abs=1e-6)


def test_enclosing_circle_of_the_cli_triangle():
    (cx, cy), r = reference.min_enclosing_circle([(0, 0), (5, 0), (1, 3)])
    assert r == pytest.approx(2.63523, abs=1e-5)
    assert all(math.dist((cx, cy), p) <= r + 1e-12 for p in [(0, 0), (5, 0), (1, 3)])


def brute_reach_time(x0, v0, xf, u_max):
    """Earliest T on a fine scan of one-switch bang-bang inputs ending at rest."""
    best = math.inf
    for u1 in (u_max, -u_max):
        # at rest at the end: v0 + u1 tau - u1 (T - tau) = 0
        for k in range(200001):
            tau = k * 1e-4
            T = 2.0 * tau + v0 / u1
            if T < tau:
                continue
            v1 = v0 + u1 * tau
            x = x0 + v0 * tau + 0.5 * u1 * tau * tau + v1 * (T - tau) - 0.5 * u1 * (T - tau) ** 2
            if abs(x - xf) < 2e-3:
                best = min(best, T)
    return best


@pytest.mark.parametrize("seed", range(12))
def test_double_integrator_time_matches_scan(seed):
    rng = random.Random(seed)
    x0, v0, xf = rng.uniform(-4, 4), rng.uniform(-3, 3), rng.uniform(-4, 4)
    u_max = rng.choice((0.5, 1.0, 2.0))
    assert reference.double_integrator_time(x0, v0, xf, u_max) == pytest.approx(
        brute_reach_time(x0, v0, xf, u_max), abs=2e-2)


def grid_min(f, lo, hi, n=200001):
    return min((f(lo + (hi - lo) * k / (n - 1)), lo + (hi - lo) * k / (n - 1)) for k in range(n))


@pytest.mark.parametrize("seed", range(8))
def test_double_integrator_consensus_matches_grid(seed):
    rng = random.Random(seed)
    agents = [(rng.uniform(-10, 10), rng.uniform(-3, 3)) for _ in range(rng.randint(1, 5))]
    x, t = reference.double_integrator_consensus(agents)
    gt, gx = grid_min(
        lambda y: max(reference.double_integrator_time(a, v, y) for a, v in agents), -40, 40)
    assert t == pytest.approx(gt, abs=1e-3)
    assert t <= gt + 1e-12


def test_experiments_one_and_two():
    exp1 = (-3.542884, 3.001152, 6.924106, -18.0296)
    assert reference.zero_velocity_consensus(exp1) == pytest.approx((-5.5527, 7.0645), abs=1e-4)
    x, t = reference.double_integrator_consensus([(x, 0.0) for x in exp1])
    assert (x, t) == pytest.approx((-5.5527, 7.0645), abs=1e-4)
    exp2 = [(-3.542884, 5.140490), (3.001152, 3.794066), (6.924106, -3.281824), (-18.0296, 1.9023)]
    assert reference.double_integrator_consensus(exp2) == pytest.approx((6.93663, 8.44673), abs=1e-5)


@pytest.mark.parametrize("seed", range(30))
def test_quadratic_minmax_matches_grid(seed):
    rng = random.Random(seed)
    quads = [(rng.uniform(0.2, 3), rng.uniform(-3, 3), rng.uniform(-1, 2))
             for _ in range(rng.randint(1, 4))]
    x, t = reference.quadratic_minmax(quads)
    gt, gx = grid_min(lambda y: max(a * (y - c) ** 2 + h for a, c, h in quads), -6, 6)
    assert t == pytest.approx(max(a * (x - c) ** 2 + h for a, c, h in quads), abs=1e-12)
    assert t <= gt + 1e-12
    # the grid's best node lies within half a spacing (6e-5) of the minimum,
    # and the slope there is below 2 * 3 * 9
    assert t == pytest.approx(gt, abs=2e-3)


def write_csv(path, rows):
    with open(path, "w") as fh:
        fh.write("agent_id,t,x,v,u\n")
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")


def euler_rest_to_rest(agent_id, x0, xf, u_max, steps=20000):
    """Bang-bang from rest at x0 to rest at xf, integrated by small steps."""
    T = 2.0 * math.sqrt(abs(xf - x0) / u_max)
    u = math.copysign(u_max, xf - x0)
    dt = T / steps
    x, v, rows = x0, 0.0, []
    for k in range(steps + 1):
        uk = u if k * dt < T / 2 else -u
        rows.append((agent_id, k * dt, x, v, uk))
        x, v = x + v * dt + 0.5 * uk * dt * dt, v + uk * dt
    return rows, T


def test_trajectory_check_accepts_integrated_and_rejects_broken(tmp_path):
    rows1, t1 = euler_rest_to_rest(1, -1.0, 2.0, 1.0)
    rows2, t2 = euler_rest_to_rest(2, 5.0, 2.0, 1.0)
    good = tmp_path / "good.csv"
    write_csv(good, rows1 + rows2)
    agents = [(-1.0, 0.0, 1.0), (5.0, 0.0, 1.0)]
    assert reference.check_trajectory(str(good), agents, 2.0, max(t1, t2), tol=1e-3) == []

    late = tmp_path / "late.csv"
    write_csv(late, rows1 + rows2)
    assert reference.check_trajectory(str(late), agents, 2.0, 0.5 * max(t1, t2), tol=1e-3)

    strong = tmp_path / "strong.csv"
    write_csv(strong, [r[:4] + (2.0 * r[4],) for r in rows1] + rows2)
    assert reference.check_trajectory(str(strong), agents, 2.0, max(t1, t2), tol=1e-3)

    astray = tmp_path / "astray.csv"
    write_csv(astray, rows1 + rows2[:-100])
    assert reference.check_trajectory(str(astray), agents, 2.0, max(t1, t2), tol=1e-3)
