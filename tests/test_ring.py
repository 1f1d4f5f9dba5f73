import itertools
from collections import Counter

import numpy as np
import pytest

from minmaxap import (
    Ball,
    ConvergenceError,
    Halfspace,
    HorizontalHyperplane,
    MinMaxSolution,
    PointTime,
    SecondOrderCone,
    ToleranceConfig,
    Trace,
    TraceEvent,
    agent_step,
    coordinator_step,
    run_ring,
    solve_minmax,
)
from minmaxap import alternating
from minmaxap.geometry import plus_zero


def pt(x, t):
    return PointTime(np.atleast_1d(np.asarray(x, float)), t)


def vec(x, t):
    """A raw (x..., t) point, as the ring passes it."""
    return np.append(np.asarray(x, float), t)


class TestAgentStep:
    def test_plane_projection_updates_increment(self):
        out, inc = agent_step(HorizontalHyperplane(0.0), np.zeros(2), vec([2.0], 5.0))
        assert np.allclose(out, [2.0, 0.0])
        assert np.allclose(inc, [0.0, -5.0])

    def test_cone_step_derived_from_projection(self):
        cone = SecondOrderCone(vec([0.0], 0.0), 1.0)
        out, inc = agent_step(cone, np.zeros(2), vec([2.0], 0.0))
        assert np.allclose(out, [1.0, 1.0])
        assert np.allclose(inc, [-1.0, 1.0])


class TestCoordinatorStep:
    def test_stationary_triggers_bregman(self):
        cfg = ToleranceConfig(err=1e-7)
        e, plane_pt = coordinator_step(
            vec([4.0], 2.0), vec([4.0], 2.0), 0.0, HorizontalHyperplane(0.0), cfg
        )
        assert e == 0.0
        assert np.allclose(plane_pt, [4.0, 0.0])

    def test_moving_guess_keeps_flag_zero(self):
        cfg = ToleranceConfig(err=1e-7)
        e, plane_pt = coordinator_step(
            vec([4.0], 2.0), vec([5.0], 2.0), 0.0, HorizontalHyperplane(0.0), cfg
        )
        assert e == pytest.approx(1.0) and plane_pt is None

    def test_drift_keeps_a_stalled_guess_from_stopping(self):
        cfg = ToleranceConfig(err=1e-7)
        guess = vec([4.0], 2.0)
        e, plane_pt = coordinator_step(guess, guess, 0.5, HorizontalHyperplane(0.0), cfg)
        assert e == 0.5 and plane_pt is None
        # with no guess from the cycle before, the error is infinite
        e, plane_pt = coordinator_step(guess, None, 0.0, HorizontalHyperplane(0.0), cfg)
        assert e == np.inf and plane_pt is None


CFG = ToleranceConfig()
# the paper's protocol: flag 1 resets every increment after a Bregman event
COLD = ToleranceConfig(warm_start=False)
LOOSE_INNER = ToleranceConfig(err=1e-2, outer_tol=1e-6)
# the same, ended by the paper's stop rule alone, for the tests that
# assert the paper loop's own mechanics: rows, caps and cycle counts
PAPER = ToleranceConfig(exact_finish=False)
PAPER_COLD = ToleranceConfig(warm_start=False, exact_finish=False)
PAPER_LOOSE_INNER = ToleranceConfig(err=1e-2, outer_tol=1e-6, exact_finish=False)
PLANE = HorizontalHyperplane(0.0)


class TestRunRing:
    def test_single_agent_minimum_at_apex(self):
        cones = [SecondOrderCone(vec([3.0], 0.0), 1.0)]
        sol = run_ring(cones, HorizontalHyperplane(-1.0), pt([0.0], 5.0), CFG)
        assert sol.x_star[0] == pytest.approx(3.0, abs=1e-5)

    def test_two_symmetric_cones(self):
        cones = [SecondOrderCone(vec([-1.0], 0.0), 1.0), SecondOrderCone(vec([1.0], 0.0), 1.0)]
        sol = run_ring(cones, PLANE, pt([0.4], 3.0), CFG)
        assert sol.x_star[0] == pytest.approx(0.0, abs=1e-5)
        assert sol.t_star == pytest.approx(1.0, abs=1e-5)

    def test_experiment_one(self):
        cones = [
            SecondOrderCone(vec([x], 0.0), 4.0)
            for x in (-3.542884, 3.001152, 6.924106, -18.0296)
        ]
        sol = run_ring(cones, PLANE, pt([0.0], 80.0), CFG)
        assert sol.x_star[0] == pytest.approx(-5.5527, abs=1e-3)
        assert np.sqrt(sol.t_star) == pytest.approx(7.0645, abs=1e-3)

    def test_message_conservation(self):
        cones = [
            SecondOrderCone(vec([-1.0], 0.0), 1.0),
            SecondOrderCone(vec([1.0], 0.0), 1.0),
            SecondOrderCone(vec([0.5], 0.0), 2.0),
        ]
        sol = run_ring(cones, PLANE, pt([0.2], 4.0), CFG)
        counts = Counter(row.agent_id for row in sol.trace)
        # one message in flight: every agent visited once per full cycle;
        # termination at the coordinator may leave one final partial cycle
        assert counts[2] == counts[3]
        assert counts[1] - counts[2] in (0, 1)
        rows_per_cycle = {}
        for row in sol.trace:
            rows_per_cycle.setdefault(row.cycle, []).append(row.agent_id)
        for ids in rows_per_cycle.values():
            assert sorted(ids) == sorted(set(ids))

    def test_flag_discipline_reset_step_restarts_increment(self):
        cones = [
            SecondOrderCone(vec([-1.0], 0.0), 1.0),
            SecondOrderCone(vec([1.0], 0.0), 1.0),
        ]
        sol = run_ring(cones, PLANE, pt([0.3], 4.0), COLD)
        # every increment is zeroed at a cold event, so on the flag-1 steps
        # that follow the fresh increment equals emitted guess minus
        # received guess
        rows = list(sol.trace)
        seen = 0
        for prev, row in zip(rows, rows[1:]):
            if row.flag == 1 and row.agent_id != 1:
                step = np.linalg.norm(row.point - prev.point)
                assert row.increment_norm == pytest.approx(step, abs=1e-12)
                seen += 1
        assert seen >= 1

    def test_matches_centralized_at_bregman_events(self):
        cones = [
            SecondOrderCone(vec([x], 0.0), 4.0)
            for x in (-3.542884, 3.001152, 6.924106, -18.0296)
        ]
        p0 = pt([0.0], 80.0)
        central = solve_minmax(cones, HorizontalHyperplane(0.0), p0, COLD)
        ring = run_ring(cones, PLANE, p0, COLD)
        ring_events = [r for r in ring.trace if r.bregman_event]
        assert len(ring_events) == central.outer_iters
        for rec, ev in zip(central.trace, ring_events):
            # same inner stop threshold, slightly different stop statistic:
            # events agree to well below the outer tolerance scale; a
            # centralized row holds the intersection-side point and a ring
            # event row the guess dropped onto the plane, so compare x
            assert np.linalg.norm(rec.point[:-1] - ev.point[:-1]) < 1e-4

    @pytest.mark.parametrize("seed", range(0, 20, 3))
    def test_warm_matches_centralized_at_bregman_events(self, seed):
        # both modes carry the increments over from run to run, so their
        # events agree as the reset protocol's do
        sets = random_agent_sets(seed)
        dim = sets[0].dim
        plane, p0 = HorizontalHyperplane(-0.5), PointTime(np.zeros(dim), 30.0)
        central = solve_minmax(sets, plane, p0, CFG)
        ring = run_ring(sets, plane, p0, CFG)
        ring_events = [r for r in ring.trace if r.bregman_event]
        assert len(ring_events) == central.outer_iters
        for rec, ev in zip(central.trace, ring_events):
            assert ev.flag == rec.flag == 0
            assert np.linalg.norm(rec.point[:-1] - ev.point[:-1]) < 1e-4

    def test_ring_centralized_equivalence_random(self):
        cfg = ToleranceConfig()
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            cones = [
                SecondOrderCone(
                    vec(rng.uniform(-5, 5, size=1), float(rng.uniform(0, 0.5))),
                    float(rng.uniform(0.5, 3.0)),
                )
                for _ in range(rng.integers(2, 5))
            ]
            p0 = pt([0.0], 30.0)
            central = solve_minmax(cones, HorizontalHyperplane(-0.5), p0, cfg)
            ring = run_ring(cones, HorizontalHyperplane(-0.5), p0, cfg)
            assert np.linalg.norm(ring.x_star - central.x_star) <= 10 * cfg.outer_tol

    def test_cycle_cap_failure_carries_trace(self):
        cones = [SecondOrderCone(vec([x], 0.0), 1.0) for x in (-1.0, 2.0, 4.0)]
        cfg = ToleranceConfig(max_inner_cycles=3, exact_finish=False)
        # from below the cones the first inner run needs 4 cycles
        with pytest.raises(ConvergenceError) as exc:
            run_ring(cones, PLANE, pt([0.0], 0.0), cfg)
        assert len(exc.value.trace) == 9
        assert [r.cycle for r in list(exc.value.trace)[-3:]] == [3, 3, 3]

    def test_inner_cap_counts_cycles_since_the_last_event(self):
        cones = [SecondOrderCone(vec([x], 0.0), 1.0) for x in (-1.0, 2.0, 4.0)]
        p0 = pt([0.0], 9.0)
        sol = run_ring(cones, PLANE, p0, CFG)
        events = [r.cycle for r in sol.trace if r.bregman_event]
        gaps = np.diff([0] + events)
        # a cap equal to the longest stretch between events still converges
        cfg = ToleranceConfig(max_inner_cycles=int(gaps.max()))
        capped = run_ring(cones, PLANE, p0, cfg)
        assert capped.inner_cycles_total == sol.inner_cycles_total
        # one less trips in that stretch, after its cycles
        cfg = ToleranceConfig(max_inner_cycles=int(gaps.max()) - 1)
        with pytest.raises(ConvergenceError) as exc:
            run_ring(cones, PLANE, p0, cfg)
        stop = events[int(gaps.argmax())] - 1
        assert list(exc.value.trace)[-1].cycle == stop
        assert len(exc.value.trace) == 3 * stop

    def test_event_cap_failure_carries_trace(self):
        cones = [SecondOrderCone(vec([x], 0.0), 1.0) for x in (-1.0, 2.0, 4.0)]
        cfg = ToleranceConfig(max_outer_iters=2, exact_finish=False)
        with pytest.raises(ConvergenceError) as exc:
            run_ring(cones, PLANE, pt([0.0], 9.0), cfg)
        assert exc.value.iterations == 2
        assert sum(r.bregman_event for r in exc.value.trace) == 2
        assert list(exc.value.trace)[-1].bregman_event

    def test_no_point_built_per_message(self, monkeypatch):
        # the ring passes raw arrays, so the PointTimes built in a solve
        # must not grow with the number of agent visits
        rng = np.random.default_rng(3)
        cones = [SecondOrderCone(vec(rng.uniform(0, 10, 2), 0.0), 1.0) for _ in range(16)]
        p0 = pt([5.0, 5.0], 20.0)
        built = []
        init = PointTime.__post_init__

        def counting(self):
            built.append(1)
            init(self)

        monkeypatch.setattr(PointTime, "__post_init__", counting)
        cycles, points = [], []
        for err in (1e-3, 1e-7):
            before = len(built)
            sol = run_ring(cones, PLANE, p0, ToleranceConfig(err=err, exact_finish=False))
            cycles.append(sol.inner_cycles_total)
            points.append(len(built) - before)
        assert cycles[0] < cycles[1]
        assert points[0] == points[1]

    def test_no_agents_rejected(self):
        # one check, in the DykstraState that each entry point builds
        project = lambda sets, plane, p0, cfg: alternating.dykstra_project(sets, p0.to_array(), cfg)
        for solve in (run_ring, solve_minmax, project):
            with pytest.raises(ValueError, match="sets must be nonempty"):
                solve([], PLANE, pt([0.0], 0.0), CFG)

    def test_repeated_solves_are_identical(self):
        # the increments live inside a solve, so a second one on the same
        # sets starts afresh
        cones = [
            SecondOrderCone(vec([x], 0.0), 4.0)
            for x in (-3.542884, 3.001152, 6.924106, -18.0296)
        ]
        first = run_ring(cones, PLANE, pt([0.0], 80.0), CFG)
        again = run_ring(cones, PLANE, pt([0.0], 80.0), CFG)
        assert hexed(again) == hexed(first)

    @staticmethod
    def lens_sets():
        """Two 2-D cones cut by the plane t = 1."""
        return [
            SecondOrderCone(vec([0.0, 0.0], 0.0), 1.0),
            HorizontalHyperplane(1.0),
            SecondOrderCone(vec([1.5, 0.0], 0.0), 1.0),
        ]

    def test_plane_agent_in_a_2d_ring(self):
        # the lens the plane cuts from the cones is nearest (1, 1) at its
        # corner (0.75, sqrt(7) / 4), and every lens point is equally high
        sets = self.lens_sets()
        plane, p0 = PLANE, pt([1.0, 1.0], 5.0)
        corner = np.array([0.75, np.sqrt(7.0) / 4.0, 1.0])
        ring = run_ring(sets, plane, p0, CFG)
        central = solve_minmax(sets, plane, p0, CFG)
        for sol in (ring, central):
            assert np.linalg.norm(np.append(sol.x_star, sol.t_star) - corner) <= 10 * CFG.outer_tol


def full_ring(sets, plane, p0, cfg):
    """run_ring as the plain loop that calls agent_step at every visit,
    with increments of its own, under either cfg.warm_start.

    Under the paper's reset protocol each agent discards its own stale
    increment at its first visit after a cold event, the visit that
    carries flag 1. Returns the solution and how many such visits reset a
    nonzero increment. Assumes the solve converges within cfg's caps.
    """
    increments = [np.zeros(p0.x.size + 1) for _ in sets]
    guess, flag, drift, last_guess = p0.to_array(), 0, 0.0, None
    # the plane point the current inner run started from
    b_prev = guess
    trace, n_events, resets = [], 0, 0
    for cycle in itertools.count(1):
        for i, s in enumerate(sets):
            resets += i > 0 and flag == 1 and bool(increments[i].any())
            held = np.zeros_like(increments[i]) if flag == 1 else increments[i]
            guess, inc = agent_step(s, held, guess)
            drift += float(np.linalg.norm(inc - increments[i]))
            increments[i] = inc
            bregman = False
            if i == 0:
                a = guess
                e, plane_pt = coordinator_step(a, last_guess, drift, plane, cfg)
                drift, bregman = 0.0, plane_pt is not None
                if not bregman:
                    guess, last_guess, flag = a, a, 0
                elif cfg.warm_start:
                    guess, last_guess, flag = plane_pt + (a - b_prev), None, 0
                else:
                    guess, last_guess, flag = plane_pt, None, 1
            trace.append(
                TraceEvent(
                    cycle,
                    i + 1,
                    plane_pt if bregman else guess,
                    float(np.linalg.norm(inc)),
                    flag,
                    bregman,
                )
            )
            if not bregman:
                continue
            n_events += 1
            if n_events > 1 and float(np.linalg.norm(plane_pt - b_prev)) < cfg.outer_tol:
                sol = MinMaxSolution(
                    x_star=a[:-1].copy(),
                    t_star=float(a[-1]),
                    distance=float(np.linalg.norm(a - plane_pt)),
                    inner_cycles_total=cycle,
                    outer_iters=n_events,
                    trace=trace,
                    plane_grazed=(float(a[-1]) - plane.t_min) < cfg.outer_tol,
                )
                return sol, resets
            b_prev = plane_pt


def hexed(sol):
    """Every float of a solution and its trace as float.hex strings, with
    the counts, for a bit-for-bit comparison."""

    def h(a):
        return [float(c).hex() for c in np.ravel(a)]

    return (
        [
            (r.cycle, r.agent_id, h(r.point), h(r.increment_norm), r.flag, r.bregman_event)
            for r in sol.trace
        ],
        h(sol.x_star), h(sol.t_star), h(sol.distance),
        sol.inner_cycles_total, sol.outer_iters, sol.plane_grazed,
    )


def random_agent_sets(seed):
    """2-5 cones in 1-D (even seeds) or 2-D (odd seeds); seeds 1, 4, 7, ...
    add a Halfspace and seeds 2, 5, 8, ... a Ball, at a random place."""
    rng = np.random.default_rng(500 + seed)
    d = 1 + seed % 2
    sets = [
        SecondOrderCone(
            vec(rng.uniform(-5, 5, size=d), float(rng.uniform(0, 0.5))),
            float(rng.uniform(0.5, 3.0)),
        )
        for _ in range(rng.integers(2, 6))
    ]
    if seed % 3 == 1:
        # t >= a.x + b: a tilted floor that can cut off the cones' minimum
        a = rng.uniform(-0.4, 0.4, size=d)
        extra = Halfspace(np.append(a, -1.0), -float(rng.uniform(0.0, 2.0)))
    elif seed % 3 == 2:
        # centred strictly inside every cone, so the intersection is nonempty
        cx = np.mean([c.apex[:-1] for c in sets], axis=0)
        top = max(c.apex[-1] + c.slope * np.linalg.norm(cx - c.apex[:-1]) for c in sets)
        extra = Ball(np.append(cx, top + 2.0), float(rng.uniform(1.0, 3.0)))
    else:
        return sets
    sets.insert(int(rng.integers(0, len(sets) + 1)), extra)
    return sets


class TestSkippedVisits:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_per_visit_loop_bit_for_bit(self, seed, monkeypatch):
        sets = random_agent_sets(seed)
        dim = sets[0].dim
        plane, p0 = HorizontalHyperplane(-0.5), PointTime(np.zeros(dim), 30.0)
        ref, resets = full_ring(sets, plane, p0, PAPER_COLD)
        # a set that is not a cone is projected at every one of its visits
        calls = Counter()
        for cls in (Halfspace, Ball):
            def counting(self, v, project=cls.project):
                calls[id(self)] += 1
                return project(self, v)

            monkeypatch.setattr(cls, "project", counting)
        sol = run_ring(sets, plane, p0, PAPER_COLD)
        assert hexed(sol) == hexed(ref)
        for i, s in enumerate(sets):
            if not isinstance(s, SecondOrderCone):
                visits = sum(r.agent_id == i + 1 for r in sol.trace)
                assert calls[id(s)] == visits
        # the flag-1 reset of a nonzero increment is a real change, which
        # every case takes
        assert resets > 0

    @pytest.mark.parametrize(
        "seed, cfg",
        [pytest.param(seed, PAPER, id=str(seed)) for seed in range(20)]
        # err above outer_tol: the inner runs stop early and the outer steps
        # are many, so a guess agent 1 kept across a plane drop would change
        # its stop tests and the run
        + [pytest.param(seed, PAPER_LOOSE_INNER, id=f"loose-inner-{seed}") for seed in range(20)],
    )
    def test_warm_matches_the_per_visit_loop_bit_for_bit(self, seed, cfg):
        sets = random_agent_sets(seed)
        dim = sets[0].dim
        plane, p0 = HorizontalHyperplane(-0.5), PointTime(np.zeros(dim), 30.0)
        ref, resets = full_ring(sets, plane, p0, cfg)
        sol = run_ring(sets, plane, p0, cfg)
        assert hexed(sol) == hexed(ref)
        # no increment is ever reset, and every event row holds the plane
        # point that agent 1 dropped
        assert resets == 0 and all(r.flag == 0 for r in sol.trace)
        events = [r for r in sol.trace if r.bregman_event]
        assert len(events) == sol.outer_iters >= 2
        assert all(r.point[-1] == plane.t_min for r in events)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, "central"])
    def test_cold_reset_skips_the_cones_that_hold_the_guess(self, seed, monkeypatch):
        # a cold event zeroes every increment and the skip flags with them,
        # so in the cycle after it a cone that holds the guess is skipped as
        # any trivial visit is (seeds 1 and 2 have such a visit). The check
        # sits on the step of the shared pass, which takes agents 2..N on
        # the ring (agent 1 takes its turn through ring.agent_step) and every
        # set in dykstra_project, here from zero increments at each cold
        # restart of solve_minmax
        rng = np.random.default_rng(0 if seed == "central" else seed)
        cones = [SecondOrderCone(vec(rng.uniform(0, 10, 2), 0.0), 1.0) for _ in range(16)]
        wasted = []
        step = alternating.dykstra_step

        def checking(s, increment, guess):
            margin = 1e-9 * (1.0 + abs(guess[-1]))
            if plus_zero(increment) and s.violation(guess) < -margin:
                wasted.append(s)
            return step(s, increment, guess)

        monkeypatch.setattr(alternating, "dykstra_step", checking)
        solve = solve_minmax if seed == "central" else run_ring
        sol = solve(cones, PLANE, pt([5.0, 5.0], 20.0), COLD)
        assert sol.outer_iters >= 2 and not wasted

    def test_skips_projections_but_keeps_every_row(self, monkeypatch):
        rng = np.random.default_rng(3)
        cones = [SecondOrderCone(vec(rng.uniform(0, 10, 2), 0.0), 1.0) for _ in range(16)]
        calls = []
        project = SecondOrderCone.project

        def counting(self, v):
            calls.append(1)
            return project(self, v)

        monkeypatch.setattr(SecondOrderCone, "project", counting)
        sol = run_ring(cones, PLANE, pt([5.0, 5.0], 20.0), CFG)
        assert len(calls) < len(sol.trace)
        ids = {}
        for row in sol.trace:
            ids.setdefault(row.cycle, []).append(row.agent_id)
        last = sol.inner_cycles_total
        assert sorted(ids) == list(range(1, last + 1))
        for cycle, visited in ids.items():
            assert visited == ([1] if cycle == last else list(range(1, 17)))


def assert_reads_as_its_rows(trace):
    """len of a Trace counts the rows its iteration gives, and its runs
    expand to those rows, down to the point arrays themselves."""

    def same(a, b):
        return all(
            x is y or (x == y and type(x) is type(y)) for x, y in zip(a, b)
        ) and len(a) == len(b)

    assert isinstance(trace, Trace)
    rows = list(trace)
    assert len(trace) == len(rows) > 0
    # rows read back as the plain loop wrote them
    assert all(type(r) is TraceEvent for r in rows)
    expanded = [
        (cycle, agent_id, point, increment_norm, flag, bregman_event)
        for cycle, first_id, end_id, point, increment_norm, flag, bregman_event in trace.runs()
        for agent_id in range(first_id, end_id)
    ]
    assert len(expanded) == len(rows)
    assert all(same(a, b) and a[2] is b.point for a, b in zip(expanded, rows))


class TestRingTrace:
    @pytest.mark.parametrize("seed", range(0, 20, 4))
    def test_reads_as_a_list(self, seed):
        sets = random_agent_sets(seed)
        plane, p0 = HorizontalHyperplane(-0.5), PointTime(np.zeros(sets[0].dim), 30.0)
        sol = run_ring(sets, plane, p0, PAPER_COLD)
        assert_reads_as_its_rows(sol.trace)
        # and it holds the rows of the per-visit loop
        ref, _ = full_ring(sets, plane, p0, PAPER_COLD)
        assert [r.agent_id for r in sol.trace] == [r.agent_id for r in ref.trace]

    def test_skipped_runs_are_not_rows(self):
        rng = np.random.default_rng(3)
        cones = [SecondOrderCone(vec(rng.uniform(0, 10, 2), 0.0), 1.0) for _ in range(16)]
        sol = run_ring(cones, PLANE, pt([5.0, 5.0], 20.0), PAPER)
        assert_reads_as_its_rows(sol.trace)
        # 5009 rows in 2368 runs
        assert len(list(sol.trace.runs())) < len(sol.trace) / 2

    @pytest.mark.parametrize(
        "caps",
        [
            {"max_inner_cycles": 3},
            {"max_inner_cycles": 15, "warm_start": False},
            {"max_outer_iters": 2},
        ],
    )
    def test_partial_trace_after_a_cap_reads_by_index(self, caps):
        # the 16-cone ring has 15 cycles between two of its Bregman events
        # under the reset protocol; its warm runs are shorter
        rng = np.random.default_rng(3)
        cones = [SecondOrderCone(vec(rng.uniform(0, 10, 2), 0.0), 1.0) for _ in range(16)]
        with pytest.raises(ConvergenceError) as exc:
            run_ring(cones, PLANE, pt([5.0, 5.0], 20.0), ToleranceConfig(**caps, exact_finish=False))
        assert_reads_as_its_rows(exc.value.trace)

    def test_centralized_trace_reads_as_a_list(self):
        sets = random_agent_sets(4)
        dim = sets[0].dim
        plane, p0 = HorizontalHyperplane(-0.5), PointTime(np.zeros(dim), 30.0)
        sol = solve_minmax(sets, plane, p0, CFG)
        assert len(sol.trace) == sol.outer_iters
        assert_reads_as_its_rows(sol.trace)

    def test_partial_centralized_trace_reads_by_index(self):
        cones = [SecondOrderCone(vec([-1.0], 0.0), 1.0), SecondOrderCone(vec([2.0], 0.0), 2.0)]
        with pytest.raises(ConvergenceError) as exc:
            solve_minmax(cones, PLANE, pt([0.0], 6.0), ToleranceConfig(max_outer_iters=2, exact_finish=False))
        assert len(exc.value.trace) == 2
        assert_reads_as_its_rows(exc.value.trace)

    def test_runs_expand_to_rows(self):
        trace = Trace()
        guess = vec([1.0], 2.0)
        trace._add(1, 1, 2, guess, 0.5, 0, False)
        trace._add(1, 2, 5, guess, 0.0, 0, False)
        assert len(trace) == 4
        assert list(trace)[3].agent_id == 4
        trace._add(2, 2, 4, guess, 0.0, 1, False)
        trace._add(2, 4, 5, guess, 0.0, 1, False)
        assert len(trace) == 7
        assert list(trace.runs()) == [
            (1, 1, 2, guess, 0.5, 0, False),
            (1, 2, 5, guess, 0.0, 0, False),
            (2, 2, 4, guess, 0.0, 1, False),
            (2, 4, 5, guess, 0.0, 1, False),
        ]
        assert [(r.cycle, r.agent_id) for r in trace] == [
            (1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)
        ]
        assert list(trace)[-2] == (2, 3, guess, 0.0, 1, False)
        assert_reads_as_its_rows(trace)
