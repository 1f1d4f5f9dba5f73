import itertools
from collections import Counter

import numpy as np
import pytest

from minmaxap import (
    AgentNode,
    Ball,
    ConvergenceError,
    Halfspace,
    HorizontalHyperplane,
    MinMaxSolution,
    PointTime,
    RingMessage,
    SecondOrderCone,
    ToleranceConfig,
    TraceEvent,
    agent_step,
    coordinator_step,
    run_ring,
    solve_minmax,
)


def pt(x, t):
    return PointTime(np.atleast_1d(np.asarray(x, float)), t)


def vec(x, t):
    """A raw (x..., t) point, as the ring passes it."""
    return np.append(np.asarray(x, float), t)


class TestRingMessage:
    def test_flag_domain(self):
        with pytest.raises(ValueError):
            RingMessage(vec([0.0], 0.0), 2)


class TestAgentStep:
    def test_plane_projection_updates_increment(self):
        node = AgentNode(2, HorizontalHyperplane(0.0))
        node, out = agent_step(node, RingMessage(vec([2.0], 5.0), 0))
        assert np.allclose(out.guess, [2.0, 0.0])
        assert np.allclose(node.increment, [0.0, -5.0])

    def test_flag_one_discards_stale_increment(self):
        node = AgentNode(2, HorizontalHyperplane(0.0))
        node.increment = np.array([7.0, 7.0])  # leftover from the old run
        node, out = agent_step(node, RingMessage(vec([2.0], 5.0), 1))
        # the stale increment must not shift the guess, and the new
        # increment is the restarted run's first Dykstra update
        assert np.allclose(out.guess, [2.0, 0.0])
        assert np.allclose(node.increment, [0.0, -5.0])

    def test_cone_step_derived_from_projection(self):
        node = AgentNode(3, SecondOrderCone(pt([0.0], 0.0), 1.0))
        node, out = agent_step(node, RingMessage(vec([2.0], 0.0), 0))
        assert np.allclose(out.guess, [1.0, 1.0])
        assert np.allclose(node.increment, [-1.0, 1.0])


class TestCoordinatorStep:
    def test_stationary_triggers_bregman(self):
        cfg = ToleranceConfig(err=1e-7)
        node = AgentNode(1, HorizontalHyperplane(2.0))
        node.last_guess = vec([4.0], 2.0)
        node, out, ev = coordinator_step(
            node, RingMessage(vec([4.0], 2.0), 0), HorizontalHyperplane(0.0), cfg
        )
        assert ev.bregman and ev.error_norm == 0.0
        assert out.flag == 1
        assert np.allclose(out.guess, [4.0, 0.0])

    def test_moving_guess_keeps_flag_zero(self):
        cfg = ToleranceConfig(err=1e-7)
        node = AgentNode(1, HorizontalHyperplane(2.0))
        node.last_guess = vec([5.0], 2.0)
        node, out, ev = coordinator_step(
            node, RingMessage(vec([4.0], 2.0), 0), HorizontalHyperplane(0.0), cfg
        )
        assert not ev.bregman and ev.error_norm == pytest.approx(1.0)
        assert out.flag == 0

    def test_requires_agent_one(self):
        with pytest.raises(ValueError):
            coordinator_step(
                AgentNode(2, HorizontalHyperplane(0.0)),
                RingMessage(vec([0.0], 0.0), 0),
                HorizontalHyperplane(0.0),
                ToleranceConfig(),
            )


def make_ring(cones):
    return [AgentNode(i + 1, c) for i, c in enumerate(cones)]


CFG = ToleranceConfig()
PLANE = HorizontalHyperplane(0.0)


class TestRunRing:
    def test_single_agent_minimum_at_apex(self):
        agents = make_ring([SecondOrderCone(pt([3.0], 0.0), 1.0)])
        sol = run_ring(agents, HorizontalHyperplane(-1.0), pt([0.0], 5.0), CFG)
        assert sol.x_star[0] == pytest.approx(3.0, abs=1e-5)

    def test_two_symmetric_cones(self):
        agents = make_ring(
            [SecondOrderCone(pt([-1.0], 0.0), 1.0), SecondOrderCone(pt([1.0], 0.0), 1.0)]
        )
        sol = run_ring(agents, PLANE, pt([0.4], 3.0), CFG)
        assert sol.x_star[0] == pytest.approx(0.0, abs=1e-5)
        assert sol.t_star == pytest.approx(1.0, abs=1e-5)

    def test_experiment_one(self):
        cones = [
            SecondOrderCone(pt([x], 0.0), 4.0)
            for x in (-3.542884, 3.001152, 6.924106, -18.0296)
        ]
        sol = run_ring(make_ring(cones), PLANE, pt([0.0], 80.0), CFG)
        assert sol.x_star[0] == pytest.approx(-5.5527, abs=1e-3)
        assert np.sqrt(sol.t_star) == pytest.approx(7.0645, abs=1e-3)

    def test_message_conservation(self):
        cones = [
            SecondOrderCone(pt([-1.0], 0.0), 1.0),
            SecondOrderCone(pt([1.0], 0.0), 1.0),
            SecondOrderCone(pt([0.5], 0.0), 2.0),
        ]
        sol = run_ring(make_ring(cones), PLANE, pt([0.2], 4.0), CFG)
        counts = sol.message_counts
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
            SecondOrderCone(pt([-1.0], 0.0), 1.0),
            SecondOrderCone(pt([1.0], 0.0), 1.0),
        ]
        agents = make_ring(cones)
        sol = run_ring(agents, PLANE, pt([0.3], 4.0), CFG)
        # on a flag-1 step the stale increment is discarded, so the fresh
        # increment equals emitted guess minus received guess
        rows = sol.trace
        seen = 0
        for prev, row in zip(rows, rows[1:]):
            if row.flag == 1 and row.agent_id != 1:
                step = np.linalg.norm(row.point - prev.point)
                assert row.increment_norm == pytest.approx(step, abs=1e-12)
                seen += 1
        assert seen >= 1

    def test_matches_centralized_at_bregman_events(self):
        cones = [
            SecondOrderCone(pt([x], 0.0), 4.0)
            for x in (-3.542884, 3.001152, 6.924106, -18.0296)
        ]
        p0 = pt([0.0], 80.0)
        cfg = ToleranceConfig()
        central = solve_minmax(cones, HorizontalHyperplane(0.0), p0, cfg)
        ring = run_ring(make_ring(cones), PLANE, p0, cfg)
        ring_events = [r for r in ring.trace if r.bregman_event]
        assert len(ring_events) == central.outer_iters
        for rec, ev in zip(central.trace, ring_events):
            # same inner stop threshold, slightly different stop statistic:
            # events agree to well below the outer tolerance scale; a
            # centralized row holds the intersection-side point and a ring
            # event row the guess dropped onto the plane, so compare x
            assert np.linalg.norm(rec.point[:-1] - ev.point[:-1]) < 1e-4

    def test_ring_centralized_equivalence_random(self):
        cfg = ToleranceConfig()
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            cones = [
                SecondOrderCone(
                    pt(rng.uniform(-5, 5, size=1), float(rng.uniform(0, 0.5))),
                    float(rng.uniform(0.5, 3.0)),
                )
                for _ in range(rng.integers(2, 5))
            ]
            p0 = pt([0.0], 30.0)
            central = solve_minmax(cones, HorizontalHyperplane(-0.5), p0, cfg)
            ring = run_ring(
                [AgentNode(i + 1, c) for i, c in enumerate(cones)],
                HorizontalHyperplane(-0.5),
                p0,
                cfg,
            )
            assert np.linalg.norm(ring.x_star - central.x_star) <= 10 * cfg.outer_tol

    def test_cycle_cap_failure_carries_trace(self):
        cones = [SecondOrderCone(pt([x], 0.0), 1.0) for x in (-1.0, 2.0, 4.0)]
        cfg = ToleranceConfig(max_inner_cycles=3)
        # from below the cones the first inner run needs 4 cycles
        with pytest.raises(ConvergenceError) as exc:
            run_ring(make_ring(cones), PLANE, pt([0.0], 0.0), cfg)
        assert len(exc.value.trace) == 9
        assert [r.cycle for r in exc.value.trace[-3:]] == [3, 3, 3]

    def test_inner_cap_counts_cycles_since_the_last_event(self):
        cones = [SecondOrderCone(pt([x], 0.0), 1.0) for x in (-1.0, 2.0, 4.0)]
        p0 = pt([0.0], 9.0)
        sol = run_ring(make_ring(cones), PLANE, p0, CFG)
        events = [r.cycle for r in sol.trace if r.bregman_event]
        gaps = np.diff([0] + events)
        # a cap equal to the longest stretch between events still converges
        cfg = ToleranceConfig(max_inner_cycles=int(gaps.max()))
        capped = run_ring(make_ring(cones), PLANE, p0, cfg)
        assert capped.inner_cycles_total == sol.inner_cycles_total
        # one less trips in that stretch, after its cycles
        cfg = ToleranceConfig(max_inner_cycles=int(gaps.max()) - 1)
        with pytest.raises(ConvergenceError) as exc:
            run_ring(make_ring(cones), PLANE, p0, cfg)
        stop = events[int(gaps.argmax())] - 1
        assert exc.value.trace[-1].cycle == stop
        assert len(exc.value.trace) == 3 * stop

    def test_event_cap_failure_carries_trace(self):
        cones = [SecondOrderCone(pt([x], 0.0), 1.0) for x in (-1.0, 2.0, 4.0)]
        cfg = ToleranceConfig(max_outer_iters=2)
        with pytest.raises(ConvergenceError) as exc:
            run_ring(make_ring(cones), PLANE, pt([0.0], 9.0), cfg)
        assert exc.value.iterations == 2
        assert sum(r.bregman_event for r in exc.value.trace) == 2
        assert exc.value.trace[-1].bregman_event

    def test_no_point_built_per_message(self, monkeypatch):
        # the ring passes raw arrays, so the PointTimes built in a solve
        # must not grow with the number of agent visits
        rng = np.random.default_rng(3)
        cones = [SecondOrderCone(pt(rng.uniform(0, 10, 2), 0.0), 1.0) for _ in range(16)]
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
            sol = run_ring(make_ring(cones), PLANE, p0, ToleranceConfig(err=err))
            cycles.append(sol.inner_cycles_total)
            points.append(len(built) - before)
        assert cycles[0] < cycles[1]
        assert points[0] == points[1]

    def test_agents_must_be_ordered(self):
        nodes = [AgentNode(2, HorizontalHyperplane(0.0))]
        with pytest.raises(ValueError):
            run_ring(nodes, PLANE, pt([0.0], 0.0), CFG)


def full_ring(agents, plane, p0, cfg):
    """run_ring as the plain loop that calls agent_step at every visit.

    Returns the solution and how many flag-1 visits reset a nonzero
    increment. Assumes the solve converges within cfg's caps.
    """
    msg = RingMessage(p0.to_array(), 0)
    trace, prev_plane, n_events, resets = [], None, 0, 0
    for cycle in itertools.count(1):
        node1, msg, event = coordinator_step(agents[0], msg, plane, cfg)
        trace.append(
            TraceEvent(
                cycle, 1, msg.guess, float(np.linalg.norm(node1.increment)),
                msg.flag, event.bregman,
            )
        )
        if event.bregman:
            n_events += 1
            a, plane_pt = event.pre_plane, msg.guess
            if (
                prev_plane is not None
                and float(np.linalg.norm(plane_pt - prev_plane)) < cfg.outer_tol
            ):
                sol = MinMaxSolution(
                    x_star=a[:-1].copy(),
                    t_star=float(a[-1]),
                    distance=float(np.linalg.norm(a - plane_pt)),
                    inner_cycles_total=cycle,
                    outer_iters=n_events,
                    trace=trace,
                    plane_grazed=(float(a[-1]) - plane.t_min) < cfg.outer_tol,
                    message_counts={
                        n.id: cycle if n.id == 1 else cycle - 1 for n in agents
                    },
                )
                return sol, resets
            prev_plane = plane_pt
        for node in agents[1:]:
            resets += msg.flag == 1 and bool(node.increment.any())
            node, msg = agent_step(node, msg)
            trace.append(
                TraceEvent(
                    cycle, node.id, msg.guess, float(np.linalg.norm(node.increment)),
                    msg.flag, False,
                )
            )


def hexed(sol, agents):
    """Every float of a solution, its trace and the final increments as
    float.hex strings, with the counts, for a bit-for-bit comparison."""

    def h(a):
        return [float(c).hex() for c in np.ravel(a)]

    return (
        [
            (r.cycle, r.agent_id, h(r.point), h(r.increment_norm), r.flag, r.bregman_event)
            for r in sol.trace
        ],
        h(sol.x_star), h(sol.t_star), h(sol.distance),
        sol.inner_cycles_total, sol.outer_iters, sol.plane_grazed,
        sol.message_counts,
        [h(a.increment) for a in agents],
    )


def random_agent_sets(seed):
    """2-5 cones in 1-D (even seeds) or 2-D (odd seeds); seeds 1, 4, 7, ...
    add a Halfspace and seeds 2, 5, 8, ... a Ball, at a random place."""
    rng = np.random.default_rng(500 + seed)
    d = 1 + seed % 2
    sets = [
        SecondOrderCone(
            pt(rng.uniform(-5, 5, size=d), float(rng.uniform(0, 0.5))),
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
        cx = np.mean([c.apex.x for c in sets], axis=0)
        top = max(c.apex.t + c.slope * np.linalg.norm(cx - c.apex.x) for c in sets)
        extra = Ball(np.append(cx, top + 2.0), float(rng.uniform(1.0, 3.0)))
    else:
        return sets
    sets.insert(int(rng.integers(0, len(sets) + 1)), extra)
    return sets


class TestSkippedVisits:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_per_visit_loop_bit_for_bit(self, seed, monkeypatch):
        sets = random_agent_sets(seed)
        plane, p0 = HorizontalHyperplane(-0.5), PointTime(np.zeros(sets[0].dim), 30.0)
        ref_agents = make_ring(sets)
        ref, resets = full_ring(ref_agents, plane, p0, CFG)
        # a set that is not a cone is projected at every one of its visits
        calls = Counter()
        for cls in (Halfspace, Ball):
            def counting(self, v, project=cls.project):
                calls[id(self)] += 1
                return project(self, v)

            monkeypatch.setattr(cls, "project", counting)
        agents = make_ring(sets)
        sol = run_ring(agents, plane, p0, CFG)
        assert hexed(sol, agents) == hexed(ref, ref_agents)
        for a in agents:
            if not isinstance(a.own_set, SecondOrderCone):
                visits = sum(r.agent_id == a.id for r in sol.trace)
                assert calls[id(a.own_set)] == visits
        # the flag-1 reset of a nonzero increment is a real change, which
        # every case takes
        assert resets > 0

    def test_skips_projections_but_keeps_every_row(self, monkeypatch):
        rng = np.random.default_rng(3)
        cones = [SecondOrderCone(pt(rng.uniform(0, 10, 2), 0.0), 1.0) for _ in range(16)]
        calls = []
        project = SecondOrderCone.project

        def counting(self, v):
            calls.append(1)
            return project(self, v)

        monkeypatch.setattr(SecondOrderCone, "project", counting)
        sol = run_ring(make_ring(cones), PLANE, pt([5.0, 5.0], 20.0), CFG)
        assert len(calls) < len(sol.trace)
        ids = {}
        for row in sol.trace:
            ids.setdefault(row.cycle, []).append(row.agent_id)
        last = sol.inner_cycles_total
        assert sorted(ids) == list(range(1, last + 1))
        for cycle, visited in ids.items():
            assert visited == ([1] if cycle == last else list(range(1, 17)))
