import numpy as np
import pytest

from minmaxap import (
    AgentNode,
    ConvergenceError,
    HorizontalHyperplane,
    PointTime,
    RingMessage,
    SecondOrderCone,
    ToleranceConfig,
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
