import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import minmaxap
from minmaxap import (
    ConvergenceError,
    SecondOrderCone,
    ToleranceConfig,
    dykstra_project,
)
from minmaxap.cli import (
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    EXIT_VERIFY,
    ConfigError,
    ExperimentConfig,
    _write_trace,
    load_config,
    main,
)

EXP1_POSITIONS = [-3.542884, 3.001152, 6.924106, -18.0296]
EXP1_AGENTS = [{"model": "second_order", "x0": [x]} for x in EXP1_POSITIONS]
NAN = float("nan")


def write_config(path, **overrides):
    cfg = {
        "agents": [{"model": "second_order", "x0": [x]} for x in EXP1_POSITIONS],
        "solver": {"err": 1e-7, "outer_tol": 1e-6, "t_min": 0.0},
        "mode": "centralized",
        "outputs": {},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


class TestLoadConfig:
    def test_valid(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        assert len(cfg.agents) == 4
        assert cfg.mode == "centralized"
        assert cfg.solver.err == 1e-7

    def test_missing_agents(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"solver": {}}))
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_bad_mode_collected(self, tmp_path):
        path = write_config(tmp_path / "c.json", mode="broadcast")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert any("mode" in p for p in exc.value.problems)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "missing.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_bad_solver_and_agent_reported_together(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(
            json.dumps(
                {
                    "agents": [{"model": "second_order"}],  # missing x0
                    "solver": {"err": -1.0},
                }
            )
        )
        with pytest.raises(ConfigError) as exc:
            load_config(str(p))
        assert len(exc.value.problems) >= 2

    @pytest.mark.parametrize(
        "solver",
        [{"max_outer_iters": 1.5}, {"err": float("nan")}, {"err": True, "outer_tol": True}],
        ids=["fractional-cap", "nan-tolerance", "bool-tolerances"],
    )
    def test_bad_solver_value_rejected(self, tmp_path, capsys, solver):
        path = write_config(tmp_path / "c.json", solver=solver)
        assert main(["solve", "--config", path]) == EXIT_VALIDATION
        assert "config error: solver" in capsys.readouterr().err

    def test_nonzero_t_min_rejected(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "c.json", solver={"err": 1e-7, "outer_tol": 1e-6, "t_min": 5.0}
        )
        assert main(["solve", "--config", path]) == EXIT_VALIDATION
        assert "t_min" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw",
        [
            [{"agents": EXP1_AGENTS}],
            {"agents": [3.0]},
            {"agents": EXP1_AGENTS, "solver": [1]},
            {"agents": [{"x0": [NAN]}]},
            {"agents": [{"model": "first_order", "x0": []}]},
            {"agents": [{"model": "first_order", "x0": [[1.0, 2.0]]}]},
            {"agents": [{"x0": [0.0], "u_max": NAN}]},
            {"agents": [{"model": "first_order", "x0": x} for x in ([0.0], [1.0, 2.0])]},
            {"agents": EXP1_AGENTS, "outputs": {"sample_dt": True}},
            {"agents": EXP1_AGENTS, "outputs": {"sample_dt": math.inf}},
            {"agents": [{"x0": [0.0]}, {"x0": [1.0], "v0": True, "u_max": True}]},
            {"agents": EXP1_AGENTS, "outputs": {"solution": True}},
            {"agents": EXP1_AGENTS, "outputs": {"trace": 2}},
            {"agents": EXP1_AGENTS, "outputs": {"trace": ["a"]}},
            {"agents": EXP1_AGENTS, "solver": {"t_min": False}},
            {"agents": [
                {"model": "first_order", "x0": [0.0]},
                {"model": "second_order", "x0": [3.0]},
            ]},
        ],
        ids=[
            "top-level-array",
            "agent-not-object",
            "solver-not-object",
            "x0-nan",
            "x0-empty",
            "x0-nested",
            "u_max-nan",
            "x0-lengths-differ",
            "sample_dt-bool",
            "sample_dt-inf",
            "v0-u_max-bool",
            "solution-path-bool",
            "trace-path-int",
            "trace-path-list",
            "t_min-bool",
            "models-differ",
        ],
    )
    def test_malformed_config_is_a_config_error(self, tmp_path, capsys, raw):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(path)]) == EXIT_VALIDATION
        assert "config error: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "agents, problems",
        [
            ([{"model": "first_order", "x0": x} for x in ([0.0], [1.0, 2.0])],
             ["agents: every x0 must have the same length"]),
            ([{"model": "first_order", "x0": [0.0]}, {"model": "second_order", "x0": [3.0]}],
             ["agents: every agent must use the same model"]),
            # the agents that parse are checked as a list too
            ([{"model": "first_order", "x0": [0.0]}, {"x0": ["3.0"]}, {"x0": [3.0]}],
             ["agents[1]: x0 must be a number, not str",
              "agents: every agent must use the same model"]),
            ([{"x0": ["1.5"]}], ["agents[0]: x0 must be a number, not str"]),
            ([{"x0": [True]}], ["agents[0]: x0 must be a number, not bool"]),
            ([{"x0": 1.5, "u_max": "2"}], ["agents[0]: u_max must be a number, not str"]),
            ([{"x0": [1.5], "v0": "1"}], ["agents[0]: v0 must be a number, not str"]),
        ],
        ids=["x0-lengths-differ", "models-differ", "models-differ-among-parsed",
             "x0-string", "x0-bool", "u_max-string", "v0-string"],
    )
    def test_agent_problems_reported(self, tmp_path, capsys, agents, problems):
        path = write_config(tmp_path / "c.json", agents=agents)
        assert main(["solve", "--config", path]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [f"config error: {p}" for p in problems]


    @pytest.mark.parametrize(
        "agents",
        [
            [{"model": "first_order", "x0": [0.0, 1.0], "u_max": 1e-320},
             {"model": "first_order", "x0": [2.0, -1.0]}],
            [{"model": "second_order", "x0": [0.0], "u_max": 1e-308},
             {"model": "second_order", "x0": [3.0]}],
        ],
        ids=["first-order", "second-order-at-rest"],
    )
    def test_overflowing_slope_is_a_config_error(self, tmp_path, capsys, agents):
        # each u_max is a finite positive number, but the cone slope
        # 1/u_max or 4/u_max is not
        path = write_config(tmp_path / "c.json", agents=agents)
        assert main(["solve", "--config", path]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == ["config error: agents: slope must be finite"]

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"solver": {"max_outer_iter": 1}}, "solver.max_outer_iter"),
            ({"solver": {"warm_start": True}}, "solver.warm_start"),
            ({"outputs": {"solutions": "s.json"}}, "outputs.solutions"),
            ({"agents": [{"x0": [0.0], "umax": 2.0}]}, "agents[0].umax"),
            ({"modes": "ring"}, "modes"),
            ({"warm_start": False}, "warm_start"),
        ],
        ids=["solver-typo", "solver-warm_start", "outputs-typo", "agent-typo", "top-typo", "top-warm_start"],
    )
    def test_unknown_key_is_a_config_error(self, tmp_path, capsys, overrides, key):
        # a misspelt key must not leave its default in force: with
        # "max_outer_iter": 1 the solve took 2 outer steps and exited 0
        path = write_config(tmp_path / "c.json", **overrides)
        assert main(["solve", "--config", path]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [f"config error: {key}: unknown key"]

    def test_every_unknown_key_reported(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            agents=[{"x0": [0.0], "vo": 1.0}, {"x0": [1.0], "u_max": 2.0}],
            solver={"err": 1e-7, "tol": 1e-6},
            extra=1,
        )
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert sorted(exc.value.problems) == [
            "agents[0].vo: unknown key",
            "extra: unknown key",
            "solver.tol: unknown key",
        ]

    def test_cli_keeps_the_reset_protocol(self, tmp_path):
        assert load_config(write_config(tmp_path / "c.json")).solver.warm_start is False


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(minmaxap.__file__)))
    code = "import sys, minmaxap.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out.strip() == "False"


class TestSolve:
    def test_experiment_one_solution_file(self, tmp_path):
        sol = tmp_path / "solution.json"
        path = write_config(tmp_path / "c.json", outputs={"solution": str(sol)})
        assert main(["solve", "--config", path, "--quiet"]) == EXIT_OK
        record = json.loads(sol.read_text())
        assert record["x_consensus"][0] == pytest.approx(-5.5527, abs=1e-3)
        assert record["t_consensus"] == pytest.approx(7.0645, abs=1e-3)
        assert record["mode"] == "centralized"
        assert not record["experimental"]

    def test_ring_mode_flag_overrides_config(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json")
        assert main(["solve", "--config", path, "--mode", "ring"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["mode"] == "ring"
        assert record["x_consensus"][0] == pytest.approx(-5.5527, abs=1e-3)

    def test_single_agent(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "c.json",
            agents=[{"model": "second_order", "x0": [2.5]}],
        )
        assert main(["solve", "--config", path]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["x_consensus"][0] == pytest.approx(2.5, abs=1e-4)
        assert record["t_consensus"] == pytest.approx(0.0, abs=1e-3)

    def test_trace_file_schema(self, tmp_path):
        trace = tmp_path / "trace.csv"
        path = write_config(
            tmp_path / "c.json", mode="ring", outputs={"trace": str(trace)}
        )
        assert main(["solve", "--config", path, "--quiet"]) == EXIT_OK
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "cycle", "agent_id", "x", "height", "increment_norm", "flag", "bregman_event",
        ]
        assert len(rows) > 1
        assert sum(int(r[6]) for r in rows[1:]) >= 1  # at least one plane drop

    def test_capped_solve_writes_partial_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        path = write_config(
            tmp_path / "c.json",
            solver={"err": 1e-7, "outer_tol": 1e-6, "max_outer_iters": 1},
            outputs={"trace": str(trace)},
        )
        assert main(["solve", "--config", path, "--quiet"]) == EXIT_SOLVER
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "cycle"
        assert len(rows) >= 2

    def test_capped_dykstra_trace_writes_only_the_header(self, tmp_path):
        cones = [SecondOrderCone(np.array([x, 0.0]), 1.0) for x in (-1.0, 2.0, 4.0)]
        with pytest.raises(ConvergenceError) as exc:
            dykstra_project(cones, np.zeros(2), ToleranceConfig(max_inner_cycles=1))
        assert len(exc.value.trace) == 0
        trace = tmp_path / "trace.csv"
        _write_trace(ExperimentConfig([], None, "centralized", trace_path=str(trace)), exc.value.trace)
        assert trace.read_text().splitlines() == [
            "cycle,agent_id,x,height,increment_norm,flag,bregman_event"
        ]

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_capped_simulate_and_verify_write_nothing(self, tmp_path, capsys, command):
        outputs = {f: str(tmp_path / f"{f}.out") for f in ("solution", "trace", "trajectory")}
        path = write_config(
            tmp_path / "c.json",
            solver={"err": 1e-7, "outer_tol": 1e-6, "max_outer_iters": 1},
            outputs=outputs,
        )
        assert main([command, "--config", path, "--quiet"]) == EXIT_SOLVER
        assert "solver failure: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize(
        "cap", [{"max_outer_iters": 1}, {"max_inner_cycles": 2}], ids=["outer", "inner"]
    )
    def test_ring_mode_honours_caps(self, tmp_path, cap):
        trace = tmp_path / "trace.csv"
        path = write_config(
            tmp_path / "c.json",
            mode="ring",
            solver={"err": 1e-7, "outer_tol": 1e-6, **cap},
            outputs={"trace": str(trace)},
        )
        assert main(["solve", "--config", path, "--quiet"]) == EXIT_SOLVER
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "cycle"
        if "max_inner_cycles" in cap:
            # two whole cycles of the four agents after the last plane drop
            last = max((int(r[0]) for r in rows[1:] if r[6] == "1"), default=0)
            assert [int(r[0]) for r in rows[-8:]] == [last + 1] * 4 + [last + 2] * 4
        else:
            # stops at the first plane drop, with the coordinator's row
            assert sum(int(r[6]) for r in rows[1:]) == 1
            assert rows[-1][1] == "1" and rows[-1][6] == "1"

    def test_validation_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", agents=[])
        assert main(["solve", "--config", path]) == EXIT_VALIDATION
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, cap",
        [
            ("solve", "solution", {}),
            ("solve", "trace", {}),
            ("solve", "trace", {"max_outer_iters": 1}),
            ("simulate", "trajectory", {}),
            ("simulate", "solution", {}),
        ],
        ids=["solve-solution", "solve-trace", "capped-solve-trace", "simulate-trajectory",
             "simulate-solution"],
    )
    def test_output_in_a_missing_directory_is_a_config_error(
        self, tmp_path, capsys, command, key, cap
    ):
        out = tmp_path / "missing" / "out"
        path = write_config(
            tmp_path / "c.json",
            solver={"err": 1e-7, "outer_tol": 1e-6, **cap},
            outputs={key: str(out)},
        )
        assert main([command, "--config", path, "--quiet"]) == EXIT_VALIDATION
        errors = [e for e in capsys.readouterr().err.splitlines() if e.startswith("config error")]
        assert len(errors) == 1 and errors[0].startswith("config error: cannot write output: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_determinism(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            sol = tmp_path / f"{name}.json"
            trc = tmp_path / f"{name}.csv"
            path = write_config(
                tmp_path / f"{name}_cfg.json",
                mode="ring",
                outputs={"solution": str(sol), "trace": str(trc)},
            )
            assert main(["solve", "--config", path, "--quiet"]) == EXIT_OK
            outs.append(sol.read_bytes() + trc.read_bytes())
        assert outs[0] == outs[1]

    def test_trace_written_by_run_matches_row_by_row(self, tmp_path):
        # a 64-agent ring skips most visits, so its runs are long; the
        # paper's stop alone keeps the solve long enough to show it
        points = np.random.default_rng(1).uniform(-10, 10, (64, 2))
        agents = [minmaxap.AgentDynamics(minmaxap.Model.FIRST_ORDER, p) for p in points]
        paper = minmaxap.ToleranceConfig(exact_finish=False)
        trace = minmaxap.solve_min_time_consensus(agents, paper, mode="ring").solver.trace
        assert len(list(trace.runs())) < len(trace) / 5
        by_run = tmp_path / "by_run.csv"
        cfg = ExperimentConfig(agents, minmaxap.ToleranceConfig(), "ring", trace_path=str(by_run))
        _write_trace(cfg, trace)
        by_row = tmp_path / "by_row.csv"
        with open(by_row, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["cycle", "agent_id", "x", "height", "increment_norm", "flag", "bregman_event"]
            )
            for row in list(trace):
                w.writerow(
                    [
                        row.cycle,
                        row.agent_id,
                        ";".join(f"{v:.9g}" for v in row.point[:-1]),
                        f"{row.point[-1]:.9g}",
                        f"{row.increment_norm:.9g}",
                        row.flag,
                        int(row.bregman_event),
                    ]
                )
        assert by_run.read_bytes() == by_row.read_bytes()


class TestSimulate:
    def test_trajectory_file(self, tmp_path):
        traj = tmp_path / "traj.csv"
        path = write_config(
            tmp_path / "c.json",
            outputs={"trajectory": str(traj), "sample_dt": 0.05},
        )
        assert main(["simulate", "--config", path, "--quiet"]) == EXIT_OK
        with open(traj, newline="") as fh:
            rows = list(csv.DictReader(fh))
        agents = {int(r["agent_id"]) for r in rows}
        assert agents == {1, 2, 3, 4}
        for i in agents:
            sub = [r for r in rows if int(r["agent_id"]) == i]
            # arrives at consensus with zero velocity
            assert float(sub[-1]["x"]) == pytest.approx(-5.5527, abs=2e-3)
            assert float(sub[-1]["v"]) == pytest.approx(0.0, abs=1e-5)
            assert float(sub[-1]["t"]) <= 7.0645 + 2e-3
            # bang-bang: control magnitude never exceeds the bound
            assert all(abs(float(r["u"])) <= 1.0 + 1e-9 for r in sub)

    def test_first_order_agents(self, tmp_path):
        traj = tmp_path / "traj.csv"
        path = write_config(
            tmp_path / "c.json",
            agents=[
                {"model": "first_order", "x0": [0.0]},
                {"model": "first_order", "x0": [4.0]},
            ],
            outputs={"trajectory": str(traj), "sample_dt": 0.1},
        )
        assert main(["simulate", "--config", path, "--quiet"]) == EXIT_OK
        with open(traj, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for i in (1, 2):
            sub = [r for r in rows if int(r["agent_id"]) == i]
            assert float(sub[-1]["x"]) == pytest.approx(2.0, abs=1e-3)
            assert float(sub[-1]["t"]) == pytest.approx(2.0, abs=1e-3)


class TestVerify:
    def test_passes_on_experiment_one(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json")
        assert main(["verify", "--config", path]) == EXIT_OK
        assert "verification passed" in capsys.readouterr().out

    def test_detects_corrupted_solver(self, tmp_path, capsys):
        # a huge inner tolerance makes the solver stop far from the optimum
        path = write_config(
            tmp_path / "c.json",
            solver={"err": 10.0, "outer_tol": 10.0, "t_min": 0.0},
        )
        rc = main(["verify", "--config", path, "--quiet"])
        assert rc == EXIT_VERIFY
        assert "mismatch" in capsys.readouterr().err


    @pytest.mark.parametrize("mode", ["centralized", "ring"])
    def test_two_dimensional_first_order(self, tmp_path, capsys, mode):
        # the solution is the center (2.5, 5/6) of the circle through the
        # three agents, and t its radius 2.635
        agents = [{"model": "first_order", "x0": p} for p in ([0.0, 0.0], [5.0, 0.0], [1.0, 3.0])]
        path = write_config(tmp_path / "c.json", agents=agents)
        assert main(["verify", "--config", path, "--mode", mode]) == EXIT_OK
        assert "verification passed" in capsys.readouterr().out
        path = write_config(
            tmp_path / "c.json", agents=agents, solver={"err": 10.0, "outer_tol": 10.0}
        )
        assert main(["verify", "--config", path, "--mode", mode, "--quiet"]) == EXIT_VERIFY
        assert "mismatch" in capsys.readouterr().err

    def test_more_than_three_axes_is_inconclusive(self, tmp_path, capsys):
        # the grid oracle covers at most 3 axes; a 4-D solve still succeeds
        agents = [
            {"model": "first_order", "x0": p}
            for p in ([0.0, 0.0, 0.0, 0.0], [4.0, 0.0, 1.0, 0.0], [0.0, 3.0, 0.0, 2.0])
        ]
        path = write_config(tmp_path / "c.json", agents=agents)
        assert main(["solve", "--config", path, "--quiet"]) == EXIT_OK
        assert main(["verify", "--config", path, "--quiet"]) == EXIT_VERIFY
        assert "verification inconclusive: " in capsys.readouterr().err

    def test_exhausted_projection_oracle_is_inconclusive(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise minmaxap.OracleBudgetError("projection search budget exhausted")

        monkeypatch.setattr("minmaxap.cli.numeric_projection", exhausted)
        path = write_config(tmp_path / "c.json")
        assert main(["verify", "--config", path]) == EXIT_VERIFY
        out, err = capsys.readouterr()
        assert "ORACLE BUDGET EXHAUSTED (not a mismatch)" in out
        assert "verification inconclusive: oracle budget exhausted" in err
        assert "mismatch:" not in err


# SHA-256 of the files `solve` (solution.json, trace.csv) and `simulate`
# (trajectory.csv) write for the benchmark's three CLI configs in both modes,
# recorded before the solver's duplicate loops, configs and trace rows were
# merged; every later change must keep these bytes.
GOLDEN = {
    "solve:exp1:centralized:solution.json": "ba840f7f0953ae63e7eb9c97774e9f9c6404deb98e97b9f4d9cef5f6dcce0fca",
    "solve:exp1:centralized:trace.csv": "166719a096003908b5ee9b645dcfcb81123f4f3ea53890084189246dac578374",
    "simulate:exp1:centralized:trajectory.csv": "f64565f1e2e4254bd2ae419615b577ea3741d2ac97b1a51eb79c07e19ec72945",
    "solve:exp1:ring:solution.json": "d9be1b3ef5f7d22d14e98354f303c48fce2ad95bccf1ee1f47f6c7fc5565ff32",
    "solve:exp1:ring:trace.csv": "51f7768602b82d4203ed5c406fcd190e844fb7e125a1b33bf17163f014955946",
    "simulate:exp1:ring:trajectory.csv": "f64565f1e2e4254bd2ae419615b577ea3741d2ac97b1a51eb79c07e19ec72945",
    "solve:exp2:centralized:solution.json": "c949db41ac7be4c61b25c140a0b84e6e680a40bd796bbd4ad47223a3c6829168",
    "solve:exp2:centralized:trace.csv": "11d04049de37be5f78d0c1d878769fc1ef8ac695727ee1b8d90f5cfc21cf84fd",
    "simulate:exp2:centralized:trajectory.csv": "3ab0671634ad548fcd8ec63659a688e6a3d87788145d53583f3e9b29e5a7bd0b",
    "solve:exp2:ring:solution.json": "452a284e21911026056bc6b208a419ebe06262da2a194f7694b197098d1b053e",
    "solve:exp2:ring:trace.csv": "66106dfa2495649dffefba1ed18e7b1c759a15a198b717c01b0bbffddc69e4df",
    "simulate:exp2:ring:trajectory.csv": "39cb8c4a2a9feae14c409c23deed80d4b84f2908ee04cb12b3a471a4865fe9f3",
    "solve:plane2d:centralized:solution.json": "888ef4a651816de7dee0cbe3483a2892c0ebd0c0887d4b82c30a9292e7eb146c",
    "solve:plane2d:centralized:trace.csv": "163c95b7cf3bf51fb7731be850366b5d614706f6d7c03fc37ac7d91035ccee73",
    "simulate:plane2d:centralized:trajectory.csv": "b45e802599606fcc36e92c48cc41486969966ea46290a480f8464ee199848427",
    "solve:plane2d:ring:solution.json": "45d8957bc6929b6ea9f197eead59cfded94159300dd0ba6cfcaced74763da87c",
    "solve:plane2d:ring:trace.csv": "b1fc24b18f80c59f739636443f5deca3ea583e9526641ba8762783f4e7f9234c",
    "simulate:plane2d:ring:trajectory.csv": "fcb8b48d7b07c9edbfb56d3413715e0bf5ac22711dce37bd366c54886717315e",
}

EXP2 = [(-3.542884, 5.140490), (3.001152, 3.794066), (6.924106, -3.281824), (-18.0296, 1.9023)]
GOLDEN_AGENTS = {
    "exp1": [{"model": "second_order", "x0": [x]} for x in EXP1_POSITIONS],
    "exp2": [{"model": "second_order", "x0": [x], "v0": v} for x, v in EXP2],
    "plane2d": [{"model": "first_order", "x0": p} for p in ([0.0, 0.0], [5.0, 0.0], [1.0, 3.0])],
}


def test_output_files_match_golden_hashes(tmp_path):
    digests = {}
    for name, agents in GOLDEN_AGENTS.items():
        for mode in ("centralized", "ring"):
            work = tmp_path / f"{name}-{mode}"
            work.mkdir()
            path = write_config(
                work / "c.json",
                agents=agents,
                solver={"err": 1e-7, "outer_tol": 1e-6},
                outputs={
                    "solution": str(work / "solution.json"),
                    "trace": str(work / "trace.csv"),
                    "trajectory": str(work / "trajectory.csv"),
                    "sample_dt": 0.05,
                },
            )
            for command, files in (
                ("solve", ("solution.json", "trace.csv")),
                ("simulate", ("trajectory.csv",)),
            ):
                assert main([command, "--config", path, "--mode", mode, "--quiet"]) == EXIT_OK
                for f in files:
                    digest = hashlib.sha256((work / f).read_bytes()).hexdigest()
                    digests[f"{command}:{name}:{mode}:{f}"] = digest
    assert digests == GOLDEN
