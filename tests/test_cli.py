import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import minmaxap
from minmaxap.cli import (
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    EXIT_VERIFY,
    ConfigError,
    load_config,
    main,
)

EXP1_POSITIONS = [-3.542884, 3.001152, 6.924106, -18.0296]


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

    def test_nonzero_t_min_rejected(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "c.json", solver={"err": 1e-7, "outer_tol": 1e-6, "t_min": 5.0}
        )
        assert main(["solve", "--config", path]) == EXIT_VALIDATION
        assert "t_min" in capsys.readouterr().err


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

    def test_validation_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", agents=[])
        assert main(["solve", "--config", path]) == EXIT_VALIDATION
        assert "config error" in capsys.readouterr().err

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
