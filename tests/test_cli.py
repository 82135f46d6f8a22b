"""Config validation, command artifacts, reproducibility."""

import json

import numpy as np
import pytest
import yaml

from mintime.cli import main, run
from mintime.config import ConfigError, load_config, parse_config

SCALAR_OPTIMIZE = {
    "command": "optimize",
    "seed": 7,
    "grid": {"dimension": 1, "extent": 1.0, "nodes": 3, "bc": "neumann"},
    "operator": {
        "kind": "reaction_diffusion2",
        "d1": 1.0,
        "d2": 1.0,
        "f": {"family": "linear2", "params": [1.0, 0.0]},
        "g": {"family": "zero2"},
    },
    "control": {"mode": "first_component", "norm": "L2", "rho": 1.0},
    "initial": {"y0": {"profile": "zero"}},
    "targets": {"y_tar": [{"profile": "constant", "value": 0.5},
                          {"profile": "zero"}]},
    "numerics": {
        "dt": 2e-3,
        "eps_schedule": [1e-1, 1e-2],
        "T_bracket": [0.2, 1.4],
        "inner_cap": 300,
    },
}

HEAT_SLIDE = {
    "command": "slide",
    "seed": 1,
    "grid": {"dimension": 1, "extent": 1.0, "nodes": 24, "bc": "dirichlet"},
    "operator": {"kind": "potential_drift"},
    "control": {"mode": "identity", "norm": "L2", "rho": 10.0},
    "initial": {"y0": {"profile": "sin_pi"}},
    "targets": {"y_tar": {"profile": "zero"}},
    "numerics": {"dt": 1e-4, "T_max": 0.2, "hit_tol": 2e-3},
}


def _write(tmp_path, doc, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def test_parse_builds_objects():
    cfg = parse_config(SCALAR_OPTIMIZE)
    assert cfg.command == "optimize"
    assert cfg.spec.n_components == 2
    assert cfg.map.mode == "first_component"
    assert cfg.y_tar.component(0)[0] == 0.5
    assert cfg.numerics["T_bracket"] == [0.2, 1.4]


def test_missing_rho_names_the_field(tmp_path):
    doc = yaml.safe_load(yaml.safe_dump(SCALAR_OPTIMIZE))
    del doc["control"]["rho"]
    with pytest.raises(ConfigError, match="control.rho"):
        parse_config(doc)
    # and through the CLI: exit code 2
    path = _write(tmp_path, doc)
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_unknown_command_rejected():
    doc = dict(SCALAR_OPTIMIZE, command="explode")
    with pytest.raises(ConfigError, match="command"):
        parse_config(doc)


def test_bad_bracket_rejected():
    doc = yaml.safe_load(yaml.safe_dump(SCALAR_OPTIMIZE))
    doc["numerics"]["T_bracket"] = [1.0, 0.5]
    with pytest.raises(ConfigError, match="T_bracket"):
        parse_config(doc)


def test_simulate_writes_artifacts(tmp_path):
    doc = {
        "command": "simulate",
        "grid": {"nodes": 12, "bc": "dirichlet"},
        "operator": {"kind": "potential_drift",
                     "beta": {"family": "cubic", "params": [0.5]}},
        "control": {"mode": "identity", "norm": "L2", "rho": 5.0},
        "initial": {"y0": {"profile": "sin_pi"}},
        "numerics": {"dt": 1e-2},
        "simulate": {"T": 0.1, "u": {"profile": "constant", "value": 0.2}},
    }
    out = tmp_path / "out"
    assert run(_write(tmp_path, doc), out) == 0
    assert (out / "manifest.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "simulate"
    assert report["summary"]["steps"] == 10
    data = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
    assert len(data["t"]) == 11


def test_slide_command_hits(tmp_path):
    out = tmp_path / "out"
    code = run(_write(tmp_path, HEAT_SLIDE), out)
    report = json.loads((out / "report.json").read_text())
    # a failed run serializes its exception under "error"; show it
    assert code == 0, report.get("error")
    assert report["summary"]["hit"] is True
    assert report["summary"]["T_hit"] <= 1.0 / np.sqrt(2.0) / 10.0 + 5e-4
    res = np.genfromtxt(out / "residuals.csv", delimiter=",", names=True)
    assert res["deviation"][0] == pytest.approx(1 / np.sqrt(2), rel=1e-12)
    assert res["hit"][-1] == 1.0


def test_audit_command(tmp_path):
    doc = {
        "command": "audit",
        "seed": 3,
        "grid": {"nodes": 10, "bc": "dirichlet"},
        "operator": {"kind": "porous_media",
                     "beta": {"family": "power", "params": [0.5, 0.5, 0.5]}},
        "control": {"mode": "identity", "norm": "Hminus1", "rho": 1.0},
        "numerics": {"audit_samples": 150},
    }
    out = tmp_path / "out"
    assert run(_write(tmp_path, doc), out) == 0
    report = json.loads((out / "report.json").read_text())
    a1 = report["audit"]["entries"]["monotonicity_g5"]["constants"]["alpha1"]
    assert a1 > 0.45


def test_oracle_command(tmp_path):
    doc = {
        "command": "oracle",
        "oracle": {"a": 1.0, "y0": 0.0, "target": 0.5, "rho": 1.0,
                   "dt": 1e-3, "switch_budget": 0, "t_max": 2.0},
    }
    out = tmp_path / "out"
    assert run(_write(tmp_path, doc), out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["oracle"]["analytic_T"] == pytest.approx(np.log(2), rel=1e-10)
    assert abs(report["oracle"]["brute_force_T"] - np.log(2)) <= 2e-3


def test_optimize_command_and_determinism(tmp_path):
    path = _write(tmp_path, SCALAR_OPTIMIZE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(path, out1) == 0
    assert run(path, out2) == 0
    r1 = (out1 / "report.json").read_bytes()
    r2 = (out2 / "report.json").read_bytes()
    assert r1 == r2
    report = json.loads(r1)
    assert "T_eps_star" in report["final"]
    assert (out1 / "control.csv").exists()
    assert (out1 / "residuals.csv").exists()
    res = np.genfromtxt(out1 / "residuals.csv", delimiter=",", names=True)
    assert set(res.dtype.names) == {"t", "u_norm", "bstar_p_norm", "g73_residual"}
    # the final probe's trajectory carries its norms; the report stays as it was
    traj = np.genfromtxt(out1 / "trajectory.csv", delimiter=",", names=True)
    later = traj["t"] > 0.0
    assert later.sum() == len(traj) - 1 > 0
    assert np.all(traj["h_norm"][later] > 0.0)
    assert np.all(traj["a_norm"][later] > 0.0)
    assert set(report) == {"command", "seed", "rho", "rho_margin", "T_bracket",
                           "levels", "final"}


def test_cli_command_must_match_config(tmp_path):
    path = _write(tmp_path, HEAT_SLIDE)
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_numerical_failure_exits_1_with_payload(tmp_path):
    # optimize with y0 == y_tar trips the solver's standing assumption at
    # run time: manifest written, error payload serialized, exit 1
    doc = yaml.safe_load(yaml.safe_dump(SCALAR_OPTIMIZE))
    doc["targets"]["y_tar"] = [{"profile": "zero"}, {"profile": "zero"}]
    out = tmp_path / "out"
    code = run(_write(tmp_path, doc), out)
    assert code == 1
    assert (out / "manifest.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["type"] == "ValueError"
    assert "trivial" in report["error"]["message"]


def test_sweep_runs_all_configs(tmp_path):
    cfgdir = tmp_path / "configs"
    cfgdir.mkdir()
    _write(cfgdir, {"command": "oracle",
                    "oracle": {"a": 1.0, "target": 0.5, "rho": 1.0, "switch_budget": 0,
                               "t_max": 1.5}},
           name="one.yaml")
    _write(cfgdir, {"command": "oracle",
                    "oracle": {"a": 0.5, "target": 0.3, "rho": 2.0, "switch_budget": 0,
                               "t_max": 1.5}},
           name="two.yaml")
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--sweep", str(cfgdir), "--out", str(out)]) == 0
    assert (out / "one" / "report.json").exists()
    assert (out / "two" / "report.json").exists()


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="no such config"):
        load_config("/nonexistent/path.yaml")
