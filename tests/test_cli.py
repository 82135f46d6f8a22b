"""Config validation, command artifacts, reproducibility."""

import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from mintime import config
from mintime.cli import _write_json, main, run
from mintime.config import ConfigError, load_config, parse_config
from mintime.nonlinearities import scalar_fn

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


def test_slide_reaction_diffusion_config_reports_the_certified_bound(tmp_path):
    # L4 controls: T_* uses the gain w_min^(-1/4) = 30^(1/4), the exact
    # supremum, and still bounds the hit time
    out = tmp_path / "out"
    assert run(REPO / "configs/slide_reaction_diffusion.yaml", out) == 0
    summary = json.loads((out / "report.json").read_text())["summary"]
    assert summary["T_star"] == 0.07425107281417975
    assert summary["T_hit"] == 0.030260621146344785
    # with a factor made at every Newton update the hit time reads
    # 0.030260619853655298; a kept factor stops within NEWTON_TOL of it
    assert abs(summary["T_hit"] - 0.030260619853655298) <= 1e-8
    assert summary["T_star_valid"] is True


def test_switching_pair_config_meets_its_oracle(tmp_path):
    # the rotating pair needs one switch, and at eps 1e-2 J_eps(T) has a
    # second local minimum near T = 0.50: every level searches the whole
    # bracket and ends on an interior root of dJ/dT
    assert run(REPO / "configs/oracle_pair.yaml", tmp_path / "oracle") == 0
    assert run(REPO / "configs/optimize_pair.yaml", tmp_path / "opt") == 0
    oracle = json.loads((tmp_path / "oracle" / "report.json").read_text())["oracle"]
    report = json.loads((tmp_path / "opt" / "report.json").read_text())
    for level in report["levels"]:
        assert not level["boundary_hit"]
        assert abs(level["dJ_dT"]) <= 1e-4
    assert abs(report["final"]["T_eps_star"] - oracle["brute_force_T"]) <= 2 * oracle["dt"]


def test_optimize_scalar_l4_copy_matches_the_l2_run(tmp_path):
    # on a first-component control over 3 nodes the L4 norm is the L2 one,
    # but the solve runs on the Lp duality maps: its horizons must agree with
    # the L2 run's, and the scan must not stall on probes far right of the root
    doc = yaml.safe_load((REPO / "configs/optimize_scalar.yaml").read_text())
    doc["control"]["norm"] = "L4"
    assert run(REPO / "configs/optimize_scalar.yaml", tmp_path / "l2") == 0
    assert run(_write(tmp_path, doc), tmp_path / "l4") == 0
    l2, l4 = (json.loads((tmp_path / name / "report.json").read_text())["levels"]
              for name in ("l2", "l4"))
    assert len(l4) == len(l2) == 4
    for a, b in zip(l2, l4):
        assert b["inner_stop"] == "converged"
        assert abs(a["T_eps_star"] - b["T_eps_star"]) <= 1e-9
        assert not a["boundary_hit"]
    # the four levels solved 36 probes when the scan covered the whole
    # bracket before refining any root
    assert sum(level["probes"] for level in l2) < 36


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


def test_audit_with_a_target_adds_the_sign_condition(tmp_path):
    # the monotone porous operator meets the sign condition with C1 = 0, and
    # the entry drawn last leaves every other entry as it was
    doc = yaml.safe_load((REPO / "configs/audit_porous.yaml").read_text())
    doc["targets"] = {"y_tar": {"profile": "zero"}}
    bare, targeted = tmp_path / "bare", tmp_path / "targeted"
    assert run(REPO / "configs/audit_porous.yaml", bare) == 0
    assert run(_write(tmp_path, doc), targeted) == 0
    entries = json.loads((targeted / "report.json").read_text())["audit"]["entries"]
    assert entries.pop("sign_condition_g5_000")["constants"] == {"C1": 0.0}
    assert entries == json.loads((bare / "report.json").read_text())["audit"]["entries"]


def test_seed_override_reaches_the_manifest_the_report_and_the_config(tmp_path):
    out, written = tmp_path / "override", tmp_path / "written"
    path = _write(tmp_path, {**POROUS_AUDIT, "seed": 3}, name="three.yaml")
    assert main(["audit", "--config", str(path), "--out", str(out), "--seed", "11"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == manifest["config"]["seed"] == 11
    assert json.loads((out / "report.json").read_text())["seed"] == 11
    # the same bytes as a config that says seed: 11
    assert run(_write(tmp_path, {**POROUS_AUDIT, "seed": 11}, name="eleven.yaml"), written) == 0
    for name in ("manifest.json", "report.json"):
        assert (out / name).read_bytes() == (written / name).read_bytes()


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


NONLOCAL_AUDIT = {
    "command": "audit",
    "seed": 3,
    "grid": {"dimension": 1, "extent": 1.0, "nodes": 8, "bc": "neumann"},
    "operator": {"kind": "potential_drift"},
    "control": {"mode": "nonlocal", "norm": "L2", "rho": 1.0,
                "kernel": {"nodes": [5], "row_profile": {"profile": "constant", "value": 1.0},
                           "col_profile": {"profile": "constant", "value": 1.0}}},
    "numerics": {"audit_samples": 100},
}


@pytest.mark.parametrize("nodes", [[2], 4])
def test_bad_kernel_nodes_name_the_field(tmp_path, nodes):
    assert parse_config(NONLOCAL_AUDIT).map.control_grid.nodes == (5,)
    doc = yaml.safe_load(yaml.safe_dump(NONLOCAL_AUDIT))
    doc["control"]["kernel"]["nodes"] = nodes
    with pytest.raises(ConfigError, match="control.kernel.nodes"):
        parse_config(doc)
    out = tmp_path / "o"
    assert main(["audit", "--config", str(_write(tmp_path, doc)), "--out", str(out)]) == 2
    assert not (out / "report.json").exists()


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


def test_sweep_exits_with_the_worst_run_and_matches_single_runs(tmp_path, capsys):
    cfgdir = tmp_path / "configs"
    cfgdir.mkdir()
    for name in ("oracle_scalar.yaml", "audit_porous.yaml"):
        (cfgdir / name).write_bytes((REPO / "configs" / name).read_bytes())
    _write(cfgdir, {**SCALAR_ORACLE, "unknown": 1}, name="unknown_key.yaml")
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--sweep", str(cfgdir), "--out", str(out)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "audit_porous.yaml: exit 0", "oracle_scalar.yaml: exit 0", "unknown_key.yaml: exit 2"]
    assert not (out / "unknown_key" / "report.json").exists()
    for stem in ("audit_porous", "oracle_scalar"):
        alone = tmp_path / "alone" / stem
        assert run(cfgdir / f"{stem}.yaml", alone) == 0
        assert (out / stem / "report.json").read_bytes() == (alone / "report.json").read_bytes()


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_unreachable_oracle_report_is_strict_json(tmp_path):
    # rho / a = 0.1 < 0.5: y' + y = u with |u| <= 0.1 never reaches 0.5
    doc = {"command": "oracle", "oracle": {"a": 1.0, "target": 0.5, "rho": 0.1, "t_max": 1.0}}
    out = tmp_path / "out"
    assert run(_write(tmp_path, doc), out) == 0
    report = _strict_json((out / "report.json").read_text())
    assert report["oracle"]["analytic_T"] is None
    assert report["oracle"]["brute_force_T"] is None
    _strict_json((out / "manifest.json").read_text())


def test_json_writer_turns_non_finite_floats_into_null(tmp_path):
    path = tmp_path / "out.json"
    _write_json(path, {"a": [float("inf"), {"b": float("nan")}], "c": (-np.inf, 1.5), "d": "inf"})
    assert _strict_json(path.read_text()) == {"a": [None, {"b": None}], "c": [None, 1.5],
                                              "d": "inf"}


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="no such config"):
        load_config("/nonexistent/path.yaml")


def test_config_that_is_not_yaml_exits_2_naming_the_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("grid: [1.0, 2.0\n")
    with pytest.raises(ConfigError, match="not valid YAML") as exc:
        load_config(path)
    assert exc.value.field_name == "<file>"
    out = tmp_path / "o"
    assert main(["slide", "--config", str(path), "--out", str(out)]) == 2
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("where", ["no_configs", "missing", "file"])
def test_sweep_without_configs_exits_2(tmp_path, capsys, where):
    # a directory without configs, a path that does not exist and a regular
    # file; the last two used to end in a traceback
    (tmp_path / "notes.txt").write_text("not a config")
    sweep = {"no_configs": tmp_path, "missing": tmp_path / "missing",
             "file": tmp_path / "notes.txt"}[where]
    assert main(["sweep", "--sweep", str(sweep), "--out", str(tmp_path / "o")]) == 2
    assert f"no .yaml configs under {sweep}" in capsys.readouterr().err


def test_out_that_cannot_be_made_exits_2_naming_it(tmp_path, capsys):
    # an --out under a regular file used to end in a traceback
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "o"
    assert main(["audit", "--config", str(_write(tmp_path, POROUS_AUDIT)), "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err


def test_negative_seed_override_exits_2_before_the_manifest(tmp_path, capsys):
    # it used to write the manifest and fail in the random generator
    out = tmp_path / "o"
    path = _write(tmp_path, HEAT_SLIDE)
    assert main(["slide", "--config", str(path), "--out", str(out), "--seed", "-3"]) == 2
    assert "config field 'seed': must be nonnegative, got -3" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


# ---------------------------------------------------------------------------
# the config schema: strict keys and types, one default per key

REPO = Path(__file__).resolve().parent.parent
class _Drop:
    """Marks a key for ``_with`` to delete; its repr names it in the case ids."""

    def __repr__(self):
        return "DROP"


_DROP = _Drop()

POROUS_AUDIT = {
    "command": "audit",
    "grid": {"nodes": 10, "bc": "dirichlet"},
    "operator": {"kind": "porous_media", "beta": {"family": "power", "params": [0.5, 0.5, 0.5]}},
    "control": {"mode": "identity", "norm": "Hminus1", "rho": 1.0},
    "numerics": {"audit_samples": 150},
}
SCALAR_ORACLE = {"command": "oracle",
                 "oracle": {"a": 1.0, "target": 0.5, "rho": 1.0, "switch_budget": 0,
                            "t_max": 1.5}}
MATRIX_ORACLE = {"command": "oracle",
                 "oracle": {"matrix": [[1.0]], "y0": [0.0], "target": [0.5], "rho": 1.0,
                            "switch_budget": 0, "t_max": 1.5}}
SIMULATE = {
    "command": "simulate",
    "grid": {"nodes": 12, "bc": "dirichlet"},
    "operator": {"kind": "potential_drift"},
    "control": {"mode": "identity", "norm": "L2", "rho": 5.0},
    "numerics": {"dt": 1e-2},
    "simulate": {"T": 0.05, "u": {"profile": "constant", "value": 0.2}},
}


def _with(doc, path, value):
    """A deep copy of ``doc`` with the dotted ``path`` set (``_DROP`` deletes it)."""
    doc = yaml.safe_load(yaml.safe_dump(doc))
    *parents, last = path.split(".")
    block = doc
    for key in parents:
        block = block[key]
    if value is _DROP:
        del block[last]
    else:
        block[last] = value
    return doc


BAD_CONFIGS = [
    # misspelled keys that used to run on the defaults
    (HEAT_SLIDE, "operator.D1", 5, "operator.D1"),
    (SCALAR_OPTIMIZE, "numerics.golden_tol_factor", 0.5, "numerics.golden_tol_factor"),
    # malformed values that used to crash with a traceback
    (HEAT_SLIDE, "seed", "abc", "seed"),
    (HEAT_SLIDE, "grid.dimension", "two", "grid.dimension"),
    (HEAT_SLIDE, "grid", "oops", "grid"),
    (POROUS_AUDIT, "numerics.audit_samples", "many", "numerics.audit_samples"),
    # malformed values that used to exit 1 after writing the manifest
    (SCALAR_OPTIMIZE, "numerics.inner_cap", "abc", "numerics.inner_cap"),
    (POROUS_AUDIT, "numerics.fractional_alpha", "half", "numerics.fractional_alpha"),
    (SCALAR_ORACLE, "oracle.target", _DROP, "oracle.target"),
    (MATRIX_ORACLE, "oracle.matrix", [[1, 2, 3]], "oracle.matrix"),
    (SIMULATE, "simulate.u", {"profile": "nonsense"}, "simulate.u.profile"),
    # an unknown key in every block
    (HEAT_SLIDE, "numerix", {"dt": 1e-4}, "numerix"),
    (HEAT_SLIDE, "grid.node", 8, "grid.node"),
    (HEAT_SLIDE, "control.radius", 1.0, "control.radius"),
    (NONLOCAL_AUDIT, "control.kernel.weights", [1.0], "control.kernel.weights"),
    (HEAT_SLIDE, "initial.y0.amplitude", 2.0, "initial.y0.amplitude"),
    (SIMULATE, "simulate.steps", 5, "simulate.steps"),
    (SCALAR_ORACLE, "oracle.b", 1.0, "oracle.b"),
    # keys of another command, another form or another profile; wrong types
    (SCALAR_OPTIMIZE, "numerics.hit_tol", 1e-3, "numerics.hit_tol"),
    (HEAT_SLIDE, "simulate", {"T": 0.1}, "simulate"),
    (MATRIX_ORACLE, "oracle.a", 1.0, "oracle.a"),
    (SCALAR_OPTIMIZE, "targets.y_tar", [{"profile": "zero", "value": 1.0},
                                        {"profile": "zero"}], "targets.y_tar[0].value"),
    (SCALAR_OPTIMIZE, "numerics.chain_u_ref", "false", "numerics.chain_u_ref"),
    (HEAT_SLIDE, "operator.beta", {"family": "cubic", "params": [1.0, 2.0]},
     "operator.beta.params"),
    # values out of the solvers' range, which used to run: a zero golden_tol
    # exited 1 after the manifest (it would keep the golden-section search
    # running forever), a zero inner_tol ended every level on a plateau and
    # exited 0, and too few slide samples failed inside the audit
    (SCALAR_OPTIMIZE, "numerics.golden_tol", 0.0, "numerics.golden_tol"),
    (SCALAR_OPTIMIZE, "numerics.inner_tol", 0.0, "numerics.inner_tol"),
    (SCALAR_OPTIMIZE, "numerics.inner_tol", -1.0, "numerics.inner_tol"),
    (SCALAR_OPTIMIZE, "numerics.inner_cap", -1, "numerics.inner_cap"),
    (SCALAR_OPTIMIZE, "numerics.theta0", 0.0, "numerics.theta0"),
    (HEAT_SLIDE, "numerics.audit_samples", 0, "numerics.audit_samples"),
    # non-integral values of integer keys, which used to truncate
    (HEAT_SLIDE, "seed", 1.7, "seed"),
    (HEAT_SLIDE, "grid.nodes", 10.9, "grid.nodes"),
    # one value per axis: an extent of the wrong length used to be reported
    # as grid.nodes
    (HEAT_SLIDE, "grid.extent", [1.0, 2.0], "grid.extent"),
    (HEAT_SLIDE, "grid.nodes", [24, 24], "grid.nodes"),
    # the commands that steer to a target need one
    (HEAT_SLIDE, "targets.y_tar", _DROP, "targets.y_tar"),
    (SCALAR_OPTIMIZE, "targets", {}, "targets.y_tar"),
    # an initial state in an audit, which reads none
    (POROUS_AUDIT, "initial", {"y0": {"profile": "zero"}}, "initial"),
    # non-finite numbers, and an oracle grid without a step, which used to
    # exit 1 after the manifest (an OverflowError or a ValueError of the
    # bang search)
    (SCALAR_ORACLE, "oracle.t_max", float("inf"), "oracle.t_max"),
    (SCALAR_ORACLE, "oracle.t_max", float("nan"), "oracle.t_max"),
    (SCALAR_ORACLE, "oracle.t_max", 0.0, "oracle.t_max"),
    (SCALAR_ORACLE, "oracle.t_max", 1e-4, "oracle.t_max"),
    (SCALAR_ORACLE, "oracle.dt", float("inf"), "oracle.dt"),
    (SCALAR_ORACLE, "oracle.dt", float("nan"), "oracle.dt"),
    (SCALAR_ORACLE, "oracle.dt", 0.0, "oracle.dt"),
    (MATRIX_ORACLE, "oracle.target", [float("nan")], "oracle.target"),
    (HEAT_SLIDE, "operator.a1", float("inf"), "operator.a1"),
    (SCALAR_OPTIMIZE, "numerics.golden_tol", float("inf"), "numerics.golden_tol"),
    # values that parsed and then failed at run time (exit 1 after the
    # manifest), keys that were silently dropped, and unknown choices that
    # named their block instead of the key
    (SCALAR_OPTIMIZE, "numerics.eps_schedule", [1e-2, 1e-1], "numerics.eps_schedule"),
    (SCALAR_ORACLE, "oracle.switch_budget", 4, "oracle.switch_budget"),
    (SCALAR_ORACLE, "oracle.switch_budget", -1, "oracle.switch_budget"),
    (NONLOCAL_AUDIT, "grid.robin_gamma", 0.5, "grid.robin_gamma"),
    (HEAT_SLIDE, "grid.bc", "robin", "grid.robin_gamma"),
    (HEAT_SLIDE, "control.kernel", NONLOCAL_AUDIT["control"]["kernel"], "control.kernel"),
    (HEAT_SLIDE, "control.mode", "pointwise", "control.mode"),
    (HEAT_SLIDE, "control.projection", "second", "control.projection"),
    # a slide always continues past the hit, which a nonlocal map cannot: the
    # run stepped the whole approach, then exited 1 at the hit
    (HEAT_SLIDE, "control", {**NONLOCAL_AUDIT["control"], "rho": 10.0}, "control.mode"),
    # cross-key errors, which used to exit 1 after the manifest (H^-1 on
    # Neumann walls) or name the block instead of the key
    (SCALAR_OPTIMIZE, "control.norm", "Hminus1", "control.norm"),
    (SCALAR_OPTIMIZE, "control.projection", "full", "control.projection"),
    (NONLOCAL_AUDIT, "control.norm", "Hminus1", "control.norm"),
    (POROUS_AUDIT, "grid.bc", "neumann", "grid.bc"),
    # booleans where numbers belong (YAML reads yes/on/true as True, and
    # float(True) is 1.0), and numbers where booleans belong (1 == True);
    # each used to parse as the number or the flag
    (HEAT_SLIDE, "control.rho", True, "control.rho"),
    (HEAT_SLIDE, "numerics.dt", True, "numerics.dt"),
    (HEAT_SLIDE, "initial.y0", True, "initial.y0"),
    (HEAT_SLIDE, "targets.y_tar", [0.0] * 23 + [True], "targets.y_tar"),
    (HEAT_SLIDE, "seed", True, "seed"),
    (SCALAR_OPTIMIZE, "numerics.chain_u_ref", 1, "numerics.chain_u_ref"),
    # the history term that chain_u_ref switched on is gone: a config that
    # turns it on, which used to run, names the key as theta0 does
    (SCALAR_OPTIMIZE, "numerics.chain_u_ref", True, "numerics.chain_u_ref"),
    (SCALAR_ORACLE, "oracle.target_first_only", 0, "oracle.target_first_only"),
    # a negative diffusivity (d2 = 0 is the diffusionless second component)
    (SCALAR_OPTIMIZE, "operator.d2", -0.1, "operator.d2"),
    # a node list of the wrong length, and a profile list of the wrong length
    (HEAT_SLIDE, "initial.y0", [0.0] * 5, "initial.y0"),
    (SCALAR_OPTIMIZE, "targets.y_tar", [{"profile": "zero"} for _ in range(3)],
     "targets.y_tar"),
    # a negative seed, which used to fail in the random generator after the
    # manifest
    (HEAT_SLIDE, "seed", -1, "seed"),
    # a nonlocal map on a two-component operator, which used to parse and
    # then exit 1 after the manifest: its kernel maps onto one component
    (SCALAR_OPTIMIZE, "control", {**NONLOCAL_AUDIT["control"], "kernel": {
        **NONLOCAL_AUDIT["control"]["kernel"], "nodes": [4]}}, "control.mode"),
    # the matrix oracle's sizes, which named the block instead of the key
    (MATRIX_ORACLE, "oracle.matrix", np.eye(3).tolist(), "oracle.matrix"),
    (MATRIX_ORACLE, "oracle.y0", [0.0, 0.0], "oracle.y0"),
    (MATRIX_ORACLE, "oracle.target", [0.5, 0.5], "oracle.target"),
]


def _case_ids(cases) -> list[str]:
    """Each case's field, with its value appended when an earlier case has the field."""
    ids: list[str] = []
    for _, _, value, field in cases:
        ids.append(f"{field}={value!r}" if field in ids else field)
    return ids


@pytest.mark.parametrize("doc, path, value, field", BAD_CONFIGS, ids=_case_ids(BAD_CONFIGS))
def test_bad_config_exits_2_naming_the_key(tmp_path, doc, path, value, field):
    bad = _with(doc, path, value)
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert exc.value.field_name == field
    out = tmp_path / "o"
    assert main([doc["command"], "--config", str(_write(tmp_path, bad)), "--out", str(out)]) == 2
    assert not (out / "manifest.json").exists()
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("profile, nodal", [
    (0.3, lambda x: np.full(x.size, 0.3)),
    (np.linspace(0.0, 1.0, 24).tolist(), lambda x: np.linspace(0.0, 1.0, 24)),
    ({"profile": "gauss", "scale": 2.0, "center": 0.25, "width": 0.2},
     lambda x: 2.0 * np.exp(-(x - 0.25) ** 2 / 0.08)),
], ids=["number", "node_list", "gauss"])
def test_profile_shorthands_give_their_nodal_values(profile, nodal):
    cfg = parse_config(_with(HEAT_SLIDE, "initial.y0", profile))
    (x,) = cfg.grid.coordinates()
    np.testing.assert_allclose(cfg.y0.values, nodal(x), rtol=1e-14, atol=0.0)


def test_reaction_diffusion2_takes_a_diffusionless_second_component():
    cfg = parse_config(_with(SCALAR_OPTIMIZE, "operator.d2", 0))
    assert cfg.spec.d2 == 0.0 and cfg.spec.v_gamma == (True, False)


def test_matrix_oracle_without_y0_starts_at_zeros_of_its_dimension(tmp_path):
    # a 1x1 matrix without y0 used to be refused: the default was [0.0, 0.0]
    doc = _with(MATRIX_ORACLE, "oracle.y0", _DROP)
    assert np.array_equal(parse_config(doc).reduction.y0, [0.0])
    for name, d in (("given", MATRIX_ORACLE), ("default", doc)):
        assert run(_write(tmp_path, d, f"{name}.yaml"), tmp_path / name) == 0
    given, default = (json.loads((tmp_path / name / "report.json").read_text())["oracle"]
                      for name in ("given", "default"))
    assert default == given


def test_porous_media_without_beta_takes_the_class_default(tmp_path):
    doc = _with(POROUS_AUDIT, "operator.beta", _DROP)
    cfg = parse_config(doc)
    assert cfg.spec.beta == scalar_fn("linear", 1.0)
    assert run(_write(tmp_path, doc), tmp_path / "o") == 0


# what the commands read from every repository config, as the parent commit's
# CLI read it (its own defaults filled in)
REPO_CONFIGS = {
    "configs/audit_porous.yaml": {
        "rho": 1.0, "numerics": {"audit_samples": 300, "fractional_alpha": 0.5}},
    "configs/optimize_scalar.yaml": {
        "rho": 1.0,
        "numerics": {"dt": 1e-3, "eps_schedule": [1e-1, 1e-2, 1e-3, 1e-4],
                     "T_bracket": [0.2, 1.4], "inner_tol": 1e-8, "inner_cap": 500,
                     "golden_tol": 1e-4}},
    "configs/optimize_pair.yaml": {
        "rho": 1.0,
        "numerics": {"dt": 1e-3, "eps_schedule": [1e-1, 1e-2, 1e-3, 1e-4],
                     "T_bracket": [0.3, 2.0], "inner_tol": 1e-8, "inner_cap": 500,
                     "golden_tol": 1e-4}},
    "configs/oracle_pair.yaml": {"rho": 1.0},  # its matrix block is checked below
    "configs/oracle_scalar.yaml": {
        "rho": 1.0,
        "oracle_block": {"a": 1.0, "y0": 0.0, "target": 0.5, "rho": 1.0, "dt": 1e-3,
                         "switch_budget": 0, "t_max": 2.0, "target_first_only": False}},
    "configs/slide_heat.yaml": {
        "rho": 10.0,
        "numerics": {"dt": 1e-4, "T_max": 0.2, "hit_tol": 2e-3, "audit_samples": 150}},
    "configs/slide_reaction_diffusion.yaml": {
        "rho": 10.0,
        "numerics": {"dt": 1e-4, "T_max": 0.5, "hit_tol": 2e-3, "audit_samples": 150}},
    "bench/gradient_2d.yaml": {
        "rho": 10.0, "numerics": {"dt": 1e-2},
        "simulate_block": {"T": 0.2, "write_values": False}},
}


def _same(a, b):
    if isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in b)
    if isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def test_repo_configs_parse_to_the_values_the_commands_read():
    paths = sorted(str(p.relative_to(REPO)) for p in (REPO / "configs").glob("*.yaml"))
    assert set(REPO_CONFIGS) == {*paths, "bench/gradient_2d.yaml"}
    for path, want in REPO_CONFIGS.items():
        cfg = load_config(REPO / path)
        for name, value in want.items():
            got = getattr(cfg, name)
            if name == "simulate_block":
                np.testing.assert_array_equal(got.pop("u").values,
                                              np.zeros(cfg.map.control_size(cfg.spec)))
            assert _same(got, value), (path, name, got)
    red = load_config(REPO / "configs/oracle_scalar.yaml").reduction
    assert (red.matrix.tolist(), red.y0.tolist(), red.target.tolist()) == ([[1.0]], [0.0], [0.5])
    pair = load_config(REPO / "configs/oracle_pair.yaml")
    red = pair.reduction
    assert (red.matrix.tolist(), red.y0.tolist(), red.target.tolist()) == (
        [[0.0, 3.0], [-3.0, 0.0]], [0.0, 0.0], [0.5])
    assert {k: pair.oracle_block[k] for k in ("dt", "switch_budget", "t_max",
                                              "target_first_only")} == {
        "dt": 1e-3, "switch_budget": 1, "t_max": 2.0, "target_first_only": True}


def test_readme_documents_every_config_key():
    text = (REPO / "README.md").read_text()
    section = text[text.index("### config anatomy"):]
    section = section[:section.index("\n## ")]
    tables = [*config.COMMANDS.values(), *config._NUMERICS.values(), config._GRID,
              config._CONTROL, config._KERNEL, config._INITIAL, config._TARGETS,
              config._FAMILY, config._SIMULATE, config._ORACLE_SCALAR, config._ORACLE_MATRIX,
              *(keys for _, _, keys in config.OPERATOR_KINDS.values()),
              *(keys for keys, _ in config._PROFILES.values())]
    keys = {"kind", "profile", *config.OPERATOR_KINDS, *config._PROFILES}
    keys |= {key for table in tables for key in table}
    assert sorted(key for key in keys if f"`{key}`" not in section) == []


def _json_keys(node) -> set:
    if isinstance(node, dict):
        return set(node).union(*(_json_keys(v) for v in node.values()))
    if isinstance(node, list):
        return set().union(*(_json_keys(v) for v in node))
    return set()


def test_readme_documents_every_report_key(tmp_path):
    text = (REPO / "README.md").read_text()
    section = text[text.index("## command line"):text.index("### config anatomy")]
    keys = set()
    for path in REPO_CONFIGS:
        out = tmp_path / Path(path).stem
        assert run(REPO / path, out) == 0, path
        keys |= _json_keys(json.loads((out / "report.json").read_text()))
    assert sorted(key for key in keys if f"`{key}`" not in section) == []


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    text = (REPO / "README.md").read_text()
    blocks = [b.split("```")[0] for b in text.split("```python\n")[1:]]
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_every_public_name_resolves():
    # a stale __all__ entry breaks only star imports, so nothing else sees it
    import importlib
    import pkgutil

    import mintime

    for info in pkgutil.iter_modules(mintime.__path__):
        module = importlib.import_module(f"mintime.{info.name}")
        names = getattr(module, "__all__", ())
        assert [n for n in names if not hasattr(module, n)] == [], info.name
