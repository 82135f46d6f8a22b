"""tools/compare_artifacts.py: the per-file verdicts."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_artifacts.py"
_spec = importlib.util.spec_from_file_location("compare_artifacts", _PATH)
compare_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_artifacts)


def _pair(tmp_path, name, old, new):
    a, b = tmp_path / "old" / name, tmp_path / "new" / name
    a.parent.mkdir(exist_ok=True)
    b.parent.mkdir(exist_ok=True)
    a.write_text(old)
    b.write_text(new)
    return compare_artifacts.compare_file(a, b)


def test_json_verdicts(tmp_path):
    report = {"T": 0.5, "levels": [{"eps": 0.1, "converged": True, "iters": 3}]}
    same = json.dumps(report)
    assert _pair(tmp_path, "a.json", same, same) == (0, "identical")

    moved = json.loads(same)
    moved["T"] = 0.5 * (1 + 4e-16)
    moved["levels"][0]["eps"] = 0.1 * (1 - 1e-15)
    status, msg = _pair(tmp_path, "b.json", same, json.dumps(moved))
    assert status == 1 and msg.startswith("2 floats moved, largest relative move")
    assert msg.endswith(" at /levels[0]/eps")
    assert 5e-16 < float(msg.split()[6]) < 2e-15

    flipped = json.loads(same)
    flipped["levels"][0]["converged"] = False
    status, msg = _pair(tmp_path, "c.json", same, json.dumps(flipped))
    assert status == 2 and "/levels[0]/converged: True -> False" in msg

    # an int that becomes a float is not a float move
    retyped = json.loads(same)
    retyped["levels"][0]["iters"] = 3.0
    assert _pair(tmp_path, "d.json", same, json.dumps(retyped))[0] == 2


def test_largest_move_names_its_place(tmp_path):
    old = {"summary": {"T_hit": 0.0303, "T_star": 0.0367}, "rho": 10.0}
    new = {"summary": {"T_hit": 0.0303 * (1 + 1e-15), "T_star": 0.0743}, "rho": 10.0}
    status, msg = _pair(tmp_path, "r.json", json.dumps(old), json.dumps(new))
    assert (status, msg) == (1, "2 floats moved, largest relative move 5.061e-01 "
                                "at /summary/T_star")
    csv_old = "t,dev\n0.0,1.0\n0.1,0.5\n0.2,0.25\n"
    csv_new = "t,dev\n0.0,1.0000000000000002\n0.1,0.5\n0.2,0.3\n"
    status, msg = _pair(tmp_path, "r.csv", csv_old, csv_new)
    assert status == 1 and msg.endswith("largest relative move 1.667e-01 at row 3 column 1")


def test_csv_verdicts(tmp_path):
    old = "t,u_norm\n0.0,1.0\n0.1,2.0\n"
    status, msg = _pair(tmp_path, "a.csv", old, "t,u_norm\n0.0,1.0\n0.1,2.0000000000000004\n")
    assert status == 1 and msg.startswith("1 floats moved")
    assert msg.endswith(" at row 2 column 1")
    assert _pair(tmp_path, "b.csv", old, "t,v_norm\n0.0,1.0\n0.1,2.0\n")[0] == 2
    assert _pair(tmp_path, "c.csv", old, old + "0.2,3.0\n")[0] == 2


@pytest.mark.parametrize("codes, status", [((2, 2), 2), ((0, 1), 2), ((1, 0), 2), ((0, 0), 0)])
def test_nonzero_exit_fails_the_gate(tmp_path, monkeypatch, capsys, codes, status):
    # a config that exits 2 in both trees writes no artifacts; that is no pass
    config = tmp_path / "cfg.yaml"
    monkeypatch.setattr(compare_artifacts, "_configs", lambda tree: [config])

    def run(tree, config, outdir):
        side = outdir.parent.name
        code = codes[0] if side == "old" else codes[1]
        if code == 0:
            outdir.mkdir(parents=True)
            (outdir / "report.json").write_text("{}")
        return code

    monkeypatch.setattr(compare_artifacts, "_run", run)
    assert compare_artifacts.main([str(tmp_path), str(tmp_path),
                                   "--out", str(tmp_path / "out")]) == status
    printed = capsys.readouterr().out
    assert (f"cfg: exit code {codes[0]} -> {codes[1]}" in printed) == (status == 2)
