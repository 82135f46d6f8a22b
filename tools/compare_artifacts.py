"""Compare the CLI artifacts of two source trees, file by file.

    python tools/compare_artifacts.py OLD_TREE NEW_TREE [--out DIR] [--config PATH ...]

Both trees are repository roots (each with ``src/mintime``). The configs are
taken from NEW_TREE: every ``configs/*.yaml`` plus ``bench/gradient_2d.yaml``,
and each ``--config`` file (repeatable), such as a variant kept outside the
repository. Each config runs once under each tree's code (``python -m mintime.cli``),
into ``DIR/old/<name>`` and ``DIR/new/<name>``. For every artifact one line
is printed:

    <name>/<file>: identical
    <name>/<file>: <k> floats moved, largest relative move <r> at <where>
    <name>/<file>: non-float difference at <where>: <old> -> <new>

A run that exits nonzero in either tree prints

    <name>: exit code <old> -> <new>

JSON is compared value by value (floats by value, everything else exactly),
CSV cell by cell; <where> is a JSON path such as ``/summary/T_star`` or a
CSV cell ``row <r> column <c>``. The exit status is 0 when every run exits 0
and every file is identical, 1 when only floats moved, and 2 on any other
difference (including a file present in one tree only) or on a nonzero CLI
exit in either tree: a config that fails in both trees writes no artifacts
to compare, so it must not read as a pass.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml


def _configs(tree: Path) -> list[Path]:
    return sorted((tree / "configs").glob("*.yaml")) + [tree / "bench" / "gradient_2d.yaml"]


def _run(tree: Path, config: Path, outdir: Path) -> int:
    command = yaml.safe_load(config.read_text())["command"]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "mintime.cli", command, "--config", str(config),
         "--out", str(outdir)],
        env=env, capture_output=True, text=True,
    )
    return proc.returncode


class _Diff:
    """Accumulates the float moves, where the largest one is, and the first
    non-float difference."""

    def __init__(self):
        self.moved = 0
        self.max_rel = 0.0
        self.max_where = ""
        self.other: str | None = None

    def floats(self, where: str, a: float, b: float) -> None:
        if a == b or (a != a and b != b):  # equal, or both NaN
            return
        self.moved += 1
        scale = max(abs(a), abs(b))
        rel = abs(a - b) / scale if scale > 0 and scale != float("inf") else float("inf")
        if self.moved == 1 or rel > self.max_rel:
            self.max_rel, self.max_where = rel, where

    def mismatch(self, where: str, a, b) -> None:
        if self.other is None:
            self.other = f"{where}: {a!r} -> {b!r}"


def _walk_json(a, b, where: str, diff: _Diff) -> None:
    if isinstance(a, float) and isinstance(b, float):
        diff.floats(where or "/", a, b)
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            diff.mismatch(f"{where or '/'} keys", sorted(a), sorted(b))
        for key in sorted(a.keys() & b.keys()):
            _walk_json(a[key], b[key], f"{where}/{key}", diff)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diff.mismatch(f"{where} length", len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            _walk_json(x, y, f"{where}[{i}]", diff)
    elif type(a) is not type(b) or a != b:
        diff.mismatch(where or "/", a, b)


def _as_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _walk_csv(a: str, b: str, diff: _Diff) -> None:
    rows_a = [line.split(",") for line in a.splitlines()]
    rows_b = [line.split(",") for line in b.splitlines()]
    if len(rows_a) != len(rows_b):
        diff.mismatch("row count", len(rows_a), len(rows_b))
    if rows_a[:1] != rows_b[:1]:
        diff.mismatch("header", rows_a[:1], rows_b[:1])
    for r, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(ra) != len(rb):
            diff.mismatch(f"row {r} width", len(ra), len(rb))
        for c, (x, y) in enumerate(zip(ra, rb)):
            fx, fy = _as_float(x), _as_float(y)
            if fx is not None and fy is not None:
                diff.floats(f"row {r} column {c}", fx, fy)
            elif x != y:
                diff.mismatch(f"row {r} column {c}", x, y)


def compare_file(old: Path, new: Path) -> tuple[int, str]:
    """(status, message) for one artifact: 0 identical, 1 floats moved, 2 other."""
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        return 0, "identical"
    diff = _Diff()
    if old.suffix == ".json":
        _walk_json(json.loads(a), json.loads(b), "", diff)
    elif old.suffix == ".csv":
        _walk_csv(a.decode(), b.decode(), diff)
    else:
        diff.mismatch("bytes", f"{len(a)} bytes", f"{len(b)} bytes")
    if diff.other is not None:
        return 2, f"non-float difference at {diff.other}"
    if diff.moved == 0:  # same values, different text (e.g. -0.0 vs 0.0)
        return 1, "same values, different bytes"
    return 1, (f"{diff.moved} floats moved, largest relative move {diff.max_rel:.3e} "
               f"at {diff.max_where}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="repository root of the reference tree")
    parser.add_argument("new", type=Path, help="repository root of the changed tree")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to keep the artifacts (default: a temporary directory)")
    parser.add_argument("--config", type=Path, action="append", default=[],
                        help="one more config to compare (repeatable)")
    args = parser.parse_args(argv)
    configs = _configs(args.new.resolve()) + [c.resolve() for c in args.config]
    stems = [c.stem for c in configs]
    if len(set(stems)) < len(stems):
        parser.error(f"config names must differ, since each names its artifact directory: {stems}")
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or Path(tmp)
        worst = 0
        for config in configs:
            name = config.stem
            codes = [_run(tree.resolve(), config, out / side / name)
                     for side, tree in (("old", args.old), ("new", args.new))]
            if codes != [0, 0]:
                print(f"{name}: exit code {codes[0]} -> {codes[1]}")
                worst = 2
            files = sorted({p.relative_to(out / side / name)
                            for side in ("old", "new")
                            for p in (out / side / name).rglob("*") if p.is_file()})
            for rel in files:
                old, new = out / "old" / name / rel, out / "new" / name / rel
                if not (old.exists() and new.exists()):
                    status, msg = 2, f"only in {'old' if old.exists() else 'new'}"
                else:
                    status, msg = compare_file(old, new)
                worst = max(worst, status)
                print(f"{name}/{rel}: {msg}", flush=True)
        return worst


if __name__ == "__main__":
    sys.exit(main())
