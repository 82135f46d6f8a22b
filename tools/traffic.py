"""Which statements of ``src/mintime`` the tests, the configs and the benchmark reach.

    python tools/traffic.py

Runs three things in this process under a line trace (``sys.settrace``,
restricted to code in ``src/mintime``):

- tier-1: the test suite, through ``pytest.main``;
- the configs: every ``configs/*.yaml`` and ``bench/gradient_2d.yaml``
  through ``mintime.cli.run``, into a temporary directory;
- the workloads: one pass of each workload of ``bench/workloads.py`` at
  seed 1, every operation with its check.

Then it prints, per module, the line numbers of the executable statements
that only tier-1 reaches and of those that nothing reaches. Executable
statements are the statements of the module's syntax tree other than
docstrings, ``def``, ``class`` and imports. A statement is reached when a
line event fires on one of its lines: any line of a simple statement, a
header line of a compound one. A statement outside every function runs when
its module is imported, so it counts for every run once any run reaches it.

The listing goes to stdout; pytest's output and the runs' errors go to
stderr. The exit status is 1 when a config run exits nonzero or a workload
operation raises or fails its check, and 0 otherwise: a failing test shows
in pytest's output only. No bytecode is cached, so nothing is written under
``bench/``.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import tempfile
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mintime"
RUNS = ("tier-1", "configs", "workloads")

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


class Statement(NamedTuple):
    line: int                # the first line
    lines: frozenset[int]    # the lines whose line event marks it reached
    at_import: bool          # outside every function


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, _SCOPES) and parent.body[0] is node
            and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _own_lines(node: ast.stmt) -> frozenset[int]:
    """All lines of a simple statement; a compound one's header, up to its body."""
    body = getattr(node, "body", None)
    end = body[0].lineno if body else node.end_lineno + 1
    return frozenset(range(node.lineno, max(end, node.lineno + 1)))


def statements(source: str) -> list[Statement]:
    """The executable statements of a module's source, in source order."""
    out: list[Statement] = []

    def visit(parent: ast.AST, at_import: bool) -> None:
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.stmt):
                if not (isinstance(node, _SKIPPED) or _is_docstring(node, parent)):
                    out.append(Statement(node.lineno, _own_lines(node), at_import))
                visit(node, at_import and not isinstance(node, (ast.FunctionDef,
                                                                ast.AsyncFunctionDef)))
            elif isinstance(node, (ast.excepthandler, ast.match_case)):
                visit(node, at_import)

    visit(ast.parse(source), True)
    return sorted(out, key=lambda s: s.line)


def classify(stmts: list[Statement], hits: dict[str, set[int]]) -> tuple[list[int], list[int]]:
    """The first lines of the statements that only tier-1 reaches and of
    those that no run reaches, given each run's fired lines in the module."""
    only, unreached = [], []
    for st in stmts:
        runs = {run for run in RUNS if st.lines & hits[run]}
        if st.at_import and runs:
            runs = set(RUNS)
        if not runs:
            unreached.append(st.line)
        elif runs == {"tier-1"}:
            only.append(st.line)
    return only, unreached


class _Tracer:
    """Collects (module file name, line) of every line event in ``SRC``,
    into the set of the run in progress."""

    def __init__(self):
        self.hits = {run: set() for run in RUNS}
        self.current: set = set()
        self._local: dict = {}  # co_filename -> its local trace function, or None

    def _for_file(self, name: str):
        if name not in self._local:
            path = Path(name).resolve()
            self._local[name] = self._recorder(path.name) if path.parent == SRC else None
        return self._local[name]

    def _recorder(self, module: str):
        def local(frame, event, arg):
            if event == "line":
                self.current.add((module, frame.f_lineno))
            return local
        return local

    def _global(self, frame, event, arg):
        return self._for_file(frame.f_code.co_filename)

    @contextlib.contextmanager
    def run(self, name: str):
        self.current = self.hits[name]
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)


def _tier1() -> list[str]:
    import pytest

    with contextlib.redirect_stdout(sys.stderr):
        pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    return []


def _configs(out: Path) -> list[str]:
    from mintime.cli import run

    paths = sorted((ROOT / "configs").glob("*.yaml")) + [ROOT / "bench" / "gradient_2d.yaml"]
    codes = [(p.name, run(p, out / p.stem)) for p in paths]
    return [f"config {name}: exit {code}" for name, code in codes if code]


def _workloads() -> list[str]:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    failures = []
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 1).ops:
            try:
                message = op.check(op.call())
            except Exception as exc:  # a raising operation is a failed one
                traceback.print_exc()
                message = f"raised {type(exc).__name__}: {exc}"
            if message is not None:
                failures.append(f"workload {name}, {op.name}: {message}")
    return failures


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    # as the tier-1 command sets it, for the tests that start a Python
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    tracer = _Tracer()
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, job in (("tier-1", _tier1), ("configs", lambda: _configs(Path(tmp))),
                          ("workloads", _workloads)):
            with tracer.run(name):
                failures += job()
    for failure in failures:
        print(f"FAILED {failure}")
    for path in sorted(SRC.glob("*.py")):
        hits = {run: {line for module, line in tracer.hits[run] if module == path.name}
                for run in RUNS}
        stmts = statements(path.read_text())
        only, unreached = classify(stmts, hits)
        print(f"{path.name}: {len(stmts)} statements, {len(only)} only tier-1, "
              f"{len(unreached)} unreached")
        for label, lines in (("only tier-1", only), ("unreached", unreached)):
            if lines:
                print(f"  {label}: {' '.join(map(str, lines))}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
