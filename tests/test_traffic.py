"""tools/traffic.py: the executable statements of a source and their verdicts."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "traffic.py"
_spec = importlib.util.spec_from_file_location("traffic", _PATH)
traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic)

SOURCE = '''"""Module docstring."""
import os
from math import pi

LIMIT = 3


class Box:
    """Class docstring."""

    size = 2

    def grow(self, n):
        """Method docstring."""
        if (n >
                LIMIT):
            raise ValueError(
                "too big")
        try:
            self.size += n
        except TypeError:
            pass
        return self.size
'''


def test_statements_skip_docstrings_definitions_and_imports():
    stmts = traffic.statements(SOURCE)
    assert [s.line for s in stmts] == [5, 11, 15, 17, 19, 20, 22, 23]
    lines = {s.line: s.lines for s in stmts}
    # a compound statement owns its header, a simple one all of its lines
    assert lines[15] == {15, 16}
    assert lines[17] == {17, 18}
    assert lines[19] == {19}
    assert [s.line for s in stmts if s.at_import] == [5, 11]


def test_classify_counts_import_time_statements_for_every_run():
    stmts = traffic.statements(SOURCE)
    hits = {"tier-1": {5, 11, 15, 16, 17, 19, 20, 23}, "configs": {15, 19, 20, 23},
            "workloads": set()}
    only, unreached = traffic.classify(stmts, hits)
    assert only == [17]
    assert unreached == [22]
