"""README's "Numerical thresholds" table against the package's constants."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import gpdist

README = Path(__file__).resolve().parents[1] / "README.md"
THRESHOLD = re.compile(r"^[A-Z][A-Z0-9_]*_(TOL|EPS|FLOOR|WARN)$")


def threshold_rows() -> dict[str, tuple[str, str]]:
    """``{name: (module, value)}`` from the table under the section."""
    section = README.read_text().split("## Numerical thresholds", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        m = re.match(r"^\| `(\w+)` \| `(\w+)` \| ([^|]+) \|", line)
        if m:
            rows[m.group(1)] = (m.group(2), m.group(3).strip())
    return rows


def module_thresholds() -> set[tuple[str, str]]:
    """``(module, name)`` of every threshold assigned at module level."""
    found = set()
    for info in pkgutil.iter_modules(gpdist.__path__):
        source = Path(gpdist.__path__[0], f"{info.name}.py").read_text()
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign):
                found |= {(info.name, t.id) for t in node.targets
                          if isinstance(t, ast.Name) and THRESHOLD.match(t.id)}
    return found


def test_table_is_not_empty():
    assert len(threshold_rows()) >= 10


@pytest.mark.parametrize("name", sorted(threshold_rows()))
def test_row_matches_constant(name):
    module, value = threshold_rows()[name]
    mod = importlib.import_module(f"gpdist.{module}")
    assert getattr(mod, name) == float(value)


def test_every_threshold_has_a_row():
    rows = {(module, name) for name, (module, _) in threshold_rows().items()}
    assert module_thresholds() - rows == set()
