"""The runtime stays pure stdlib: every module of the package imports only
the standard library and its own modules."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oddplanar"
MODULES = sorted(PACKAGE.glob("*.py"))


def outside_imports(source: str) -> list[str]:
    """The absolute imports in ``source`` whose top-level module is not in
    the standard library."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    return out


def test_package_modules_are_found():
    assert PACKAGE / "__init__.py" in MODULES and len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_package(path):
    assert outside_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "line",
    [
        "import networkx",
        "from hypothesis import given",
        "from enumeration import enumerate_drawings",
        "import oddplanar.drawing",
    ],
)
def test_guard_flags_outside_imports(line):
    source = f"from __future__ import annotations\nfrom . import graphs\nimport json\n\ndef f():\n    {line}\n"
    assert outside_imports(source) == [line.split()[1]]
