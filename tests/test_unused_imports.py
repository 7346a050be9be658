"""No module of the package imports a name it never uses.

Each module but ``__init__.py`` (whose imports are the package's exports)
is parsed with ``ast``; every name an ``import`` binds must be read
somewhere else in the same module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctmcbisim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_modules_are_found():
    assert {"erlang.py", "spectral.py", "pairuniform.py", "fixtures.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_gate_sees_an_unused_import():
    source = "import math\nimport numpy as np\nfrom .transient import reach_prob, MAX_TERMS\nx = np.zeros(MAX_TERMS)\n"
    assert _unused_imports(source) == ["line 1: math", "line 3: reach_prob"]
