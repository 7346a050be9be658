"""No module of the package defines a private name that nothing reads.

Each ``src/ctmcbisim/*.py`` is parsed with ``ast``.  A module-level
function, class or constant whose name starts with one underscore must be
read somewhere under ``src/``: as a name in its own module, imported by
name from it by a sibling module, or as an attribute."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctmcbisim"


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, ast.Assign):
            out += [(t.id, node.lineno) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append((node.target.id, node.lineno))
    return [(name, line) for name, line in out if name.startswith("_") and not name.startswith("__")]


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module:line: name`` for each private module-level name of
    ``sources`` (module name -> source text) that no module reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    imported: set[tuple[str, str]] = set()
    attributes: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imported |= {(node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    dead = []
    for module, tree in trees.items():
        local = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for name, line in _private_definitions(tree):
            if name not in local and (module, name) not in imported and name not in attributes:
                dead.append(f"{module}:{line}: {name}")
    return dead


def _package_sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def test_the_gate_sees_the_package():
    sources = _package_sources()
    assert {"spectral", "erlang", "cli", "bisim"} <= set(sources)
    private = [name for text in sources.values() for name, _ in _private_definitions(ast.parse(text))]
    assert {"_project_out", "_NUMERICAL_ERRORS", "_uniform_rate"} <= set(private)


def test_no_dead_private_name():
    assert _dead_private_names(_package_sources()) == []


def test_gate_sees_a_dead_name():
    sources = {
        "a": "_USED = 1\n_DEAD = 2\n\ndef _helper():\n    return _USED\n\nclass _Gone:\n    pass\n",
        "b": "from .a import _helper\nimport a\n_X: int = _helper()\nprint(a._Y, _X)\n",
        "c": "_Y = 3\n_Z = 4\n",
    }
    assert _dead_private_names(sources) == ["a:2: _DEAD", "a:7: _Gone", "c:2: _Z"]
