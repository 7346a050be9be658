"""Every name that the package exports has a caller outside the tests.

``src/ctmcbisim/__init__.py`` is parsed with ``ast`` for ``__all__``.  Each
name in it must be read somewhere in the other package modules or in a
script under ``demos/``, ``bench/`` or ``tools/``, and not only inside its
own definition: as a name, as an attribute, or as a string that is a
dotted name, the form in which ``bench/tracer.py`` names the routines it
wraps.  A word in a docstring or a comment is no read.  A name that only
``tests/`` reads is surface without a use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("demos", "bench", "tools")


def _exported(init_text: str) -> list[str]:
    for node in ast.parse(init_text).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError("no __all__")


def _reads(tree: ast.Module) -> set[str]:
    """The names, attributes and dotted-name strings that ``tree`` reads,
    each outside the module-level function or class of that name."""
    out = set()
    for top in tree.body:
        reads = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    reads.update(parts)
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            reads.discard(top.name)
        out |= reads
    return out


def _uncalled(exported: list[str], sources: list[str]) -> list[str]:
    """The names of ``exported`` that no text of ``sources`` reads."""
    read = set().union(*(_reads(ast.parse(text)) for text in sources))
    return sorted(name for name in exported if name not in read)


def _caller_files(root: Path) -> list[Path]:
    files = sorted(p for p in (root / "src" / "ctmcbisim").glob("*.py") if p.name != "__init__.py")
    return files + [p for d in CALLER_DIRS for p in sorted((root / d).rglob("*.py"))]


def _uncalled_exports(root: Path) -> list[str]:
    init = (root / "src" / "ctmcbisim" / "__init__.py").read_text(encoding="utf-8")
    return _uncalled(_exported(init), [p.read_text(encoding="utf-8") for p in _caller_files(root)])


def test_the_gate_sees_the_exports_and_their_callers():
    exported = _exported((ROOT / "src" / "ctmcbisim" / "__init__.py").read_text(encoding="utf-8"))
    assert {"epsilon_delta_bisim", "uniformization_bound", "Ctmc", "timed_reach_curve"} <= set(exported)
    files = _caller_files(ROOT)
    assert ROOT / "src" / "ctmcbisim" / "cli.py" in files
    assert ROOT / "src" / "ctmcbisim" / "__init__.py" not in files
    assert all(any(p.parent.name == d for p in files) for d in CALLER_DIRS)


def test_every_exported_name_has_a_caller():
    assert _uncalled_exports(ROOT) == []


def test_gate_sees_an_uncalled_name():
    exported = ["used", "Attr", "wrapped", "Method", "self_only", "dead", "Recursive", "mentioned"]
    sources = [
        "print(Recursive.x)\n\ndef self_only(n):\n    return self_only(n - 1)\n",
        "class Recursive:\n    x = Recursive\n",
        "import m\nprint(used, m.Attr)\nused = 1\nLAYERS = ('wrapped', 'Method.run')\n",
        'def dead():\n    """Unlike mentioned, or mentioned(1)."""\n    # mentioned\n',
    ]
    assert _uncalled(exported, sources) == ["dead", "mentioned", "self_only"]
