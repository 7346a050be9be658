"""Every public name of the package has a caller outside the tests.

``src/ctmcbisim/__init__.py`` is parsed with ``ast`` for ``__all__``.  The
gated names are each name in it, each public module-level function or
class of a package module, and each public method, property or cached
property of a class in ``__all__``; public means without a leading
underscore.  Two modules are exempt from the module-level rule:
``fixtures`` holds example chains for the tests and demos, and ``cli``
holds the ``cmd_*`` functions, which ``main`` looks up by name.

Each gated name must be read somewhere in the package modules other than
``__init__.py`` or in a script under ``demos/``, ``bench/`` or ``tools/``,
and not only inside its own definition: as a name, as an attribute, or as
a string that is a dotted name, the form in which ``bench/tracer.py`` names
the routines it wraps.  A word in a docstring or a comment is no read.  A
name that only ``tests/`` reads is surface without a use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ctmcbisim"
CALLER_DIRS = ("demos", "bench", "tools")
EXEMPT = ("fixtures", "cli")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _exported(init_text: str) -> list[str]:
    for node in ast.parse(init_text).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError("no __all__")


def _reads(node: ast.AST) -> set[str]:
    """The names, attributes and dotted-name strings read under ``node``,
    each outside the function, method or class of that name."""
    reads = set().union(*map(_reads, ast.iter_child_nodes(node)))
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        reads.add(node.id)
    elif isinstance(node, ast.Attribute):
        reads.add(node.attr)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        parts = node.value.split(".")
        if all(part.isidentifier() for part in parts):
            reads.update(parts)
    elif isinstance(node, _DEFS):
        reads.discard(node.name)
    return reads


def _gated(package: dict[str, str], exported: list[str]) -> list[str]:
    """``module.name`` for each public module-level function or class of
    ``package`` (module name -> source) outside ``EXEMPT``, and
    ``module.Class.name`` for each public method of a class in ``exported``."""
    out = []
    for module, text in package.items():
        for top in ast.parse(text).body:
            if not isinstance(top, _DEFS):
                continue
            if module not in EXEMPT and not top.name.startswith("_"):
                out.append(f"{module}.{top.name}")
            if isinstance(top, ast.ClassDef) and top.name in exported:
                methods = [node.name for node in top.body if isinstance(node, _DEFS[:2])]
                out += [f"{module}.{top.name}.{name}" for name in methods if not name.startswith("_")]
    return out


def _uncalled(names: list[str], sources: list[str]) -> list[str]:
    """The names of ``names`` whose last dotted part no text of ``sources`` reads."""
    read = set().union(*(_reads(ast.parse(text)) for text in sources))
    return sorted(name for name in names if name.rsplit(".", 1)[-1] not in read)


def _package_files(root: Path) -> list[Path]:
    return sorted(p for p in (root / "src" / "ctmcbisim").glob("*.py") if p.name != "__init__.py")


def _package_sources(root: Path) -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in _package_files(root)}


def _caller_files(root: Path) -> list[Path]:
    return _package_files(root) + [p for d in CALLER_DIRS for p in sorted((root / d).rglob("*.py"))]


def _uncalled_surface(root: Path) -> list[str]:
    exported = _exported((root / "src" / "ctmcbisim" / "__init__.py").read_text(encoding="utf-8"))
    names = exported + _gated(_package_sources(root), exported)
    return _uncalled(names, [p.read_text(encoding="utf-8") for p in _caller_files(root)])


def test_the_gate_sees_the_exports_and_their_callers():
    exported = _exported((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert {"epsilon_delta_bisim", "uniformization_bound", "Ctmc", "timed_reach_curve"} <= set(exported)
    files = _caller_files(ROOT)
    assert PACKAGE / "cli.py" in files
    assert PACKAGE / "__init__.py" not in files
    assert all(any(p.parent.name == d for p in files) for d in CALLER_DIRS)


def test_the_gate_sees_the_methods_and_the_module_functions():
    gated = set(_gated(_package_sources(ROOT), _exported((PACKAGE / "__init__.py").read_text(encoding="utf-8"))))
    assert {
        "bisim.PairRelation.off_diagonal",  # a method
        "bisim.PairRelation.pairs",  # a cached property
        "bisim.Partition.n",  # a property
        "curves.BoundCurve.to_csv",
        "model.restrict",  # a module function that __all__ does not name
        "errors.CtmcError",  # a module-level class
    } <= gated
    assert not any(name.startswith(("fixtures.", "cli.")) for name in gated)
    assert not any(part.startswith("_") for name in gated for part in name.split("."))


def test_every_exported_name_has_a_caller():
    assert _uncalled_surface(ROOT) == []


def test_gate_sees_an_uncalled_name():
    exported = ["used", "Attr", "wrapped", "Method", "self_only", "dead", "Recursive", "mentioned"]
    sources = [
        "print(Recursive.x)\n\ndef self_only(n):\n    return self_only(n - 1)\n",
        "class Recursive:\n    x = Recursive\n",
        "import m\nprint(used, m.Attr)\nused = 1\nLAYERS = ('wrapped', 'Method.run')\n",
        'def dead():\n    """Unlike mentioned, or mentioned(1)."""\n    # mentioned\n',
    ]
    assert _uncalled(exported, sources) == ["dead", "mentioned", "self_only"]


def test_gate_sees_a_test_only_method_and_function():
    package = {
        "a": (
            "class C:\n"
            "    def used(self):\n        return 0\n\n"
            "    def own(self):\n        return self.own()\n\n"
            "    @property\n    def test_only(self):\n        return 1\n\n"
            "    def _private(self):\n        return 0\n\n"
            "def helper():\n    return C().used()\n\n"
            "def test_only_function():\n    return helper()\n\n"
            "class Hidden:\n    def unexported(self):\n        return 0\n"
        ),
        "fixtures": "def example_chain():\n    return 1\n",
    }
    gated = _gated(package, ["C"])
    assert gated == ["a.C", "a.C.used", "a.C.own", "a.C.test_only", "a.helper", "a.test_only_function", "a.Hidden"]
    callers = [package["a"], "from a import C\nC().used()\n"]
    tests_only = "from a import C, test_only_function\nC().test_only\nC().own()\ntest_only_function()\n"
    assert _uncalled(gated, callers) == ["a.C.own", "a.C.test_only", "a.Hidden", "a.test_only_function"]
    assert _uncalled(gated, callers + [tests_only]) == ["a.Hidden"]
