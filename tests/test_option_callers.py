"""Every optional parameter of the package is set by some caller.

Each ``def`` under ``src/ctmcbisim/`` (methods and nested functions
included) is parsed with ``ast``.  A parameter with a default must be
passed by some call under ``src/``, ``tests/``, ``demos/`` or ``bench/``:
by keyword, or positionally at its index (for a method, counted from the
first argument after ``self``).  A call that spreads ``*args`` or
``**kwargs`` sets every parameter, and so does any use of the function as
a value (aliased, passed on, wrapped in ``partial``), since the calls it
then gets cannot be read.  Calls match by the function's name.  A default
that no caller overrides is a constant and should be written as one."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ctmcbisim"
CALLER_DIRS = ("src", "tests", "demos", "bench")


def _options(tree: ast.Module) -> list[tuple[str, int, int, str]]:
    """``(function, line, positional index, parameter)`` for each parameter
    with a default; keyword-only ones get index -1."""
    out = []

    def visit(node: ast.AST, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                skip = 1 if in_class and not static else 0
                first = len(positional) - len(a.defaults)
                for i in range(first, len(positional)):
                    out.append((child.name, child.lineno, i - skip, positional[i].arg))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out.append((child.name, child.lineno, -1, arg.arg))
                visit(child, False)
            else:
                visit(child, isinstance(child, ast.ClassDef))

    visit(tree, False)
    return out


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _settings(trees) -> tuple[dict[str, set], set[str]]:
    """Per function name, the keywords and positional indices its calls
    pass, plus the names every parameter of which counts as set."""
    passed: dict[str, set] = defaultdict(set)
    everything: set[str] = set()
    for tree in trees:
        callees = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callees.add(id(node.func))
            name = _called_name(node.func)
            if name is None:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                everything.add(name)
            passed[name] |= set(range(len(node.args))) | {k.arg for k in node.keywords}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                if id(node) not in callees:
                    everything.add(_called_name(node))
    return passed, everything


def _unset_options(package: dict[str, str], callers: list[str]) -> list[str]:
    """``module:line: function(parameter)`` for each defaulted parameter of
    ``package`` (module name -> source) that no source in ``callers`` sets."""
    passed, everything = _settings(ast.parse(text) for text in callers)
    unset = []
    for module, text in package.items():
        for name, line, index, param in _options(ast.parse(text)):
            if name in everything or param in passed[name] or index in passed[name]:
                continue
            unset.append(f"{module}:{line}: {name}({param})")
    return unset


def _package_sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def _caller_sources() -> list[str]:
    return [p.read_text(encoding="utf-8") for d in CALLER_DIRS for p in sorted((ROOT / d).rglob("*.py"))]


def test_the_gate_sees_the_package():
    package = _package_sources()
    assert {"spectral", "erlang", "cli", "model", "fixtures"} <= set(package)
    options = {(name, param) for text in package.values() for name, _, _, param in _options(ast.parse(text))}
    assert {("simulate_paths", "max_jumps"), ("normalize_goal", "goals"), ("_at_least", "strict")} <= options
    assert len(_caller_sources()) > len(package)


def test_every_option_has_a_caller():
    assert _unset_options(_package_sources(), _caller_sources()) == []


def test_gate_sees_an_unset_option():
    package = {
        "a": (
            "def f(x, y=1, *, z=2):\n    return x\n\n"
            "class C:\n    def m(self, p=0, q=1):\n        def inner(r=3):\n            return r\n        return inner()\n\n"
            "def g(u=0):\n    return u\n\n"
            "def h(v=0):\n    return v\n"
        ),
    }
    callers = [
        "f(1, z=3)\nC().m(5)\n",
        "k = g\nh(*args)\n",
    ]
    assert _unset_options(package, callers) == ["a:1: f(y)", "a:5: m(q)", "a:6: inner(r)"]
