"""Every function the bench tracer wraps still exists.

``bench/tracer.py`` wraps the functions listed in its ``LAYERS`` table by
name; a name that no longer resolves breaks the traced benchmark run.
The table is read with ``ast``, so the tracer module is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers() -> dict:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


NAMES = [(layer, name) for layer, names in _layers().items() for name in names]


def test_the_table_is_not_empty():
    assert len(NAMES) > 40


@pytest.mark.parametrize("layer, name", NAMES, ids=[f"{layer}.{name}" for layer, name in NAMES])
def test_traced_name_resolves(layer, name):
    obj = importlib.import_module(f"ctmcbisim.{layer}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
