"""The Python quick start of the README runs as written.

The first ``python`` block under "Library quick start" is executed in a
fresh namespace.  Every membership test ``... in R`` in it must ask about
a pair of state indices, since a ``PairRelation`` holds indices and a
pair of state ids is never in it.
"""

import ast
import pathlib
import re

from ctmcbisim import PairRelation

README = pathlib.Path(__file__).parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_quick_start_runs_and_asks_about_state_indices():
    source = _quick_start()
    namespace: dict = {}
    exec(compile(source, str(README), "exec"), namespace)
    assert isinstance(namespace["R"], PairRelation)
    asked = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In):
            if isinstance(node.comparators[0], ast.Name) and node.comparators[0].id == "R":
                asked.append(eval(compile(ast.Expression(node.left), str(README), "eval"), namespace))
    assert asked
    for pair in asked:
        assert len(pair) == 2 and all(isinstance(s, int) and 0 <= s < namespace["R"].n for s in pair), pair
