"""``pair-uniformize`` writes the text of ``json.dumps(report, indent=2)``.

The command writes its two uniform chains through the model writer,
nested in the report.  The reference below builds the report as the
command once did, with ``model_to_dict`` for each chain, and lets ``json``
write it; stdout and the ``--out FILE`` text must both equal it, on a
pair with and without an ``ordering_warning`` and with ``--relation``."""

from __future__ import annotations

import json
import math
import warnings

import pytest

from ctmcbisim import direct_sum, epsilon_delta_bisim, fixtures, save_model, scale
from ctmcbisim.bisim import load_relation, relation_to_dict
from ctmcbisim.cli import main
from ctmcbisim.errors import OrderingAssumptionViolated
from ctmcbisim.model import load_model, model_to_dict
from ctmcbisim.pairuniform import uniformize_pair

DELTA = 0.1


def _reference(pa: str, pb: str, delta: float, relation: str | None) -> str:
    A, B = load_model(pa), load_model(pb)
    joint = direct_sum(A, B)
    R = load_relation(relation, joint) if relation is not None else epsilon_delta_bisim(joint, 0.0, delta)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = uniformize_pair(A, B, R, delta)
    notes = [str(w.message) for w in caught if issubclass(w.category, OrderingAssumptionViolated)]
    report = {
        "q_m": res.q_m,
        "q_n": res.q_n,
        "rate_ratio": res.q_n / res.q_m,
        "model_a": model_to_dict(res.m_uniform),
        "model_b": model_to_dict(res.n_uniform),
        "relation": relation_to_dict(res.relation, joint),
    }
    if notes:
        report["ordering_warning"] = notes[0]
    return json.dumps(report, indent=2) + "\n"


def _pair(tmp_path, swapped: bool, with_relation: bool) -> tuple[str, str, str | None]:
    base = fixtures.branch_merge_chain()
    fast = scale(base, math.exp(DELTA))
    a, b = (fast, base) if swapped else (base, fast)  # swapped roles break the ordering assumption
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_model(a, str(pa))
    save_model(b, str(pb))
    rel = None
    if with_relation:
        joint = direct_sum(a, b)
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps(relation_to_dict(epsilon_delta_bisim(joint, 0.0, DELTA), joint)))
    return str(pa), str(pb), None if rel is None else str(rel)


@pytest.mark.parametrize("swapped", [False, True], ids=["ordered", "swapped"])
@pytest.mark.parametrize("with_relation", [False, True], ids=["fixpoint", "relation"])
def test_report_text_is_json_of_the_model_to_dict_report(capsys, tmp_path, swapped, with_relation):
    pa, pb, rel = _pair(tmp_path, swapped, with_relation)
    argv = ["pair-uniformize", "-m", pa, "--model-b", pb, "--delta", str(DELTA)]
    argv += [] if rel is None else ["--relation", rel]
    expect = _reference(pa, pb, DELTA, rel)
    assert ('"ordering_warning"' in expect) is swapped

    assert main(argv) == 0
    assert capsys.readouterr().out == expect

    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == expect.encode("utf-8")
