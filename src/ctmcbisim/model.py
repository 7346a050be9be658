"""Core chain data model and structural transformations.

Chains are immutable after construction; every operation returns a new
object.  States are index-based internally, with string ids kept for
I/O and error messages.  Probabilities and rates are double precision;
row sums are checked against an absolute tolerance of 1e-12 and never
silently renormalized.
"""

from __future__ import annotations

import array
import json
import math
import operator
import re
import reprlib
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import graph
from .errors import (
    CtmcError,
    EmptyGoalSet,
    NoGoalState,
    NonAbsorbingGoal,
    NonFiniteValue,
    NonpositiveRate,
    NonpositiveScale,
    RateTooSmall,
    RowSumError,
)

ROW_SUM_TOL = 1e-12
#: a state whose self-loop probability is >= 1 - ABSORBING_EPS counts as absorbing
ABSORBING_EPS = 1e-12


def _absorbing_states(P: np.ndarray) -> np.ndarray:
    """Mask of the absorbing states of the jump matrix ``P``."""
    return np.diag(P) >= 1.0 - ABSORBING_EPS


def _label_twin(M: Ctmc, s: int) -> int | None:
    """The first state other than ``s`` with ``s``'s label set, or None."""
    own = M.label_sets[s]
    return next((t for t, ls in enumerate(M.label_sets) if ls == own and t != s), None)


@dataclass(frozen=True, eq=False)
class Ctmc:
    """Finite labeled continuous-time chain.

    ``E[i]`` is the exit rate (1/time) of state ``i``; the jump
    distribution is ``P[i]``.  ``goal``/``fail`` are index tuples so
    that multi-goal input files survive a load/save round trip; the
    goal analyses read the single-goal normal form of
    :func:`_normal_form`.  ``rate_exprs`` remembers textual
    ``"exp(x)"`` rate expressions from input files for re-emission.
    """

    ids: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]
    P: np.ndarray
    E: np.ndarray
    initial: int
    goal: tuple[int, ...] = ()
    fail: tuple[int, ...] = ()
    rewards: np.ndarray | None = None
    rate_exprs: tuple[str | None, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        n = len(self.ids)
        if self.P.shape != (n, n):
            raise ValueError(f"P has shape {self.P.shape}, expected {(n, n)}")
        if self.E.shape != (n,):
            raise ValueError(f"E has shape {self.E.shape}, expected {(n,)}")
        if len(self.labels) != n:
            raise ValueError("labels/ids length mismatch")
        if not (0 <= self.initial < n):
            raise ValueError(f"initial index {self.initial} out of range")
        if self.rewards is not None and self.rewards.shape != (n,):
            raise ValueError("rewards length mismatch")
        # read-only views: the cached graph indexes below rely on P not changing
        for name in ("P", "E", "rewards"):
            a = getattr(self, name)
            if a is not None:
                view = a.view()
                view.flags.writeable = False
                object.__setattr__(self, name, view)

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def label_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(l) for l in self.labels)

    @cached_property
    def _positions(self) -> dict[str, int]:
        # the first occurrence wins, as with tuple.index
        return {sid: i for i, sid in reversed(tuple(enumerate(self.ids)))}

    def index(self, s: int | str) -> int:
        """Position of state ``s``, given by id or already by position."""
        i = self._positions.get(s) if isinstance(s, str) else s
        if isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < self.n:
            return int(i)
        raise KeyError(f"unknown state id {s!r}")

    @cached_property
    def succ(self) -> graph.Index:
        """Jump-graph index: ``s -> s'`` whenever ``P[s, s'] > 0``."""
        return graph.csr(self.P)

    @cached_property
    def pred(self) -> graph.Index:
        """The reversed jump graph."""
        return graph.csr(self.P.T)

    @cached_property
    def _goal_form(self) -> Ctmc | None:
        """:func:`_normal_form`, built on first use; None when it is this
        chain, which must not hold itself: the cycle would keep its
        arrays alive past its last reference, until the cycle collector
        runs."""
        seen = graph.reach(self.succ, [self.initial])
        if seen.isdisjoint(self.goal):
            seen.update(self.goal)
        form = normalize_goal(self if len(seen) == self.n else restrict(self, sorted(seen)))
        return None if form is self else form

    def goal_state(self) -> int:
        if len(self.goal) != 1:
            raise NoGoalState(f"need exactly one goal state, have {len(self.goal)}")
        return self.goal[0]

    def max_rate(self) -> float:
        return float(np.max(self.E))

    def is_uniform(self) -> bool:
        """Every exit rate equals ``E[0]`` within 1e-12, relative."""
        r = float(self.E[0])
        return bool(np.all(np.abs(self.E - r) <= 1e-12 * max(1.0, abs(r))))


# --------------------------------------------------------------------------
# construction helpers
# --------------------------------------------------------------------------


def make_ctmc(
    states: Sequence[tuple],
    transitions: Iterable[tuple[str, str, float]],
    initial: str,
    goal: Sequence[str] = (),
    fail: Sequence[str] = (),
) -> Ctmc:
    """Build a chain from readable pieces.

    ``states`` holds ``(id, labels, exit_rate)`` or
    ``(id, labels, exit_rate, reward)`` tuples; ``transitions`` holds
    ``(from_id, to_id, prob)`` with a number, not a str or bool, as prob;
    repeated ones add up, omitted ones are zero.  Goal and fail states are
    not checked, everything else is; an unknown state id raises ValueError
    naming its field.
    :func:`load_model` builds its chains here too, through the same
    :class:`_ChainBuilder`.
    """
    build = _ChainBuilder(states)
    build.add(transitions)
    return build.chain(initial, goal, fail)


class _ChainBuilder:
    """:func:`make_ctmc` in its three steps: the states, then any number
    of streamed passes over transitions, then the chain.  The streamed
    reader of :func:`load_model` runs a pass per chunk of its file."""

    def __init__(self, states: Sequence[tuple]):
        ids = tuple(s[0] for s in states)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate state ids")
        self.ids = ids
        self.idx = {sid: i for i, sid in enumerate(ids)}
        self.labels = tuple(tuple(s[1]) for s in states)
        self.E = np.array([float(s[2]) for s in states], dtype=float)
        self.rewards = None
        if any(len(s) > 3 for s in states):
            self.rewards = np.array([float(s[3]) if len(s) > 3 else 0.0 for s in states])
        n = len(ids)
        self.row = {sid: i * n for i, sid in enumerate(ids)}
        self.cells, self.probs = array.array("q"), array.array("d")

    def add(self, transitions: Iterable[tuple[str, str, float]]) -> None:
        """One streamed pass into typed buffers: flat cell and probability.
        The first bad entry stops it: an unknown id raises ValueError naming
        the entry and its field, and a probability that is not a number, a
        bool among them, TypeError.  A KeyError of ``transitions`` itself
        passes through."""
        cells, probs, row, idx = self.cells, self.probs, self.row, self.idx
        frm = to = None
        try:
            for frm, to, p in transitions:
                cells.append(row[frm] + idx[to])
                if p.__class__ is bool:
                    raise TypeError("a probability must be a number, not a bool")
                probs.append(p)
        except KeyError as err:
            # the ids of the entry that failed, or of the one before it when
            # the iterator raised; every entry before the bad one added a cell
            for field, sid in (("from", frm), ("to", to)):
                if err.args == (sid,) and sid not in idx:
                    raise ValueError(f"transitions[{len(cells)}].{field}: unknown state id {sid!r}") from None
            raise

    def chain(self, initial: str, goal: Sequence[str], fail: Sequence[str]) -> Ctmc:
        """The chain of the entries added; an unknown ``initial``, ``goal``
        or ``fail`` id raises ValueError naming its field."""
        idx = self.idx
        for where, names in (("initial", [initial]), ("goal", goal), ("fail", fail)):
            for name in names:
                if name not in idx:
                    raise ValueError(f"{where}: unknown state id {name!r}")
        n = len(self.ids)
        # bincount adds repeated entries in input order onto 0.0, as ``+=``
        # on a zero matrix does; with no entries it counts in int64
        P = np.bincount(self.cells, self.probs, n * n).astype(float, copy=False).reshape(n, n)
        del self.cells, self.probs  # freed before the checks below allocate theirs
        M = Ctmc(
            ids=self.ids,
            labels=self.labels,
            P=P,
            E=self.E,
            initial=idx[initial],
            goal=tuple(idx[g] for g in goal),
            fail=tuple(idx[f] for f in fail),
            rewards=self.rewards,
        )
        validate(replace(M, goal=(), fail=()))
        return M


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------


def validate(model: Ctmc, renormalize: bool = False) -> Ctmc:
    """Check the chain invariants and return the (possibly renormalized) chain.

    Raises the first violation found, with all further violations listed
    in ``err.all_violations``.  Row sums must be 1 within 1e-12, rates
    strictly positive, all probabilities in [0, 1], and no probability,
    rate or reward NaN or infinite; a singleton goal or fail state must be
    absorbing by :func:`_absorbing_states` and carry a label set no other
    state has.
    """
    if renormalize:
        sums = model.P.sum(axis=1)
        if np.any(sums <= 0):
            raise RowSumError(int(np.argmax(sums <= 0)), float(sums.min()))
        model = replace(model, P=model.P / sums[:, None])

    violations: list[CtmcError] = []
    for name in ("P", "E", "rewards"):
        a = getattr(model, name)
        if a is not None and not np.isfinite(a).all():
            at = tuple(np.argwhere(~np.isfinite(a))[0])
            where = ",".join(map(str, at))
            violations.append(NonFiniteValue(f"{name}[{where}]={float(a[at])!r} is not finite"))
    sums = model.P.sum(axis=1)
    for s in range(model.n):
        if abs(sums[s] - 1.0) > ROW_SUM_TOL:
            violations.append(RowSumError(s, float(sums[s])))
    outside = (model.P < 0.0) | (model.P > 1.0 + 1e-15)
    if outside.any():
        i, j = np.argwhere(outside)[0]
        violations.append(CtmcError(f"probability P[{i},{j}]={float(model.P[i, j])!r} outside [0,1]"))
    for s in range(model.n):
        if not model.E[s] > 0.0:
            violations.append(NonpositiveRate(s))

    for name, members in (("goal", model.goal), ("fail", model.fail)):
        if len(members) == 1:
            (g,) = members
            if not _absorbing_states(model.P)[g]:
                violations.append(NonAbsorbingGoal(f"{name} state {model.ids[g]!r} is not absorbing"))
            twin = _label_twin(model, g)
            if twin is not None:
                violations.append(
                    NonAbsorbingGoal(f"{name} state {model.ids[g]!r} shares its label set with {model.ids[twin]!r}")
                )

    if violations:
        err = violations[0]
        err.all_violations = violations  # type: ignore[attr-defined]
        if len(violations) > 1:
            err.args = (f"{err.args[0] if err.args else err}; plus {len(violations) - 1} more violation(s)",)
        raise err
    return model


# --------------------------------------------------------------------------
# structural transformations
# --------------------------------------------------------------------------


def direct_sum(M: Ctmc, N: Ctmc) -> Ctmc:
    """Disjoint union: M keeps its indices, N's are shifted by ``M.n``.

    The initial state of the sum is M's.  An id of N that M also has
    gets the suffix ``~b``, followed by a number if that id is taken too.
    """
    ours, taken = set(M.ids), set(M.ids) | set(N.ids)
    n_ids = tuple(_fresh_id(i + "~b", taken) if i in ours else i for i in N.ids)
    n, m = M.n, N.n
    P = np.zeros((n + m, n + m))
    P[:n, :n] = M.P
    P[n:, n:] = N.P
    rewards = None
    if M.rewards is not None and N.rewards is not None:
        rewards = np.concatenate([M.rewards, N.rewards])
    return Ctmc(
        ids=M.ids + n_ids,
        labels=M.labels + N.labels,
        P=P,
        E=np.concatenate([M.E, N.E]),
        initial=M.initial,
        goal=M.goal + tuple(g + n for g in N.goal),
        fail=M.fail + tuple(f + n for f in N.fail),
        rewards=rewards,
    )


def scale(M: Ctmc, c: float) -> Ctmc:
    """Multiply every exit rate by a finite ``c > 0``; jump probabilities unchanged."""
    if not 0.0 < c < math.inf:
        raise NonpositiveScale(f"scale factor must be positive and finite, got {c!r}")
    return replace(M, E=M.E * c, rate_exprs=None)


def _fresh_atom(base: str, used: set[str]) -> str:
    name = base
    while name in used:
        name += "_"
    return name


def _fresh_id(base: str, used: set[str]) -> str:
    """The first of ``base``, ``base1``, ``base2``, ... not in ``used``,
    which it joins."""
    name = base
    k = 0
    while name in used:
        k += 1
        name = f"{base}{k}"
    used.add(name)
    return name


def normalize_goal(M: Ctmc, goals: Iterable[int | str] | None = None) -> Ctmc:
    """Merge the goal set into one absorbing, uniquely labeled state and all
    states that cannot reach it into one absorbing fail state.

    The output uses the canonical ordering the spectral formulas assume:
    initial state first, surviving transient states in original order,
    then the fail state (if any), then the goal state last.  Timed
    reachability of the goal set is preserved.  A chain that is already
    in this form is returned unchanged.
    """
    G = {M.index(g) for g in (goals if goals is not None else M.goal)}
    if not G:
        raise EmptyGoalSet("goal set is empty")
    if M.initial in G:
        raise ValueError("the initial state may not be a goal state")

    can_reach = graph.reach(M.pred, G)
    dead = [s for s in range(M.n) if s not in can_reach]
    lone = next(iter(G)) if len(G) == 1 else None
    single_goal = lone is not None and _label_twin(M, lone) is None
    if (
        single_goal
        and not dead
        and M.goal == (lone,) == (M.n - 1,)
        and M.initial == 0
        and _absorbing_states(M.P)[lone]
    ):
        return M

    transient = sorted(can_reach - G)
    if M.initial in transient:
        transient.remove(M.initial)
        transient.insert(0, M.initial)

    used_atoms = {a for s in transient for a in M.labels[s]}
    used_ids = {M.ids[s] for s in transient}
    if single_goal:
        goal_label = M.labels[lone]
        goal_id = _fresh_id(M.ids[lone], used_ids)
    else:
        goal_label = (_fresh_atom("goal", used_atoms),)
        goal_id = _fresh_id("goal", used_ids)
    used_atoms |= set(goal_label)
    fail_label = (_fresh_atom("fail", used_atoms),)
    fail_id = _fresh_id("fail", used_ids)

    # each merged state (fail, if any, then goal) collects its block's column mass
    blocks = ([dead] if dead else []) + [sorted(G)]
    t, m = len(transient), len(transient) + len(blocks)
    P = np.zeros((m, m))
    P[:t, :t] = M.P[np.ix_(transient, transient)]
    for k, block in enumerate(blocks):
        P[:t, t + k] = M.P[np.ix_(transient, block)].sum(axis=1)
        P[t + k, t + k] = 1.0
    rewards = None
    if M.rewards is not None:
        rewards = np.concatenate([M.rewards[transient], [M.rewards[b].max() for b in blocks]])
    return Ctmc(
        ids=tuple(M.ids[s] for s in transient) + ((fail_id,) if dead else ()) + (goal_id,),
        labels=tuple(M.labels[s] for s in transient) + ((fail_label,) if dead else ()) + (goal_label,),
        P=P,
        E=np.concatenate([M.E[transient], [M.E[b].max() for b in blocks]]),
        initial=0 if M.initial in can_reach else t,
        goal=(m - 1,),
        fail=(t,) if dead else (),
        rewards=rewards,
    )


def uniformize(M: Ctmc, q: float | None = None) -> Ctmc:
    """The same process observed at rate ``q >= max exit rate``.

    Every exit rate becomes ``q``; off-diagonal jump probabilities become
    ``P(s,s')*E(s)/q`` and the diagonal absorbs the remaining mass
    ``1 + P(s,s)*E(s)/q - E(s)/q``.  Rewards are kept.
    """
    max_rate = M.max_rate()
    if q is None:
        q = max_rate
    elif not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q!r}")
    if q < max_rate * (1.0 - 1e-12):
        raise RateTooSmall(q, max_rate)
    w = M.E / q
    Pb = M.P * w[:, None]
    Pb[np.diag_indices_from(Pb)] += 1.0 - w
    return replace(M, P=Pb, E=np.full(M.n, q), rate_exprs=None)


def generator(M: Ctmc) -> np.ndarray:
    """Rate matrix Q: off-diagonal ``P(i,j)*E(i)``, diagonal the negated row sum."""
    Q = M.P * M.E[:, None]
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def restrict(M: Ctmc, keep: Sequence[int]) -> Ctmc:
    """The sub-chain on the states ``keep``, in that order; goal and fail
    states outside ``keep`` are dropped.  ``keep`` must hold the initial state."""
    new = {old: i for i, old in enumerate(keep)}
    return replace(
        M,
        ids=tuple(M.ids[s] for s in keep),
        labels=tuple(M.labels[s] for s in keep),
        P=M.P[np.ix_(keep, keep)],
        E=M.E[keep],
        initial=new[M.initial],
        goal=tuple(new[g] for g in M.goal if g in new),
        fail=tuple(new[f] for f in M.fail if f in new),
        rewards=None if M.rewards is None else M.rewards[keep],
        rate_exprs=None if M.rate_exprs is None else tuple(M.rate_exprs[s] for s in keep),
    )


def prune_unreachable(M: Ctmc) -> Ctmc:
    """Drop states unreachable from the initial state; every goal analysis
    does so through :func:`_normal_form`."""
    seen = graph.reach(M.succ, [M.initial])
    return M if len(seen) == M.n else restrict(M, sorted(seen))


def _normal_form(M: Ctmc) -> Ctmc:
    """The chain every goal analysis reads: :func:`normalize_goal` of the
    states reachable from the initial one.  When no goal state is among
    them the goal states are kept too, so that a goal that cannot be
    reached gives the two-state form (initial state ``fail``) and not an
    empty goal set.  Like the graph indexes it is built once per chain and
    kept on it, so the analyses of one chain share it."""
    form = M._goal_form
    return M if form is None else form


# --------------------------------------------------------------------------
# JSON model format
# --------------------------------------------------------------------------

_EXP_RE = re.compile(r"^exp\(\s*([-+0-9.eE]+)\s*\)$")


def _expect(value, kind: type | tuple[type, ...], where: str):
    """``value``, if it is a ``kind``; otherwise ValueError naming the field."""
    if not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ValueError(f"{where} must be {names}, got {reprlib.repr(value)}")
    return value


def _number(value, where: str) -> float:
    if isinstance(value, bool):  # JSON true and false are not numbers
        raise ValueError(f"{where} must be int or float, got {value!r}")
    try:
        return float(_expect(value, (int, float), where))
    except OverflowError:
        raise ValueError(f"{where} overflows a float") from None


def _names(values, where: str) -> list[str]:
    for k, name in enumerate(_expect(values, list, where)):
        _expect(name, str, f"{where}[{k}]")
    return values


def _parse_rate(value, where: str) -> tuple[float, str | None]:
    if not isinstance(value, str):
        return _number(value, where), None
    m = _EXP_RE.match(value)
    if not m:
        raise ValueError(f"bad exit_rate expression {value!r}; only 'exp(x)' is supported")
    try:
        return math.exp(float(m.group(1))), value
    except OverflowError:
        raise ValueError(f"{where} {value!r} overflows a float") from None


#: the ``make_ctmc`` transition of a model file's transition entry
_ENTRY = operator.itemgetter("from", "to", "prob")
_BAD_ENTRY = "transitions: each entry must be an object with string 'from' and 'to' and a numeric 'prob'"


def _state_rows(d: dict) -> tuple[list[tuple], tuple[str | None, ...]]:
    """The ``make_ctmc`` rows of the document's states and their textual
    rates, after the type checks of :func:`model_from_dict`."""
    states = _expect(_expect(d, dict, "model").get("states"), list, "states")
    if not states:
        raise ValueError("states must hold at least one state")
    for k, s in enumerate(states):
        _expect(s, dict, f"states[{k}]")
        _expect(s.get("id"), str, f"states[{k}].id")
        _names(s.get("labels"), f"states[{k}].labels")
    rates, exprs = zip(
        *(_parse_rate(s.get("exit_rate"), f"states[{k}].exit_rate") for k, s in enumerate(states))
    )
    rows = [
        (s["id"], s["labels"], rate) + ((_number(s["reward"], f"states[{k}].reward"),) if "reward" in s else ())
        for k, (s, rate) in enumerate(zip(states, rates))
    ]
    return rows, exprs


def _marks(d: dict) -> tuple[str, list[str], list[str]]:
    """The document's initial state and goal and fail lists, type-checked."""
    initial = _expect(d.get("initial"), str, "initial")
    return initial, _names(d.get("goal", []), "goal"), _names(d.get("fail", []), "fail")


def _with_exprs(M: Ctmc, exprs: tuple[str | None, ...]) -> Ctmc:
    return replace(M, rate_exprs=exprs if any(e is not None for e in exprs) else None)


def model_from_dict(d: dict) -> Ctmc:
    """Chain from the parsed JSON model format, built by the builder of
    :func:`make_ctmc`; a value of the wrong JSON type or an unknown state
    id raises ValueError naming its field."""
    rows, exprs = _state_rows(d)
    transitions = _expect(d.get("transitions", []), list, "transitions")
    build = _ChainBuilder(rows)
    try:
        # streamed: a model file may hold far more transitions than states
        build.add(map(_ENTRY, transitions))
    except (KeyError, TypeError, OverflowError):  # a missing field or a value of the wrong type
        raise ValueError(_BAD_ENTRY) from None
    return _with_exprs(build.chain(*_marks(d)), exprs)


def model_to_dict(M: Ctmc) -> dict:
    states = []
    for i in range(M.n):
        st: dict = {"id": M.ids[i], "labels": list(M.labels[i])}
        if M.rate_exprs is not None and M.rate_exprs[i] is not None:
            st["exit_rate"] = M.rate_exprs[i]
        else:
            st["exit_rate"] = float(M.E[i])
        if M.rewards is not None:
            st["reward"] = float(M.rewards[i])
        states.append(st)
    rows, cols = np.nonzero(M.P > 0.0)  # row-major, the order of the entries
    transitions = [
        {"from": M.ids[i], "to": M.ids[j], "prob": p}
        for i, j, p in zip(rows.tolist(), cols.tolist(), M.P[rows, cols].tolist())
    ]
    d: dict = {"states": states, "transitions": transitions, "initial": M.ids[M.initial]}
    if M.goal:
        d["goal"] = [M.ids[g] for g in M.goal]
    if M.fail:
        d["fail"] = [M.ids[f] for f in M.fail]
    return d


def _floats_text(values: list) -> list[str]:
    """json's text of each number of ``values``, from one call of its
    C encoder: ``repr``, or ``NaN``/``Infinity``/``-Infinity``.  No
    number's text holds ``", "``, so the list splits there."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def _array_text(items: list[str], pad: str) -> str:
    """json's ``indent=2`` text of an array whose items read ``items``,
    with ``pad`` before its closing bracket."""
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]" if items else "[]"


def _model_chunks(M: Ctmc) -> Iterator[str]:
    """The text of ``json.dumps(model_to_dict(M), indent=2)``, in chunks.

    Each id and label is encoded once by ``json.dumps`` and each number by
    :func:`_floats_text`; states and transitions are filled into fixed
    templates.  The transitions are read from P a block of rows at a time,
    so no list of all its positive entries is ever held."""
    ids = [json.dumps(s) for s in M.ids]
    rates = _floats_text(np.asarray(M.E, dtype=float).tolist())
    if M.rate_exprs is not None:
        rates = [r if e is None else json.dumps(e) for r, e in zip(rates, M.rate_exprs)]
    rewards = [""] * M.n if M.rewards is None else [
        f',\n      "reward": {r}' for r in _floats_text(np.asarray(M.rewards, dtype=float).tolist())
    ]
    labels = {ls: _array_text([json.dumps(l) for l in ls], "      ") for ls in set(M.labels)}
    states = [
        f'{{\n      "id": {i},\n      "labels": {labels[ls]},\n      "exit_rate": {r}{w}\n    }}'
        for i, ls, r, w in zip(ids, M.labels, rates, rewards)
    ]
    yield '{\n  "states": ' + _array_text(states, "  ") + ',\n  "transitions": '
    heads = [f'{{\n      "from": {i},\n      "to": ' for i in ids]
    tails = [f'{i},\n      "prob": ' for i in ids]
    opened = False
    for b in graph.blocks(M.n, M.n):
        block = M.P[b]
        rows, cols = np.nonzero(block > 0.0)  # row-major, the order of the entries
        if len(rows):
            probs = _floats_text(block[rows, cols].tolist())
            yield (",\n    " if opened else "[\n    ") + ",\n    ".join(
                [f"{heads[i]}{tails[j]}{p}\n    }}" for i, j, p in zip((rows + b.start).tolist(), cols.tolist(), probs)]
            )
            opened = True
    yield ("\n  ]" if opened else "[]") + f',\n  "initial": {ids[M.initial]}'
    for key, chosen in (("goal", M.goal), ("fail", M.fail)):
        if chosen:
            yield f',\n  "{key}": ' + _array_text([ids[s] for s in chosen], "  ")
    yield "\n}"


def dumps_model(M: Ctmc) -> str:
    """The model file text of ``M``: the chunks of :func:`_model_chunks`,
    the one writer of model JSON, joined, and a final newline."""
    return "".join(_model_chunks(M)) + "\n"


#: the streamed reader reads its file, and decodes the transitions array,
#: in pieces of at least this many characters
_CHUNK_CHARS = 1 << 16
#: where a chunk may end: the close of an entry and the comma after it
_CUT = re.compile(r"\}[ \t\n\r]*,")
_WS = json.decoder.WHITESPACE.match
_DECODER = json.JSONDecoder()
#: what may follow the part of a number that a piece ends in; "" is the
#: end of the piece
_NUMBER_GOES_ON = ("", *"+-.0123456789Ee")


class _Pieces:
    """The text of an open file that is not consumed yet, ``text[pos:]``,
    read ``_CHUNK_CHARS`` characters at a time."""

    def __init__(self, fh):
        self.fh, self.text, self.pos = fh, "", 0

    def more(self) -> bool:
        """Drop the consumed text and read at least as much again as is
        left, so that the retries on one long value read geometrically
        more; False, and nothing changed, at the end of the file."""
        got = self.fh.read(max(_CHUNK_CHARS, len(self.text) - self.pos))
        if got:
            self.text, self.pos = self.text[self.pos :] + got, 0
        return bool(got)

    def char(self) -> str:
        """The next character past whitespace, or "" at the end of the file."""
        while True:
            self.pos = _WS(self.text, self.pos).end()
            if self.pos < len(self.text) or not self.more():
                return self.text[self.pos : self.pos + 1]

    def scan(self, scan):
        """The value that ``scan(text, pos)`` decodes at ``pos``, which
        then moves past it.  A value counts only once a character follows
        it that no number goes on with, or the file has ended, so that no
        number is cut at the end of a piece (``1`` of ``1.5``, ``2`` of
        ``2e-3``); until then, and while the scan fails, more is read, and
        a scan that fails at the end of the file raises."""
        while True:
            try:
                value, end = scan(self.text, self.pos)
            except (ValueError, StopIteration):
                if not self.more():
                    raise
                continue
            if self.text[end : end + 1] not in _NUMBER_GOES_ON or not self.more():
                self.pos = end
                return value


def _rest_of_array(text: str, pos: int) -> tuple[list, int]:
    """The entries from ``text[pos]`` to the close of the array, decoded as
    a copy behind an opening bracket, and the position after the close."""
    entries, end = _DECODER.raw_decode("[" + text[pos:])
    return entries, pos + end - 1


def _streamed_entries(src: _Pieces, build: _ChainBuilder) -> None:
    """Pass the transitions array that opens at the next character of
    ``src`` into ``build`` a chunk at a time, and move past the array.

    A chunk ends at the first entry close and comma past ``_CHUNK_CHARS``
    characters and is decoded as an array of its own.  Only an object ends
    in ``}``, so a chunk that decodes holds whole entries, the ones the
    whole text holds.  When a cut falls inside a string, or past the
    array, the chunk is tried again up to a later cut, 1, 2, 4, ...
    characters past the failed one, so that a run of cuts inside strings
    costs logarithmically many retries.  The last chunk is decoded
    together with the rest of the array."""
    if src.char() != "[":
        raise ValueError("transitions is not an array")
    src.pos += 1
    chunked = False
    reach, step = _CHUNK_CHARS, 1  # where the next cut is searched from, past src.pos
    while True:
        cut = _CUT.search(src.text, src.pos + reach)
        if cut is None:
            if src.more():
                continue
            break
        try:
            entries = json.loads("[" + src.text[src.pos : cut.start() + 1] + "]")
        except ValueError:  # the cut fell inside a string or past the array
            reach, step = cut.end() - src.pos + step, 2 * step
            continue
        build.add(map(_ENTRY, entries))
        del entries  # freed before the next chunk is decoded
        src.pos, chunked = cut.end(), True
        reach, step = _CHUNK_CHARS, 1
    entries = src.scan(_rest_of_array)
    if chunked and not entries:
        raise ValueError("a comma before the close of the array")
    build.add(map(_ENTRY, entries))


def _load_streamed(fh) -> Ctmc:
    """:func:`model_from_dict` of ``json.load(fh)``, with the file read a
    piece at a time and the transitions decoded a chunk at a time straight
    into the builder.

    The top-level object is walked with json's own scanner, and every
    value but ``"transitions"`` is decoded whole.  A text it does not
    walk to the end (the transitions before the states, a repeated
    top-level key, trailing data, or anything json rejects) raises."""
    src = _Pieces(fh)
    doc: dict = {}
    build, exprs = None, ()
    if src.char() != "{":
        raise ValueError("not an object")
    src.pos += 1
    while True:
        if src.char() != '"':
            raise ValueError("expected a key")
        src.pos += 1
        key = src.scan(json.decoder.scanstring)
        if src.char() != ":" or key in doc:
            raise ValueError("expected a new key and a colon")
        src.pos += 1
        if key == "transitions":
            rows, exprs = _state_rows(doc)
            build = _ChainBuilder(rows)
            _streamed_entries(src, build)
            doc[key] = None  # seen, for the repeated-key test
        else:
            src.char()  # past the whitespace before the value
            doc[key] = src.scan(_DECODER.scan_once)
        sep = src.char()
        if sep == "}":
            break
        if sep != ",":
            raise ValueError("expected a comma")
        src.pos += 1
    src.pos += 1
    if src.char():
        raise ValueError("trailing data")
    if build is None:
        return model_from_dict(doc)
    return _with_exprs(build.chain(*_marks(doc)), exprs)


def load_model(path: str) -> Ctmc:
    """Read a chain file, checking row sums, probabilities and rates.

    Goal and fail states are not checked here: the normal form that the
    goal analyses read (:func:`_normal_form`) repairs a goal that is not
    absorbing or not uniquely labeled.

    The file is read a piece of about 64 KiB (``_CHUNK_CHARS``) at a
    time, in text mode as one whole ``fh.read()`` reads it, and its
    transitions are decoded a chunk of about that size at a time and
    passed into the builder, so the reader holds a piece or two of the
    text and one chunk's entries, never the whole text or document: the
    n = 1600 ladder file (106 MB, 1.9 million transitions) loads in 98 MB
    of max RSS instead of 250 MB (806 MB with ``json.load``), and the file
    :func:`save_model` writes for that chain in 100 MB instead of 379 MB
    (``BENCH_load.json``).  Any error on that route, and any text it does
    not walk, is left to the whole-document route
    ``model_from_dict(json.loads(text))``, the reference, on the file read
    again whole, so a malformed file raises the error that route raises.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _load_streamed(fh)
    except Exception:
        # whatever the error, the reference route raises it again; raised
        # outside the handler, it carries no context from this route
        pass
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.loads(fh.read())
    return model_from_dict(doc)


def save_model(M: Ctmc, path: str) -> None:
    """Write the text of :func:`dumps_model`, streamed chunk by chunk from
    :func:`_model_chunks` rather than joined into one string first."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_model_chunks(M))
        fh.write("\n")
