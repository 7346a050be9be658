"""Error taxonomy shared by all modules.

Every rejected input raises a subclass of CtmcError carrying enough
context (state index, offending value) to point at the problem.  The
class fixes the CLI exit code: a NegativeVerdict exits 1, a
NumericalFailure 3 and every other CtmcError 2.
Warnings (non-fatal degradations) live at the bottom.
"""

from __future__ import annotations


class CtmcError(Exception):
    """Base class for all model/analysis errors raised by this package."""


class NegativeVerdict(CtmcError):
    """A check answered no: the states are not related."""


class NumericalFailure(CtmcError):
    """A numerical method could not deliver a verified result."""


# ---------------------------------------------------------------- model


class RowSumError(CtmcError):
    def __init__(self, state: int, total: float):
        self.state = state
        self.total = total
        super().__init__(f"row of state {state} sums to {total!r}, expected 1")


class NonpositiveRate(CtmcError):
    def __init__(self, state: int):
        self.state = state
        super().__init__(f"state {state} has non-positive exit rate")


class NonFiniteValue(CtmcError):
    pass


class NonAbsorbingGoal(CtmcError):
    pass


class NonpositiveScale(CtmcError):
    pass


class EmptyGoalSet(CtmcError):
    pass


class RateTooSmall(CtmcError):
    def __init__(self, q: float, max_rate: float):
        self.q = q
        self.max_rate = max_rate
        super().__init__(f"uniformization rate {q} is below the maximal exit rate {max_rate}")


class NoGoalState(CtmcError):
    pass


class NonUniformRates(CtmcError):
    pass


# ---------------------------------------------------------------- bisim


class PairNotRelated(NegativeVerdict):
    pass


class NotBisimilar(NegativeVerdict):
    pass


# ---------------------------------------------------------------- transient


class JumpBudgetExceeded(NumericalFailure):
    """Some simulated path was still running after taking the budget's
    number of jumps (a fast or zero-cost cycle, or a horizon too long for
    the rates); a path that has reached the goal or an absorbing state is
    no longer running."""

    def __init__(self, max_jumps: int):
        self.max_jumps = max_jumps
        super().__init__(f"simulation exceeded the jump budget of {max_jumps} jumps")


# ---------------------------------------------------------------- erlang / bounds


class NotApplicable(CtmcError):
    """The requested quantity is undefined for these inputs (e.g. an
    expected-hit-count bound on a chain that may never reach the goal)."""


class TruncationLimit(NumericalFailure):
    """A series still held more than its tolerance when its length
    reached the term cap."""


# ---------------------------------------------------------------- spectral


class WrongKind(CtmcError):
    pass


class ModulusOneNotOne(NumericalFailure):
    """An eigenvalue of modulus ~1 that is not ~1, or a multiplicity mismatch
    with the absorbing-state count: absorption is not almost sure."""


class DecompositionUnstable(NumericalFailure):
    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(f"reconstruction residual {residual:g} exceeds tolerance {tol:g}")


class SpectralGapZero(NumericalFailure):
    pass


class AcyclicChain(NumericalFailure):
    """All transient eigenvalues vanish; use the exact finite-sum route."""


class NotAcyclic(CtmcError):
    pass


# ---------------------------------------------------------------- rewards


class NonzeroReward(CtmcError):
    pass


class AbsorbingState(CtmcError):
    pass


class ZeroRewardCycle(CtmcError):
    pass


class ZeroReward(CtmcError):
    def __init__(self, state: int):
        self.state = state
        super().__init__(f"state {state} has zero reward")


# ---------------------------------------------------------------- pair uniformization


class NotTransitive(NegativeVerdict):
    pass


class NotZeroDeltaBisim(NegativeVerdict):
    pass


# ---------------------------------------------------------------- warnings


class OrderingAssumptionViolated(UserWarning):
    """The input pair fails the assumed reachability ordering on the check
    grid; the transformation is still returned, the ordering check skipped."""


class DecompositionFallbackWarning(UserWarning):
    """A spectral bound degraded to the length-capped chain bound because the
    matrix decomposition failed or was rejected."""
