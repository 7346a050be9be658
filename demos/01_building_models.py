"""Build a small chain by hand, round-trip it through JSON, and look at the
normal form the analyses work on.

A model is a set of labeled states with exponential exit rates and a jump
distribution per state.  Analyses that target a goal first rewrite the chain
into a normal form: goals merged into one absorbing goal state placed last,
states that cannot reach it merged into one absorbing fail state.
"""

from ctmcbisim import direct_sum, generator, make_ctmc, normalize_goal, scale
from ctmcbisim.model import dumps_model

repair = make_ctmc(
    [
        ("up", ("working",), 1.0),
        ("degraded", ("working",), 2.0),
        ("down", ("broken",), 0.5),
        ("replaced", ("fresh",), 1.0),
    ],
    [
        ("up", "degraded", 0.9),
        ("up", "down", 0.1),
        ("degraded", "up", 0.5),
        ("degraded", "down", 0.5),
        ("down", "replaced", 1.0),
        ("replaced", "replaced", 1.0),
    ],
    initial="up",
    goal=("replaced",),
)

print("=== the raw model, as it serializes ===")
print(dumps_model(repair))

print("=== its generator Q: Q(i,j) = P(i,j) E(i) off the diagonal, rows sum to 0 ===")
print(generator(repair))

norm = normalize_goal(repair)
print("=== after goal normalization ===")
print("state order:", norm.ids)
print("exit rates:", norm.E)
print("(already in normal form: the goal was absorbing and last)")

fast = scale(repair, 2.0)
print("\n=== a uniformly accelerated copy ===")
print("rates doubled:", fast.E)

both = direct_sum(repair, fast)
print("\n=== direct sum of the two (for joint analyses) ===")
print("states:", both.ids)
print("note the ~b suffixes: both copies used the same state ids")
