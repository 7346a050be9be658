"""How wrong can reachability probabilities get when a chain is replaced by
an e^delta-accelerated twin?  Exact answer and cheap upper bounds.

For a uniform chain the answer is computable exactly (a series over the
jump-count distribution).  The bounds trade tightness for generality:

  unif     closed form from the tolerances alone
  erlangN  chain-length argument, grows monotonically with t
  markov   expectation argument over the jump count (needs a.s. absorption)
"""

import numpy as np

from ctmcbisim import (
    diff_curve,
    erlang_diff,
    erlang_N,
    erlang_N_bound,
    exact_diff_curve,
    fixtures,
    markov_curve,
    uniformization_bound,
)
from ctmcbisim.curves import BoundCurve, time_grid

M = fixtures.branch_merge_chain()
delta = 0.1
c = float(np.exp(delta))
grid = time_grid(10.0, 20)

truth = diff_curve(M, c, grid, tol=1e-12)
series = exact_diff_curve(M, delta, grid)
print("series formula vs two-run difference, worst gap:",
      float(np.max(np.abs(series - truth))))

curve = BoundCurve(times=grid)
curve.add("exact", truth)
curve.add("unif", [uniformization_bound(0.0, delta, 1.0, float(t)) for t in grid])
curve.add("erlangN", [erlang_N_bound(float(t), delta) for t in grid])
curve.add("markov", markov_curve(M, delta, grid))

print("\n   t     exact      unif       erlangN    markov")
for i, t in enumerate(grid):
    print("  %4.1f   %.6f   %.6f   %.6f   %.6f"
          % (t, curve["exact"][i], curve["unif"][i],
             curve["erlangN"][i], curve["markov"][i]))

t = float(grid[-1])
N = erlang_N(t, delta)
print("\nerlangN at t = %.1f is the Erlang gap of a length-%d chain and its"
      " e^delta-fast twin: %.6f" % (t, N, erlang_diff(N, c, t)))

print("\nthe same table as CSV (17 significant digits):")
print("\n".join(curve.to_csv().splitlines()[:4]))
print("...")
