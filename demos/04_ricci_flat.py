"""Recovering the Ricci-flat metric in a Kahler class (n = 2).

Starts from a deliberately curved background g = flat + ddbar psi and asks
the solver for the metric in the same class with zero Ricci form.  On the
torus that metric is the flat one, so the solve must return phi = -psi up to
a constant and land back on the identity matrix at every grid point.
"""

import numpy as np

import torusma as tm

grid = tm.Grid(n=2, N=16)
psi, g, F = tm.ricci_flat_background_n2(grid)

print("background min eigenvalue:", tm.positivity_check(g))
print("background Ricci sup-norm:", np.max(np.abs(tm.ricci_form(g).mats)))

result = tm.continuity_solve(F, g, tm.SolverConfig(n=2, N=16))
gt = result.metric  # g~ = g + ddbar phi of the final iterate

print("converged:", result.converged)
print("sup |g~ - flat| =", np.max(np.abs(gt.mats - tm.flat_metric(grid).mats)))
print("sup |phi + psi| =",
      np.max(np.abs(result.phi.values.real + psi.values.real)))
print("recovered Ricci sup-norm:", np.max(np.abs(tm.ricci_form(gt).mats)))
