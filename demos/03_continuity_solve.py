"""Solving det(g + ddbar phi) = C e^F det(g) by the continuity method.

Follows the homotopy t F from t = 0 (trivial) to t = 1 with damped Newton
corrections, then cross-checks the answer against the independent Poisson
oracle available in complex dimension one.
"""

import numpy as np

import torusma as tm

grid = tm.Grid(n=1, N=64)
g = tm.flat_metric(grid)
F = tm.poisson_forcing_n1(grid)  # 0.3 sin(2 pi x1) sin(2 pi y1)

result = tm.continuity_solve(F, g, tm.SolverConfig(n=1, N=64))
print(f"converged: {result.converged} at t = {result.t_reached}")

print("\ncontinuation trace:")
print(f"{'t':>6} {'iters':>6} {'residual':>12} {'eig_min':>9} {'eig_max':>9}")
for s in result.trace:
    print(f"{s.t:6.2f} {s.newton_iters:6d} {s.residual_sup:12.3e} "
          f"{s.eig_min:9.4f} {s.eig_max:9.4f}")

oracle = tm.poisson_oracle_n1(F, g)
diff = np.max(np.abs(result.phi.values.real - oracle.values.real))
print("\nsup |phi - Poisson oracle| =", diff)

# the solved metric g~ = g + ddbar phi, which the result carries, prescribes
# the Ricci form: ricci(g~) - ricci(g) = -ddbar F
resid = tm.ricci_form(result.metric).mats - tm.ricci_form(g).mats + tm.hermitian_hessian(F).mats
print("Ricci prescription sup-error =", np.max(np.abs(resid)))
