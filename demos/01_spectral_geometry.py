"""Spectral derivatives and pointwise Kahler geometry on the unit torus.

Walks through the core objects: a periodic scalar field, its Wirtinger
derivatives, a metric built from a potential, and the curvature identities
that every metric in the fixed Kahler class must satisfy.
"""

import numpy as np

import torusma as tm

# --- a field and its derivatives -------------------------------------------
grid = tm.Grid(n=1, N=64)
x = grid.coordinate(0)
f = tm.make_field(grid, np.sin(2 * np.pi * x))

df = tm.partial_z(f, 0)
print("sup |d_z sin(2 pi x) - pi cos(2 pi x)| =",
      np.max(np.abs(df.values - np.pi * np.cos(2 * np.pi * x))))

# --- a metric from a potential ----------------------------------------------
phi = tm.make_field(grid, 0.05 * np.cos(2 * np.pi * x))
g = tm.metric_from_potential(tm.flat_metric(grid), phi)
print(f"min eigenvalue of flat + ddbar phi: {tm.positivity_check(g):.6f} "
      f"(closed form 1 - 0.05 pi^2 = {1 - 0.05 * np.pi**2:.6f})")

# --- curvature identities ----------------------------------------------------
# the volume is a class invariant: adding a potential never changes it
print("volume drift:", abs(tm.volume(g) - 1.0))

# the first Chern integral vanishes on the torus
print("first Chern integral:", tm.first_chern_integral(g))

# the Christoffel trace equals the log-volume gradient
trace = tm.christoffel_trace(tm.christoffel(g))
oracle = tm.log_volume_gradient(g)
print("Christoffel trace identity sup-error:", np.max(np.abs(trace - oracle)))
