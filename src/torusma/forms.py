"""(p,q)-form algebra on the torus: del, delbar, d, d^c, wedge, integration.

Components are stored only for strictly increasing multi-indices (J, K); a
component array is the coefficient of dz^J ^ dzbar^K with J and K each in
increasing order and all dz factors written before the dzbar factors.

The Kahler form of a metric g is omega(g) = i * sum g_{j kbar} dz^j ^ dzbar^k,
and a pair i dz^j ^ dzbar^j integrates to the unit real measure, so that
integral(omega_flat^n) = n! * Vol = n! on the unit torus (see CONVENTIONS.md).
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import HermitianMetricField, metric_from_potential, positivity_check
from .grid import Grid, GridMismatchError, PeriodicScalarField, make_field

Index = tuple[int, ...]


def increasing_indices(n: int, p: int) -> list[Index]:
    return list(itertools.combinations(range(n), p))


def merge_sign(a: Index, b: Index) -> tuple[Index, int] | None:
    """Merge two disjoint increasing index tuples; None if they overlap.

    Returns the merged increasing tuple and the sign of the interleaving
    permutation.
    """
    if set(a) & set(b):
        return None
    merged = tuple(sorted(a + b))
    perm = a + b
    sign = 1
    # count inversions of the concatenation relative to sorted order
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return merged, sign


@dataclass(frozen=True)
class PqForm:
    """A (p,q)-form as component fields over strictly increasing multi-indices."""

    grid: Grid
    p: int
    q: int
    components: dict[tuple[Index, Index], np.ndarray]

    def __post_init__(self) -> None:
        n = self.grid.n
        if not (0 <= self.p and 0 <= self.q):
            raise ValueError("bidegree must be nonnegative")
        expected = {
            (J, K)
            for J in increasing_indices(n, self.p)
            for K in increasing_indices(n, self.q)
        }
        if set(self.components) != expected:
            raise ValueError(
                f"({self.p},{self.q})-form must carry exactly the components {sorted(expected)}"
            )
        for arr in self.components.values():
            if arr.shape != self.grid.shape:
                raise ValueError("component array shape does not match the grid")
            if arr.dtype != np.complex128:
                raise ValueError(f"component arrays must be complex128, got {arr.dtype}")

    def component(self, J: Index, K: Index) -> np.ndarray:
        return self.components[(tuple(J), tuple(K))]

    def sup_norm(self) -> float:
        return max((float(np.max(np.abs(a))) for a in self.components.values()), default=0.0)

    def __add__(self, other: "PqForm") -> "PqForm":
        if (other.grid, other.p, other.q) != (self.grid, self.p, self.q):
            raise ValueError("can only add forms of equal bidegree on one grid")
        return PqForm(
            self.grid, self.p, self.q,
            {key: self.components[key] + other.components[key] for key in self.components},
        )

    def __sub__(self, other: "PqForm") -> "PqForm":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "PqForm":
        return PqForm(
            self.grid, self.p, self.q,
            {key: arr * scalar for key, arr in self.components.items()},
        )

    __rmul__ = __mul__


def zero_form(grid: Grid, p: int, q: int) -> PqForm:
    n = grid.n
    return PqForm(grid, p, q, {
        (J, K): np.zeros(grid.shape, dtype=complex)
        for J in increasing_indices(n, p)
        for K in increasing_indices(n, q)
    })


def scalar_form(f: PeriodicScalarField) -> PqForm:
    return PqForm(f.grid, 0, 0, {((), ()): f.values.astype(complex)})


@dataclass(frozen=True)
class FormSum:
    """A finite sum of forms of distinct bidegrees (a mixed-degree form)."""

    grid: Grid
    parts: dict[tuple[int, int], PqForm]

    def part(self, p: int, q: int) -> PqForm:
        if (p, q) in self.parts:
            return self.parts[p, q]
        return zero_form(self.grid, p, q)

    def sup_norm(self) -> float:
        return max((f.sup_norm() for f in self.parts.values()), default=0.0)


# ---------------------------------------------------------------------------
# Dolbeault operators

def _add_dolbeault(alpha: PqForm, acc: dict[tuple[int, int], PqForm]) -> None:
    """Add every term of del alpha and delbar alpha into acc[p+1, q] and acc[p, q+1].

    acc maps a bidegree to its form; a bidegree met for the first time starts
    as zero_form, and terms are added into its components in order: component,
    then j, with the sign applied exactly by adding or subtracting.  Each
    component's two real partials along z^j are taken once, and feed both
    d/dz^j (when j is not in J) and d/dzbar^j (when j is not in K).

    They are taken one slab at a time: one index at a time along the last real
    axis other than 2j, 2j + 1 and the last axis (axis 2 for j = 0 and 1 for
    j = 1 at n = 2; at n = 1 the whole grid is one slab), each slab's two
    partials fresh arrays of Grid.derivative.  A slab keeps whole lines along
    2j, 2j + 1 and the last axis, so its partials are the whole grid's bytes
    (Grid.derivative), and at n = 2 every transient is 1/N of a field.  It also
    keeps axis 0, or 1 when 2j = 0, whole: its BLAS products stay small
    (_apply_axis_matrix).

    At n = 2 each (component, j)'s slabs go in contiguous chunks to
    min(CPUs available to the process, N // 8) workers: the caller runs the
    first chunk and a thread pool, opened once per call, the others, all done
    before the next (component, j), whose slabs may lie along another axis.
    Slabs write disjoint views, and each sample takes its terms in the serial
    order, so the bytes do not depend on the worker count.  A worker holds
    about four slab-sized transients; the cap keeps all within half a field.
    A worker's error, a warning turned error included, is raised again in the
    caller, and leaving the pool joins every thread.
    """
    grid, p, q = alpha.grid, alpha.p, alpha.q
    for key in ((p + 1, q), (p, q + 1)):
        if key not in acc:
            acc[key] = zero_form(grid, *key)
    holo, anti = acc[p + 1, q].components, acc[p, q + 1].components
    workers = 1
    if grid.n == 2:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        workers = min(cpus, grid.N // 8)
        grid.axis_matrices  # a cached property: built here, before any thread reads it
    front = (-1) ** p  # dzbar^j crosses the dz^J block

    def run(arr, j, slabs, to_holo, to_anti):
        # a target is (component array, np.add or np.subtract as its term's sign), or None
        for slab in slabs:
            # the halves of d/dz^j = (d_x - i d_y) / 2, scaled exactly by a power of two
            fx = grid.derivative(arr[slab], 2 * j)
            fx *= 0.5
            ify = grid.derivative(arr[slab], 2 * j + 1)
            ify *= 0.5j
            if to_holo:
                target, add = to_holo
                # fx is still needed below for a delbar term
                term = np.subtract(fx, ify, out=None if to_anti else fx)
                add(target[slab], term, out=target[slab])
            if to_anti:
                target, add = to_anti
                add(target[slab], np.add(fx, ify, out=fx), out=target[slab])

    # one worker submits nothing, and a pool given no task starts no thread
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        for (J, K), arr in alpha.components.items():
            for j in range(grid.n):
                if j in J and j in K:
                    continue
                to_holo = to_anti = None
                if j not in J:
                    merged, sign = merge_sign((j,), J)
                    to_holo = holo[merged, K], np.add if sign > 0 else np.subtract
                if j not in K:
                    merged, sign = merge_sign((j,), K)
                    to_anti = anti[J, merged], np.add if front * sign > 0 else np.subtract
                axis = [a for a in range(grid.num_axes - 1) if a // 2 != j][-1:]  # none at n = 1
                slabs = [(slice(None),) * a + (slice(k, k + 1),) for a in axis
                         for k in range(grid.N)] or [()]
                chunks = [slabs[w * len(slabs) // workers:(w + 1) * len(slabs) // workers]
                          for w in range(workers)]
                futures = [pool.submit(run, arr, j, c, to_holo, to_anti) for c in chunks[1:]]
                run(arr, j, chunks[0], to_holo, to_anti)
                for future in futures:
                    future.result()


def del_(alpha: PqForm) -> PqForm:
    """Holomorphic exterior derivative, (p,q) -> (p+1,q)."""
    return exterior_d(alpha).parts[alpha.p + 1, alpha.q]


def delbar(alpha: PqForm) -> PqForm:
    """Antiholomorphic exterior derivative, (p,q) -> (p,q+1)."""
    return exterior_d(alpha).parts[alpha.p, alpha.q + 1]


def exterior_d(alpha: PqForm) -> FormSum:
    """d = del + delbar: d_sum of alpha alone, with parts (p+1,q) and (p,q+1)."""
    return d_sum(FormSum(alpha.grid, {(alpha.p, alpha.q): alpha}))


def d_sum(alpha: FormSum) -> FormSum:
    """d of a mixed-degree form: every term goes straight into one accumulator per
    bidegree, in the order part, then component, then j, so no part's del or
    delbar exists in full beside the sum."""
    acc: dict[tuple[int, int], PqForm] = {}
    for f in alpha.parts.values():
        _add_dolbeault(f, acc)
    return FormSum(alpha.grid, acc)


def d_c(u: PeriodicScalarField) -> FormSum:
    """d^c u = i (delbar - del) u for a real 0-form u, from the parts of d u."""
    if not u.is_real:
        raise ValueError("d^c is defined for real functions")
    d = exterior_d(scalar_form(u)).parts
    return FormSum(u.grid, {(1, 0): d[1, 0] * (-1j), (0, 1): d[0, 1] * 1j})


# ---------------------------------------------------------------------------
# wedge products and integration

def wedge(alpha: PqForm, beta: PqForm) -> PqForm:
    """Graded product with canonical-ordering sign bookkeeping."""
    if alpha.grid != beta.grid:
        raise GridMismatchError("forms live on different grids")
    grid, n = alpha.grid, alpha.grid.n
    p, q = alpha.p + beta.p, alpha.q + beta.q
    if p > n or q > n:
        raise ValueError(f"wedge overflows the top bidegree: ({p},{q}) with n={n}")
    out = zero_form(grid, p, q)
    cross = (-1) ** (alpha.q * beta.p)  # dzbar^K1 moves past dz^J2
    for (J1, K1), a in alpha.components.items():
        for (J2, K2), b in beta.components.items():
            mj = merge_sign(J1, J2)
            mk = merge_sign(K1, K2)
            if mj is None or mk is None:
                continue
            (J, sj), (K, sk) = mj, mk
            out.components[(J, K)] += (cross * sj * sk) * (a * b)
    return out


def form_power(alpha: PqForm, k: int) -> PqForm:
    """alpha^k for a (1,1)-form; k = 0 yields the constant 1 (0,0)-form."""
    grid = alpha.grid
    out = PqForm(grid, 0, 0, {((), ()): np.ones(grid.shape, dtype=complex)})
    for _ in range(k):
        out = wedge(out, alpha)
    return out


def integrate_top(alpha: PqForm) -> complex:
    """Integrate an (n,n)-form over the torus via the real-measure reduction."""
    n = alpha.grid.n
    if (alpha.p, alpha.q) != (n, n):
        raise ValueError(f"integrate_top needs a ({n},{n})-form, got ({alpha.p},{alpha.q})")
    comp = alpha.component(tuple(range(n)), tuple(range(n)))
    # canonical dz^1..n ^ dzbar^1..n -> interleaved pairs -> real measure
    sigma = (-1) ** (n * (n - 1) // 2)
    factor = sigma * (-1j) ** n
    return complex(factor * np.mean(comp))


def kahler_form(g: HermitianMetricField) -> PqForm:
    """omega(g) = i * sum g_{j kbar} dz^j ^ dzbar^k."""
    mats = g.mats
    comps = {
        ((j,), (k,)): 1j * mats[..., j, k]
        for j in range(g.grid.n)
        for k in range(g.grid.n)
    }
    return PqForm(g.grid, 1, 1, comps)


def uniqueness_functional(
    phi1: PeriodicScalarField,
    phi2: PeriodicScalarField,
    g: HermitianMetricField,
) -> float:
    """Stokes-theorem energy of the difference of two admissible potentials.

    sum_{k=0}^{n-1} integral d(u) ^ d^c(u) ^ omega_1^k ^ omega_2^{n-k-1}
    with u = phi1 - phi2; nonnegative, zero iff u is constant.
    """
    n = g.grid.n
    g1 = metric_from_potential(g, phi1)
    g2 = metric_from_potential(g, phi2)
    for name, gi in (("phi1", g1), ("phi2", g2)):
        min_eig = positivity_check(gi)
        if not min_eig > 0.0:
            raise ValueError(f"potential {name} is inadmissible (min eig {min_eig:.3e})")
    u = make_field(g.grid, phi1.values - phi2.values)
    # du ^ d^c u with d^c u = i (delbar - del) u; only its (1,1) part reaches the integral
    d = exterior_d(scalar_form(u)).parts
    energy = wedge(d[1, 0], d[0, 1] * 1j) + wedge(d[0, 1], d[1, 0] * (-1j))
    w1 = kahler_form(g1)
    w2 = kahler_form(g2)
    total = 0.0 + 0.0j
    for k in range(n):
        weight = wedge(form_power(w1, k), form_power(w2, n - 1 - k))
        total += integrate_top(wedge(energy, weight))
    if abs(total.imag) > 1e-10 * max(1.0, abs(total.real)):
        raise FloatingPointError(f"uniqueness functional came out non-real: {total}")
    return float(total.real)
