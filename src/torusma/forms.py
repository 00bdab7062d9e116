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
        } if self.p <= n and self.q <= n else set()
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
        if not self.components:
            return 0.0
        return max(float(np.max(np.abs(a))) for a in self.components.values())

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
    comps = {}
    if p <= n and q <= n:
        comps = {
            (J, K): np.zeros(grid.shape, dtype=complex)
            for J in increasing_indices(n, p)
            for K in increasing_indices(n, q)
        }
    return PqForm(grid, p, q, comps)


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


def form_sum(parts: list[PqForm]) -> FormSum:
    grid = parts[0].grid
    acc: dict[tuple[int, int], PqForm] = {}
    for f in parts:
        if f.grid != grid:
            raise GridMismatchError("forms live on different grids")
        key = (f.p, f.q)
        acc[key] = acc[key] + f if key in acc else f
    return FormSum(grid, acc)


# ---------------------------------------------------------------------------
# Dolbeault operators

def _dolbeault(alpha: PqForm) -> tuple[PqForm, PqForm]:
    """(del alpha, delbar alpha): (p,q) -> (p+1,q) and (p,q) -> (p,q+1).

    Each component's two real partials along z^j are taken once and feed both
    d/dz^j (when j is not in J) and d/dzbar^j (when j is not in K).
    """
    grid, p, q = alpha.grid, alpha.p, alpha.q
    holo: dict[tuple[Index, Index], np.ndarray] = {}
    anti: dict[tuple[Index, Index], np.ndarray] = {}
    front = (-1) ** p  # dzbar^j crosses the dz^J block
    for (J, K), arr in alpha.components.items():
        for j in range(grid.n):
            if j in J and j in K:
                continue
            # the halves of d/dz^j = (d_x - i d_y) / 2, scaled exactly by a power of two
            fx = grid.derivative(arr, 2 * j)
            fx *= 0.5
            ify = grid.derivative(arr, 2 * j + 1)
            ify *= 0.5j
            if j not in J:
                merged, sign = merge_sign((j,), J)
                # fx is still needed below when j is not in K
                dz = np.subtract(fx, ify, out=fx if j in K else None)
                _accumulate(holo, (merged, K), dz, sign)
            if j not in K:
                merged, sign = merge_sign((j,), K)
                _accumulate(anti, (J, merged), np.add(fx, ify, out=fx), front * sign)
            del fx, ify  # free before the next partials are taken
    # every component of a bidegree within (n, n) receives at least one term
    return PqForm(grid, p + 1, q, holo), PqForm(grid, p, q + 1, anti)


def _accumulate(comps: dict, key: tuple[Index, Index], value: np.ndarray, sign: int) -> None:
    """comps[key] += sign * value, with the sign applied exactly; value is overwritten.

    A component's first term becomes its array; 0.0 + value rounds it as a zero array would.
    """
    if key in comps:
        if sign > 0:
            comps[key] += value
        else:
            comps[key] -= value
    elif sign > 0:
        comps[key] = np.add(value, 0.0, out=value)
    else:
        comps[key] = np.subtract(0.0, value, out=value)


def del_(alpha: PqForm) -> PqForm:
    """Holomorphic exterior derivative, (p,q) -> (p+1,q)."""
    return _dolbeault(alpha)[0]


def delbar(alpha: PqForm) -> PqForm:
    """Antiholomorphic exterior derivative, (p,q) -> (p,q+1)."""
    return _dolbeault(alpha)[1]


def exterior_d(alpha: PqForm) -> FormSum:
    """d = del + delbar, returned as the pair of graded pieces."""
    return form_sum(list(_dolbeault(alpha)))


def d_sum(alpha: FormSum) -> FormSum:
    """d of a mixed-degree form, summed in form_sum's order; each part's del and
    delbar are added into the sum as they are made, so only one pair is alive."""
    acc: dict[tuple[int, int], PqForm] = {}
    for f in alpha.parts.values():
        for piece in _dolbeault(f):
            key = (piece.p, piece.q)
            if key not in acc:
                acc[key] = piece
                continue
            for idx, arr in acc[key].components.items():
                arr += piece.components[idx]
    return FormSum(alpha.grid, acc)


def d_c(u: PeriodicScalarField) -> FormSum:
    """d^c u = i (delbar - del) u for a real 0-form u."""
    if not u.is_real:
        raise ValueError("d^c is defined for real functions")
    holo, anti = _dolbeault(scalar_form(u))
    return form_sum([holo * (-1j), anti * 1j])


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
    holo, anti = _dolbeault(scalar_form(u))
    energy = wedge(holo, anti * 1j) + wedge(anti, holo * (-1j))
    w1 = kahler_form(g1)
    w2 = kahler_form(g2)
    total = 0.0 + 0.0j
    for k in range(n):
        weight = wedge(form_power(w1, k), form_power(w2, n - 1 - k))
        total += integrate_top(wedge(energy, weight))
    if abs(total.imag) > 1e-10 * max(1.0, abs(total.real)):
        raise FloatingPointError(f"uniqueness functional came out non-real: {total}")
    return float(total.real)
