"""Kahler metrics from potentials, curvature, and the Laplace-Beltrami operator.

Sign conventions (see CONVENTIONS.md):
  * Ricci carries a leading minus: R_jk = -d_j dbar_k log det(g).
  * The Laplace-Beltrami operator is defined with a plus sign (negative
    spectrum): lap_g u = sum_jk g^{j kbar} d_j dbar_k u.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import (
    Grid,
    GridMismatchError,
    PeriodicScalarField,
    make_field,
    partial_z,
)


class SingularMetricError(ValueError):
    """A pointwise matrix operation hit a (near-)singular metric."""

    def __init__(self, message: str, point: tuple[int, ...] | None = None):
        super().__init__(message)
        self.point = point


@dataclass(frozen=True)
class HermitianMetricField:
    """Per-grid-point n x n Hermitian matrix g_{j kbar}, stored packed.

    diag holds the real diagonal g_{j jbar}, shape (n,) + grid.shape, float64.
    For n = 2, off holds g_{2 1bar} (complex128, grid.shape) and
    g_{1 2bar} = conj(off); for n = 1 off is None.
    """

    grid: Grid
    diag: np.ndarray
    off: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.grid.n
        if self.diag.shape != (n,) + self.grid.shape or self.diag.dtype != np.float64:
            raise ValueError(f"diagonal must be float64 of shape {(n,) + self.grid.shape}")
        if (self.off is None) != (n == 1):
            raise ValueError("the off-diagonal entry is stored for n = 2 only")
        if n == 2 and (self.off.shape != self.grid.shape or self.off.dtype != np.complex128):
            raise ValueError(f"off-diagonal must be complex128 of shape {self.grid.shape}")

    @property
    def mats(self) -> np.ndarray:
        """The full matrices, shape grid.shape + (n, n); built on each access."""
        n = self.grid.n
        mats = np.zeros(self.grid.shape + (n, n), dtype=complex)
        for j in range(n):
            mats[..., j, j] = self.diag[j]
        if self.off is not None:
            mats[..., 1, 0] = self.off
            mats[..., 0, 1] = np.conj(self.off)
        return mats

    @cached_property
    def det(self) -> np.ndarray:
        """Pointwise determinant (float64), formed on first use and kept."""
        if self.grid.n == 1:
            return self.diag[0]
        # |off|^2 as the real part of the complex product, which rounds like numpy's
        # complex multiply rather than like x^2 + y^2
        return self.diag[0] * self.diag[1] - (self.off * np.conj(self.off)).real

    def _combine(self, other: "HermitianMetricField", op) -> "HermitianMetricField":
        if other.grid != self.grid:
            raise GridMismatchError("metric fields live on different grids")
        off = None if self.off is None else op(self.off, other.off)
        return HermitianMetricField(self.grid, op(self.diag, other.diag), off)

    def __add__(self, other: "HermitianMetricField") -> "HermitianMetricField":
        return self._combine(other, np.add)

    def __sub__(self, other: "HermitianMetricField") -> "HermitianMetricField":
        return self._combine(other, np.subtract)

    def __neg__(self) -> "HermitianMetricField":
        return HermitianMetricField(self.grid, -self.diag, None if self.off is None else -self.off)


def flat_metric(grid: Grid) -> HermitianMetricField:
    off = np.zeros(grid.shape, dtype=complex) if grid.n == 2 else None
    return HermitianMetricField(grid, np.ones((grid.n,) + grid.shape), off)


def hermitian_hessian(phi: PeriodicScalarField, spec: np.ndarray | None = None
                      ) -> HermitianMetricField:
    """d_j dbar_k phi of a real phi, packed, from the parts of Grid.hessian(phi, spec):
    the n real diagonals, and for n = 2 d_2 dbar_1 phi = conj(d_1 dbar_2 phi)."""
    if not phi.is_real:
        raise ValueError("the complex Hessian is taken of real fields")
    grid = phi.grid
    parts = grid.hessian(phi.values, spec)
    diag = np.stack(parts[:grid.n])
    off = None
    if grid.n == 2:
        off = np.empty(grid.shape, dtype=complex)
        off.real = parts[2]
        off.imag = -parts[3]
    return HermitianMetricField(grid, diag, off)


def metric_from_potential(g: HermitianMetricField, phi: PeriodicScalarField,
                          spec: np.ndarray | None = None) -> HermitianMetricField:
    """g~ = g + d dbar phi, Hermitian by construction; the one place g~ is formed."""
    if phi.grid != g.grid:
        raise GridMismatchError("potential and metric live on different grids")
    if not phi.is_real:
        raise ValueError("potential must be real")
    return g + hermitian_hessian(phi, spec)


def eigenvalue_fields(g: HermitianMetricField) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise (min, max) eigenvalues via closed forms (n <= 2)."""
    if g.grid.n == 1:
        return g.diag[0], g.diag[0]
    tr = g.diag[0] + g.diag[1]
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * g.det, 0.0))
    return 0.5 * (tr - disc), 0.5 * (tr + disc)


def positivity_check(g: HermitianMetricField) -> float:
    """Smallest pointwise eigenvalue over the grid; g is positive where it is > 0."""
    return float(np.min(eigenvalue_fields(g)[0]))


def inverse_field(g: HermitianMetricField) -> HermitianMetricField:
    """Pointwise matrix inverse; raises on singular points."""
    det = g.det
    min_abs = float(np.min(np.abs(det)))
    if min_abs < 1e-14:
        idx = np.unravel_index(int(np.argmin(np.abs(det))), det.shape)
        raise SingularMetricError(f"singular metric at grid point {idx}, |det| {min_abs:.3e}", idx)
    if g.grid.n == 1:
        return HermitianMetricField(g.grid, 1.0 / g.diag)
    return HermitianMetricField(g.grid, g.diag[::-1] / det, -g.off / det)


def log_det_field(g: HermitianMetricField) -> PeriodicScalarField:
    det = g.det
    if np.min(det) <= 0.0:
        idx = np.unravel_index(int(np.argmin(det)), det.shape)
        raise SingularMetricError(f"non-positive determinant at grid point {idx}", idx)
    return make_field(g.grid, np.log(det))


def christoffel(g: HermitianMetricField) -> np.ndarray:
    """Gamma_{jk}^l = (d_j g_{k mbar}) g^{mbar l}, computed spectrally.

    Shape grid.shape + (n, n, n), indices [j, k, l].  Assumes a Kahler metric
    field, so the result is symmetric in j,k; the antiholomorphic block is the
    complex conjugate and is not returned.
    """
    grid = g.grid
    n = grid.n
    ginv = inverse_field(g).mats  # ginv[m, l] = g^{mbar l}
    mats = g.mats
    dg = np.empty(grid.shape + (n, n, n), dtype=complex)  # dg[j, k, m] = d_j g_{k mbar}
    for k in range(n):
        for m in range(n):
            comp = make_field(grid, mats[..., k, m])
            for j in range(n):
                dg[..., j, k, m] = partial_z(comp, j).values
    return np.einsum("...jkm,...ml->...jkl", dg, ginv)


def christoffel_trace(gamma: np.ndarray) -> np.ndarray:
    """Contraction Gamma_{jk}^k of christoffel's array, indexed by j; shape grid.shape + (n,)."""
    return np.einsum("...jkk->...j", gamma)


def log_volume_gradient(g: HermitianMetricField) -> np.ndarray:
    """d_j log det(g), indexed by j.

    det(g) here is the determinant of the n x n Hermitian matrix, which equals
    the square root of the real 2n x 2n metric determinant in our
    normalization; this is the oracle side of the Christoffel trace identity.
    """
    grid = g.grid
    logdet = log_det_field(g)
    out = np.empty(grid.shape + (grid.n,), dtype=complex)
    for j in range(grid.n):
        out[..., j] = partial_z(logdet, j).values
    return out


def ricci_form(g: HermitianMetricField) -> HermitianMetricField:
    """Ricci components R_{j kbar} = -d_j dbar_k log det(g), spectral derivatives."""
    return -hermitian_hessian(log_det_field(g))


def first_chern_integral(g: HermitianMetricField) -> float:
    """(1/2pi) * integral of 2*R_{1 1bar}; vanishes on the torus (n = 1 only).

    The factor 2 converts the i dz^1 ^ dzbar^1 coefficient to the real
    coordinate measure.
    """
    if g.grid.n != 1:
        raise ValueError("first Chern integral implemented for n = 1 only")
    return float(2.0 * np.mean(ricci_form(g).diag[0]) / (2.0 * np.pi))


def volume(g: HermitianMetricField) -> float:
    """Integral of det(g) over the torus in the real coordinate measure."""
    return float(np.mean(g.det))


def laplace_beltrami(g: HermitianMetricField, u: PeriodicScalarField) -> PeriodicScalarField:
    """lap_g u = sum_jk g^{j kbar} d_j dbar_k u of a real field u; real output."""
    if u.grid != g.grid:
        raise GridMismatchError("field and metric live on different grids")
    ginv = inverse_field(g)
    H = hermitian_hessian(u)
    out = np.sum(ginv.diag * H.diag, axis=0)
    if g.grid.n == 2:
        # g^{1 2bar} d_1 dbar_2 u + g^{2 1bar} d_2 dbar_1 u, a sum of conjugates
        out += 2.0 * (ginv.off * np.conj(H.off)).real
    return make_field(g.grid, out)
