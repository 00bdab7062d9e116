"""Kahler metrics from potentials, curvature, and the Laplace-Beltrami operator.

Sign conventions (see CONVENTIONS.md):
  * Ricci carries a leading minus: R_jk = -d_j dbar_k log det(g).
  * The Laplace-Beltrami operator is defined with a plus sign (negative
    spectrum): lap_g u = sum_jk g^{j kbar} d_j dbar_k u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    GridMismatchError,
    PeriodicScalarField,
    make_field,
    partial_z,
)

HERMITIAN_TOL = 1e-13


class SingularMetricError(ValueError):
    """A pointwise matrix operation hit a (near-)singular metric."""

    def __init__(self, message: str, point: tuple[int, ...] | None = None,
                 min_abs_det: float | None = None):
        super().__init__(message)
        self.point = point
        self.min_abs_det = min_abs_det


@dataclass(frozen=True)
class HermitianMetricField:
    """Per-grid-point n x n Hermitian matrix g_{j kbar}."""

    grid: Grid
    mats: np.ndarray  # shape grid.shape + (n, n)

    def __post_init__(self) -> None:
        n = self.grid.n
        if self.mats.shape != self.grid.shape + (n, n):
            raise ValueError(f"matrix field has shape {self.mats.shape}")

    def hermitian_deviation(self) -> float:
        return float(np.max(np.abs(self.mats - np.conj(np.swapaxes(self.mats, -1, -2)))))

    def __add__(self, other: "HermitianMetricField") -> "HermitianMetricField":
        if other.grid != self.grid:
            raise GridMismatchError("metric fields live on different grids")
        return HermitianMetricField(self.grid, self.mats + other.mats)

    def __sub__(self, other: "HermitianMetricField") -> "HermitianMetricField":
        if other.grid != self.grid:
            raise GridMismatchError("metric fields live on different grids")
        return HermitianMetricField(self.grid, self.mats - other.mats)


@dataclass(frozen=True)
class ChristoffelField:
    """Holomorphic Christoffel components Gamma_{jk}^l, symmetric in j,k.

    The antiholomorphic block is the complex conjugate and is not stored.
    """

    grid: Grid
    gamma: np.ndarray  # shape grid.shape + (n, n, n), indices [j, k, l]


@dataclass(frozen=True)
class RicciField:
    """Ricci components R_{j kbar}, Hermitian at every point."""

    grid: Grid
    mats: np.ndarray


@dataclass(frozen=True)
class PositivityReport:
    is_positive: bool
    min_eig: float
    argmin_point: tuple[int, ...]


def flat_metric(grid: Grid) -> HermitianMetricField:
    mats = np.zeros(grid.shape + (grid.n, grid.n), dtype=complex)
    for j in range(grid.n):
        mats[..., j, j] = 1.0
    return HermitianMetricField(grid, mats)


def hermitian_hessian(phi: PeriodicScalarField) -> np.ndarray:
    """H[j,k] = d_j dbar_k phi of a real phi; H[k,j] = conj(H[j,k]) is set, not transformed."""
    if not phi.is_real:
        raise ValueError("the complex Hessian is taken of real fields")
    grid = phi.grid
    n = grid.n
    spec = grid.rfftn(phi.values.real)
    H = np.zeros(grid.shape + (n, n), dtype=complex)
    for j in range(n):
        for k in range(j, n):
            A, B = grid.mixed_symbols(j, k)
            H.real[..., j, k] = grid.irfftn(spec * A)
            if k > j:
                H.imag[..., j, k] = grid.irfftn(spec * B)
                H[..., k, j] = np.conj(H[..., j, k])
    return H


def metric_from_potential(g0: HermitianMetricField, phi: PeriodicScalarField) -> HermitianMetricField:
    """g~ = g0 + d dbar phi, Hermitian by construction."""
    if phi.grid != g0.grid:
        raise GridMismatchError("potential and metric live on different grids")
    if not phi.is_real:
        raise ValueError("potential must be real")
    return HermitianMetricField(g0.grid, g0.mats + hermitian_hessian(phi))


def eigenvalue_fields(g: HermitianMetricField) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise (min, max) eigenvalues via closed forms (n <= 2)."""
    n = g.grid.n
    if n == 1:
        e = g.mats[..., 0, 0].real
        return e, e
    tr = (g.mats[..., 0, 0] + g.mats[..., 1, 1]).real
    det = (
        g.mats[..., 0, 0] * g.mats[..., 1, 1]
        - g.mats[..., 0, 1] * g.mats[..., 1, 0]
    ).real
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return 0.5 * (tr - disc), 0.5 * (tr + disc)


def positivity_check(g: HermitianMetricField) -> PositivityReport:
    """Smallest pointwise eigenvalue over the grid."""
    lo, _ = eigenvalue_fields(g)
    idx = np.unravel_index(int(np.argmin(lo)), lo.shape)
    min_eig = float(lo[idx])
    return PositivityReport(min_eig > 0.0, min_eig, idx)


def det_field(g: HermitianMetricField) -> PeriodicScalarField:
    """Pointwise determinant; real for Hermitian input."""
    n = g.grid.n
    if n == 1:
        d = g.mats[..., 0, 0]
    else:
        d = g.mats[..., 0, 0] * g.mats[..., 1, 1] - g.mats[..., 0, 1] * g.mats[..., 1, 0]
    return make_field(g.grid, d.real.astype(complex))


def inverse_field(g: HermitianMetricField) -> HermitianMetricField:
    """Pointwise matrix inverse; raises on singular points."""
    n = g.grid.n
    det = det_field(g).values.real
    min_abs = float(np.min(np.abs(det)))
    if min_abs < 1e-14:
        idx = np.unravel_index(int(np.argmin(np.abs(det))), det.shape)
        raise SingularMetricError(
            f"singular metric at grid point {idx}, |det| = {min_abs:.3e}",
            point=idx,
            min_abs_det=min_abs,
        )
    inv = np.empty_like(g.mats)
    if n == 1:
        inv[..., 0, 0] = 1.0 / g.mats[..., 0, 0]
    else:
        inv[..., 0, 0] = g.mats[..., 1, 1] / det
        inv[..., 1, 1] = g.mats[..., 0, 0] / det
        inv[..., 0, 1] = -g.mats[..., 0, 1] / det
        inv[..., 1, 0] = -g.mats[..., 1, 0] / det
    return HermitianMetricField(g.grid, inv)


def log_det_field(g: HermitianMetricField) -> PeriodicScalarField:
    det = det_field(g).values.real
    if np.min(det) <= 0.0:
        idx = np.unravel_index(int(np.argmin(det)), det.shape)
        raise SingularMetricError(
            f"non-positive determinant at grid point {idx}", point=idx,
            min_abs_det=float(np.min(det)),
        )
    return make_field(g.grid, np.log(det).astype(complex))


def christoffel(g: HermitianMetricField) -> ChristoffelField:
    """Gamma_{jk}^l = (d_j g_{k mbar}) g^{mbar l}, computed spectrally.

    Assumes a Kahler metric field, so the result is symmetric in j,k.
    """
    grid = g.grid
    n = grid.n
    ginv = inverse_field(g).mats  # ginv[m, l] = g^{mbar l}
    dg = np.empty(grid.shape + (n, n, n), dtype=complex)  # dg[j, k, m] = d_j g_{k mbar}
    for k in range(n):
        for m in range(n):
            comp = make_field(grid, g.mats[..., k, m])
            for j in range(n):
                dg[..., j, k, m] = partial_z(comp, j).values
    gamma = np.einsum("...jkm,...ml->...jkl", dg, ginv)
    return ChristoffelField(grid, gamma)


def christoffel_trace(gamma: ChristoffelField) -> np.ndarray:
    """Contraction Gamma_{jk}^k, indexed by j; shape grid.shape + (n,)."""
    return np.einsum("...jkk->...j", gamma.gamma)


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


def ricci_form(g: HermitianMetricField) -> RicciField:
    """R_{j kbar} = -d_j dbar_k log det(g), spectral derivatives."""
    h = hermitian_hessian(log_det_field(g))
    return RicciField(g.grid, -h)


def first_chern_integral(g: HermitianMetricField) -> float:
    """(1/2pi) * integral of 2*R_{1 1bar}; vanishes on the torus (n = 1 only).

    The factor 2 converts the i dz^1 ^ dzbar^1 coefficient to the real
    coordinate measure.
    """
    if g.grid.n != 1:
        raise ValueError("first Chern integral implemented for n = 1 only")
    R = ricci_form(g)
    comp = make_field(g.grid, R.mats[..., 0, 0])
    val = complex(np.mean(comp.values))
    return float((2.0 * val / (2.0 * np.pi)).real)


def volume(g: HermitianMetricField) -> float:
    """Integral of det(g) over the torus in the real coordinate measure."""
    return float(np.mean(det_field(g).values.real))


def laplace_beltrami(g: HermitianMetricField, u: PeriodicScalarField) -> PeriodicScalarField:
    """lap_g u = sum_jk g^{j kbar} d_j dbar_k u of a real field u; real output."""
    if u.grid != g.grid:
        raise GridMismatchError("field and metric live on different grids")
    ginv = inverse_field(g).mats
    H = hermitian_hessian(u)
    # g^{j kbar} pairs with H[j, k]; in matrix storage g^{j kbar} = ginv[k, j].
    out = np.einsum("...kj,...jk->...", ginv, H)
    return make_field(g.grid, out)
