"""Uniform periodic grids on the unit torus [0,1)^(2n) and spectral calculus.

Real coordinates are ordered x1, y1, ..., xn, yn; array axis ``a`` holds
coordinate ``a`` sampled at k/N for k = 0..N-1, last axis fastest (C order).
Holomorphic coordinates are z^j = x^j + i*y^j, so the Wirtinger operators are

    d/dz^j    = (d/dx^j - i d/dy^j) / 2
    d/dzbar^j = (d/dx^j + i d/dy^j) / 2

Differentiation is spectral.  The Nyquist mode is zeroed for first
derivatives (odd symbol) and kept with symbol -(pi*N)^2 for pure second
derivatives, which keeps real fields real.  The dtype of a field's samples
decides its realness: float64 samples make a real field, complex128 samples a
complex one.

Whole real fields are transformed by Grid.rfftn/irfftn and multiplied by
half-spectrum symbols; every solve path uses this seam.  A derivative along
one axis (Grid.derivative, second_partial and, through them, partial_z,
partial_zbar and the forms layer) is instead a product with the
real N x N Fourier differentiation matrix of that axis, the same operator as the symbol
(Trefethen, Spectral Methods in MATLAB, 2000, ch. 3): O(N) work per point and
one BLAS matrix product per call, which for N <= 32 beats a 1-D FFT pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""


@dataclass(frozen=True)
class Grid:
    """Uniform N^(2n) grid on the unit torus, n the complex dimension."""

    n: int
    N: int
    # symbols and differentiation matrices built on first use; not part of the value
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n not in (1, 2):
            raise ValueError(f"complex dimension must be 1 or 2, got {self.n}")
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError(f"points per axis must be even and >= 8, got {self.N}")

    @property
    def num_axes(self) -> int:
        return 2 * self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.num_axes

    @property
    def num_points(self) -> int:
        return self.N ** self.num_axes

    def check_axis(self, axis: int) -> None:
        if not 0 <= axis < self.num_axes:
            raise ValueError(f"axis {axis} out of range for {self.num_axes} real axes")

    def check_holo(self, j: int) -> None:
        if not 0 <= j < self.n:
            raise ValueError(f"holomorphic index {j} out of range for n={self.n}")

    def coordinate(self, axis: int) -> np.ndarray:
        """Samples of real coordinate ``axis``, broadcast to the grid shape."""
        self.check_axis(axis)
        x = np.arange(self.N) / self.N
        shape = [1] * self.num_axes
        shape[axis] = self.N
        return np.broadcast_to(x.reshape(shape), self.shape)

    def wavenumbers(self, axis: int) -> np.ndarray:
        """Integer wavenumbers along ``axis``, shaped for broadcasting."""
        self.check_axis(axis)
        k = np.rint(np.fft.fftfreq(self.N, d=1.0 / self.N)).astype(int)
        shape = [1] * self.num_axes
        shape[axis] = self.N
        return k.reshape(shape)

    def half(self, full: np.ndarray) -> np.ndarray:
        """The rfftn half of a full-spectrum array: last-axis wavenumbers 0..N/2."""
        return full[..., : self.N // 2 + 1]

    def rfftn(self, u: np.ndarray) -> np.ndarray:
        """Half spectrum of a real field's samples."""
        return np.fft.rfftn(u, axes=tuple(range(self.num_axes)))

    def irfftn(self, spec: np.ndarray) -> np.ndarray:
        """Real samples of a half spectrum (the inverse of rfftn)."""
        return np.fft.irfftn(spec, s=self.shape, axes=tuple(range(self.num_axes)))

    def inner(self, U: np.ndarray, V: np.ndarray) -> float:
        """mean(u * v) of two real fields from their half spectra U, V (Parseval)."""
        # an interior last-axis wavenumber also stands for its mirror; 0 and N/2 do not
        edges = np.vdot(U[..., 0], V[..., 0]) + np.vdot(U[..., -1], V[..., -1])
        return float(2.0 * np.vdot(U, V).real - edges.real) / self.num_points ** 2

    def derivative(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Spectral first derivative of a sample array along real axis ``axis``.

        A product with the differentiation matrix (Nyquist mode zeroed), O(N)
        work per point; the result keeps the real or complex dtype, and a line
        constant along the axis gives exact zeros.  No solve path calls it.
        """
        self.check_axis(axis)
        return _apply_axis_matrix(self, values, axis, order=1)

    def mixed_symbols(self, j: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Real half-spectrum symbols (A, B) of d_j dbar_k = A + iB, built once per grid."""
        if (j, k) not in self._cache:
            s = self.half(mixed_hessian_symbol(self, j, k))
            self._cache[j, k] = (np.ascontiguousarray(s.real), np.ascontiguousarray(s.imag))
        return self._cache[j, k]

    def inverse_flat(self) -> np.ndarray:
        """Half-spectrum inverse of the flat operator -(1/4) Laplacian, built once per grid."""
        if "inverse_flat" not in self._cache:
            self._cache["inverse_flat"] = inverse_flat_symbol(self)
        return self._cache["inverse_flat"]

    def axis_matrix(self, order: int) -> np.ndarray:
        """The order-1 or order-2 differentiation matrix, built once per grid."""
        if ("axis", order) not in self._cache:
            self._cache["axis", order] = differentiation_matrix(self, order)
        return self._cache["axis", order]


@dataclass(frozen=True)
class PeriodicScalarField:
    """Scalar samples over a Grid; immutable value object.

    float64 samples make a real field and complex128 samples a complex one;
    make_field picks the dtype from its input.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"value array shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        if self.values.dtype not in (np.float64, np.complex128):
            raise ValueError(f"samples must be float64 or complex128, got {self.values.dtype}")

    @property
    def is_real(self) -> bool:
        return self.values.dtype == np.float64

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def _binary(self, other, op):
        if isinstance(other, PeriodicScalarField):
            if other.grid != self.grid:
                raise GridMismatchError("fields live on different grids")
            return make_field(self.grid, op(self.values, other.values))
        return make_field(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __radd__(self, other):
        return self._binary(other, lambda a, b: b + a)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return self._binary(other, lambda a, b: b * a)

    def __neg__(self):
        return make_field(self.grid, -self.values)


def make_field(grid: Grid, values: np.ndarray) -> PeriodicScalarField:
    """Build a field: real input gives float64 samples, complex input complex128."""
    return PeriodicScalarField(
        grid, np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)
    )


# ---------------------------------------------------------------------------
# spectral differentiation

def first_symbol(grid: Grid, axis: int) -> np.ndarray:
    """Spectral symbol of d/dx_axis, zero on the Nyquist mode."""
    k = grid.wavenumbers(axis)
    sym = 2j * np.pi * k
    return np.where(np.abs(k) == grid.N // 2, 0.0, sym)


def _pure_second_symbol(grid: Grid, axis: int) -> np.ndarray:
    k = grid.wavenumbers(axis)
    return -((2.0 * np.pi * k) ** 2)


def second_symbol(grid: Grid, axis_a: int, axis_b: int) -> np.ndarray:
    """Spectral symbol of d/dx_a d/dx_b with the Nyquist policy applied."""
    if axis_a == axis_b:
        return _pure_second_symbol(grid, axis_a)
    return first_symbol(grid, axis_a) * first_symbol(grid, axis_b)


def differentiation_matrix(grid: Grid, order: int) -> np.ndarray:
    """Real N x N matrix of d/dx (order 1) or d^2/dx^2 (order 2) on the unit period.

    The closed forms of Trefethen (2000), ch. 3, scaled from period 2 pi to 1:
    entry (i, j) depends on m = i - j mod N, with
      order 1: pi (-1)^m cot(pi m / N), 0 for m = 0 (antisymmetric; the
               Nyquist mode is annihilated, as by first_symbol);
      order 2: -2 pi^2 (-1)^m / sin^2(pi m / N), -pi^2 (N^2 + 2) / 3 for m = 0
               (symmetric; the Nyquist mode keeps -(pi N)^2, as by the pure
               second symbol).
    Only m < N/2 is evaluated; m > N/2 mirrors it, so the symmetry is exact.
    """
    N, h = grid.N, grid.N // 2
    m = np.arange(1, h)
    sign = (-1.0) ** m
    col = np.zeros(N)
    if order == 1:
        col[1:h] = np.pi * sign / np.tan(np.pi * m / N)
        col[h + 1:] = -col[h - 1:0:-1]
    else:
        col[0] = -np.pi ** 2 * (N ** 2 + 2) / 3
        col[1:h] = -2 * np.pi ** 2 * sign / np.sin(np.pi * m / N) ** 2
        col[h] = -2 * np.pi ** 2 * (-1.0) ** h
        col[h + 1:] = col[h - 1:0:-1]
    i = np.arange(N)
    return col[(i[:, None] - i[None, :]) % N]


def _apply_axis_matrix(grid: Grid, values: np.ndarray, axis: int, order: int) -> np.ndarray:
    """The order-1 or order-2 differentiation matrix applied along ``axis``.

    Complex samples go through their float64 view, so every product is a real
    matrix product.  Each line's first sample is subtracted first: M 1 = 0, so
    this changes nothing exactly, but a line constant along the axis then gives
    exact zeros, which the product alone misses by rounding.
    """
    M = grid.axis_matrix(order)
    first = values[(slice(None),) * axis + (slice(0, 1),)]
    lines = np.subtract(values, first, order="C",
                        dtype=complex if np.iscomplexobj(values) else float)
    x = lines.view(np.float64)
    if axis < grid.num_axes - 1:
        out = np.matmul(M, x.reshape(grid.N ** axis, grid.N, -1))
    else:
        # on the last axis the parts of a complex sample interleave
        parts = lines.itemsize // 8
        out = x.reshape(-1, parts * grid.N) @ np.kron(M.T, np.eye(parts))
    return out.reshape(x.shape).view(lines.dtype)


def inverse_flat_symbol(grid: Grid) -> np.ndarray:
    """Half-spectrum symbol of the inverse of -(1/4) Laplacian = -sum_j A_jj, zero on constants."""
    flat = -sum(grid.mixed_symbols(j, j)[0] for j in range(grid.n))
    return np.divide(1.0, flat, out=np.zeros(flat.shape), where=flat > 0)


def second_partial(f: PeriodicScalarField, axis_a: int, axis_b: int) -> PeriodicScalarField:
    """Spectral second derivative d/dx_a d/dx_b."""
    grid = f.grid
    if axis_a != axis_b:
        return make_field(grid, grid.derivative(grid.derivative(f.values, axis_a), axis_b))
    grid.check_axis(axis_a)
    return make_field(grid, _apply_axis_matrix(grid, f.values, axis_a, order=2))


def partial_z(f: PeriodicScalarField, j: int) -> PeriodicScalarField:
    """Holomorphic Wirtinger derivative d/dz^j = (d_x - i d_y)/2."""
    f.grid.check_holo(j)
    fx = f.grid.derivative(f.values, 2 * j)
    fy = f.grid.derivative(f.values, 2 * j + 1)
    return make_field(f.grid, 0.5 * (fx - 1j * fy))


def partial_zbar(f: PeriodicScalarField, j: int) -> PeriodicScalarField:
    """Antiholomorphic Wirtinger derivative d/dzbar^j = (d_x + i d_y)/2."""
    f.grid.check_holo(j)
    fx = f.grid.derivative(f.values, 2 * j)
    fy = f.grid.derivative(f.values, 2 * j + 1)
    return make_field(f.grid, 0.5 * (fx + 1j * fy))


def mixed_hessian_symbol(grid: Grid, j: int, k: int) -> np.ndarray:
    """Spectral symbol of d/dz^j d/dzbar^k on the full transform."""
    grid.check_holo(j)
    grid.check_holo(k)
    xj, yj = 2 * j, 2 * j + 1
    xk, yk = 2 * k, 2 * k + 1
    s = (
        second_symbol(grid, xj, xk)
        + 1j * second_symbol(grid, xj, yk)
        - 1j * second_symbol(grid, yj, xk)
        + second_symbol(grid, yj, yk)
    )
    return 0.25 * s


# ---------------------------------------------------------------------------
# gauge

def mean_zero_project(f: PeriodicScalarField) -> PeriodicScalarField:
    """Remove the mean; the discrete gauge condition integral(phi) = 0."""
    if not f.is_real:
        raise ValueError("mean-zero projection is defined for real fields")
    return make_field(f.grid, f.values - np.mean(f.values))


# ---------------------------------------------------------------------------
# test/demo field constructors

def random_band_limited(
    grid: Grid,
    rng: np.random.Generator,
    kmax: int = 3,
    real: bool = True,
    amplitude: float = 1.0,
) -> PeriodicScalarField:
    """Random smooth field with spectral support |k_a| <= kmax on every axis."""
    if kmax >= grid.N // 2:
        raise ValueError("kmax must stay below the Nyquist mode")
    spec = np.zeros(grid.shape, dtype=complex)
    modes = np.r_[0 : kmax + 1, -kmax:0]
    mesh = np.ix_(*([modes] * grid.num_axes))
    block = rng.standard_normal([2 * kmax + 1] * grid.num_axes) + 1j * rng.standard_normal(
        [2 * kmax + 1] * grid.num_axes
    )
    spec[mesh] = block
    vals = np.fft.ifftn(spec) * grid.num_points
    if real:
        vals = vals.real
    sup = np.max(np.abs(vals))
    if sup > 0:
        vals = vals * (amplitude / sup)
    return make_field(grid, vals)
