"""Uniform periodic grids on the unit torus [0,1)^(2n) and spectral calculus.

Real coordinates are ordered x1, y1, ..., xn, yn; array axis ``a`` holds
coordinate ``a`` sampled at k/N for k = 0..N-1, last axis fastest (C order).
Holomorphic coordinates are z^j = x^j + i*y^j, so the Wirtinger operators are

    d/dz^j    = (d/dx^j - i d/dy^j) / 2
    d/dzbar^j = (d/dx^j + i d/dy^j) / 2

Differentiation is spectral: transform, multiply by the symbol, transform
back.  The Nyquist mode is zeroed for first derivatives (odd symbol) and kept
with symbol -(pi*N)^2 for pure second derivatives, which keeps real fields
real.  The dtype of a field's samples decides its realness: float64 samples
make a real field, complex128 samples a complex one.  Real fields are
transformed by Grid.rfftn/irfftn; complex sample arrays are differentiated
per axis by Grid.derivative.
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
    # (j, k) -> half-spectrum (A, B), filled by mixed_symbols; not part of the value
    _symbols: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """Spectral first derivative of a sample array along real axis ``axis``."""
        self.check_axis(axis)
        return _apply_axis_symbol(values, axis, first_symbol(self, axis))

    def mixed_symbols(self, j: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Real half-spectrum symbols (A, B) of d_j dbar_k = A + iB, built once per grid."""
        if (j, k) not in self._symbols:
            s = self.half(mixed_hessian_symbol(self, j, k))
            self._symbols[j, k] = (np.ascontiguousarray(s.real), np.ascontiguousarray(s.imag))
        return self._symbols[j, k]


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


def constant_field(grid: Grid, value: float | complex) -> PeriodicScalarField:
    return make_field(grid, np.full(grid.shape, value))


def zero_field(grid: Grid) -> PeriodicScalarField:
    return constant_field(grid, 0.0)


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


def _apply_axis_symbol(values: np.ndarray, axis: int, symbol: np.ndarray) -> np.ndarray:
    spec = np.fft.fft(values, axis=axis)
    spec *= symbol
    return np.fft.ifft(spec, axis=axis, out=spec)


def partial_x(f: PeriodicScalarField, axis: int) -> PeriodicScalarField:
    """Spectral derivative along a real coordinate axis."""
    return make_field(f.grid, f.grid.derivative(f.values, axis))


def second_partial(f: PeriodicScalarField, axis_a: int, axis_b: int) -> PeriodicScalarField:
    """Spectral second derivative d/dx_a d/dx_b."""
    grid = f.grid
    if axis_a != axis_b:
        return make_field(grid, grid.derivative(grid.derivative(f.values, axis_a), axis_b))
    grid.check_axis(axis_a)
    return make_field(grid, _apply_axis_symbol(f.values, axis_a, _pure_second_symbol(grid, axis_a)))


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


def partial_z_zbar(f: PeriodicScalarField, j: int, k: int) -> PeriodicScalarField:
    """Mixed second derivative d/dz^j d/dzbar^k, spectral."""
    spec = np.fft.fftn(f.values)
    out = np.fft.ifftn(spec * mixed_hessian_symbol(f.grid, j, k))
    return make_field(f.grid, out)


# ---------------------------------------------------------------------------
# quadrature and gauge

def integrate(f: PeriodicScalarField) -> float | complex:
    """Trapezoidal rule = mean of samples (unit torus volume)."""
    val = np.mean(f.values)
    return float(val) if f.is_real else complex(val)


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
