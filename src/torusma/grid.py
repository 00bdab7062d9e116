"""Uniform periodic grids on the unit torus [0,1)^(2n) and spectral calculus.

Real coordinates are ordered x1, y1, ..., xn, yn; array axis ``a`` holds
coordinate ``a`` sampled at k/N for k = 0..N-1, last axis fastest (C order).
Holomorphic coordinates are z^j = x^j + i*y^j, so the Wirtinger operators are

    d/dz^j    = (d/dx^j - i d/dy^j) / 2
    d/dzbar^j = (d/dx^j + i d/dy^j) / 2

Differentiation is spectral.  The Nyquist policy of CONVENTIONS.md is stated
once, in the grid's two axis symbols (Grid.axis_symbols); every symbol and
per-axis matrix below is built from them and cached on the grid on first use.
The dtype of a field's samples decides its realness: float64 samples make a
real field, complex128 samples a complex one.

The solver's operators are separable, with symbols even on every axis, so
each is also a real N x N product along each axis.  Their three seams,
Grid.derivative, Grid.hessian and Grid.inverse_flat, choose the algorithm by
the dimension n alone, at every N: per-axis products with D, D2 or the
Hartley matrix at n = 2, transforms at n = 1.  A 4-D grid has N^3 lines along
each axis, and one batched BLAS product (numpy.matmul) multiplies all of
them, where an FFT pays its per-line overhead on each.  A 2-D grid runs to N
in the hundreds, where the FFT's N log N work wins, and there the transforms
also round better than the D2 products (acceptance criterion 10).
Grid.rfftn/irfftn are numpy.fft at every N; at n = 2 only the band-limit
check and grid sequencing's prolongation call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""


@dataclass(frozen=True)
class Grid:
    """Uniform N^(2n) grid on the unit torus, n the complex dimension.

    At n = 1 the cost of every transform grows with the largest prime factor
    of N, so N should have only small prime factors: a solve at N = 514 =
    2 * 257 is several times slower than one at N = 550 = 2 * 5^2 * 11.
    """

    n: int
    N: int

    def __post_init__(self) -> None:
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in (self.n, self.N)):
            raise ValueError(f"n and N must be integers, got {self.n!r} and {self.N!r}")
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

    @property
    def wavenumbers(self) -> np.ndarray:
        """The integer wavenumbers k of one axis in fftfreq order."""
        return np.rint(np.fft.fftfreq(self.N, d=1.0 / self.N)).astype(int)

    def along(self, sym: np.ndarray, axis: int) -> np.ndarray:
        """A 1-D array over fftfreq wavenumbers, shaped to broadcast along ``axis``."""
        self.check_axis(axis)
        return sym.reshape((1,) * axis + (-1,) + (1,) * (self.num_axes - 1 - axis))

    def rfftn(self, u: np.ndarray) -> np.ndarray:
        """Half spectrum of a real field's samples (numpy.fft.rfftn over every axis)."""
        return np.fft.rfftn(u, axes=tuple(range(self.num_axes)))

    def irfftn(self, spec: np.ndarray) -> np.ndarray:
        """Real samples of a half spectrum (the inverse of rfftn)."""
        return np.fft.irfftn(spec, s=self.shape, axes=tuple(range(self.num_axes)))

    def prolong(self, spec: np.ndarray, fine: Grid) -> np.ndarray:
        """The half spectrum on the finer grid ``fine`` of the interpolant whose rfftn half
        spectrum here is spec, with no transform: spec zero-padded, with the Nyquist
        modes dropped on every axis, since sin(pi N x) vanishes at every point here
        and the samples cannot say which wave at N/2 to carry up."""
        if (fine.n != self.n or fine.N < self.N
                or spec.shape != self.shape[:-1] + (self.N // 2 + 1,)):
            raise ValueError(f"cannot prolong {spec.shape} from N={self.N} to {fine}")
        h, d = self.N // 2, self.num_axes
        src = np.ix_(*[np.r_[0:h, self.N - h + 1 : self.N]] * (d - 1), np.arange(h))
        dst = np.ix_(*[np.r_[0:h, fine.N - h + 1 : fine.N]] * (d - 1), np.arange(h))
        padded = np.zeros(fine.shape[:-1] + (fine.N // 2 + 1,), dtype=complex)
        # numpy's inverse transform divides by the number of points
        padded[dst] = spec[src] * (fine.num_points / self.num_points)
        return padded

    def derivative(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Spectral first derivative of a sample array along real axis ``axis``.

        The Nyquist mode is zeroed and the result keeps the real or complex
        dtype.  Each line's first sample is subtracted first: this changes
        nothing exactly, but a line constant along the axis then gives exact
        zeros, which a product or transform of the raw samples misses by
        rounding.  At n = 2 the lines are multiplied by the differentiation
        matrix D (_apply_axis_matrix); at n = 1 they take rfft/irfft along
        the axis for float64 samples, fft/ifft for complex.  ``values`` may
        be a block of a field, C-ordered or not, with whole lines along
        ``axis`` and along the last axis: its derivative is that block of the
        field's, bit for bit.  (One index on the last axis would turn the
        products along axis 2 into matrix-vector calls, which round differently.)
        """
        self.check_axis(axis)
        first = values[(slice(None),) * axis + (slice(0, 1),)]
        lines = np.subtract(values, first, order="C",
                            dtype=complex if np.iscomplexobj(values) else float)
        if self.n == 2:
            return _apply_axis_matrix(self.axis_matrices[0], lines, axis)
        first = self.axis_symbols[0]
        if lines.dtype == np.float64:
            half = self.along(first[: self.N // 2 + 1], axis)
            return np.fft.irfft(np.fft.rfft(lines, axis=axis) * half, n=self.N, axis=axis)
        return np.fft.ifft(np.fft.fft(lines, axis=axis) * self.along(first, axis), axis=axis)

    def hessian(self, u: np.ndarray, spec: np.ndarray | None = None) -> list[np.ndarray]:
        """[A_00 u, .., A_{n-1,n-1} u], and A_01 u, B_01 u for n = 2: d_j dbar_k = A_jk + i B_jk.

        At n = 1 the one part is irfftn of u's half spectrum (spec, else rfftn(u)) times
        (1/4)(s_x + s_y), s the second axis symbol (hessian_half_symbol).  At n = 2,
        A_jj = (1/4)(D2_xj + D2_yj), A_01 = (1/4)(D_x1 D_x2 + D_y1 D_y2) and
        B_01 = (1/4)(D_x1 D_y2 - D_y1 D_x2), one product per axis and term: D
        annihilates the Nyquist mode and D2 keeps it, the axis symbols' policy.  The
        products see u less its first sample, so a constant gives exact zeros.
        """
        if self.n == 1:
            spec = self.rfftn(u) if spec is None else spec
            return [self.irfftn(spec * self.hessian_half_symbol)]
        v = np.subtract(u, u.flat[0], dtype=float)
        v *= 0.25  # a power of two: the products round as if scaled after
        D, D2 = self.axis_matrices
        # the cross terms first, so that the first partials are freed before
        # the diagonals exist
        dx1, dy1 = _apply_axis_matrix(D, v, 0), _apply_axis_matrix(D, v, 1)
        re = _apply_axis_matrix(D, dx1, 2)
        re += _apply_axis_matrix(D, dy1, 3)
        im = _apply_axis_matrix(D, dx1, 3)
        im -= _apply_axis_matrix(D, dy1, 2)
        del dx1, dy1
        parts = []
        for j in range(self.n):
            h = _apply_axis_matrix(D2, v, 2 * j)
            h += _apply_axis_matrix(D2, v, 2 * j + 1)
            parts.append(h)
        return parts + [re, im]

    def inverse_flat(self, r: np.ndarray) -> np.ndarray:
        """The inverse of the flat operator -(1/4) Laplacian applied to real samples r.

        At n = 2 the orthonormal Hartley matrix H, its own inverse,
        diagonalizes the operator axis by axis: the result is
        H...(symbol * H...r), four products each side, and a constant c maps
        to rounding of about 1e-16 |c|.  At n = 1 it is an rfftn/irfftn pair,
        and a constant maps to exact zeros.
        """
        if self.n == 1:
            spec = self.rfftn(r)
            spec *= self.inverse_flat_symbol[..., : self.N // 2 + 1]
            return self.irfftn(spec)
        H = self.hartley_matrix
        for a in range(self.num_axes):
            r = _apply_axis_matrix(H, r, a)
        r *= self.inverse_flat_symbol
        for a in range(self.num_axes):
            r = _apply_axis_matrix(H, r, a)
        return r

    @cached_property
    def axis_symbols(self) -> tuple[np.ndarray, np.ndarray]:
        """(2 pi i k, -(2 pi k)^2) of d/dx and d^2/dx^2 over one axis, k in fftfreq
        order; the odd first symbol zeroes the Nyquist mode, the second keeps it
        at -(pi N)^2."""
        k = self.wavenumbers
        first = np.where(np.abs(k) == self.N // 2, 0.0, 2j * np.pi * k)
        return first, -((2.0 * np.pi * k) ** 2)

    @cached_property
    def axis_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(D, D2) of d/dx and d^2/dx^2 over one axis: the real circulants of the two
        axis symbols, whose closed forms Trefethen (2000), ch. 3, gives.

        Entry (i, j) is entry m = i - j mod N of the symbol's inverse DFT for
        m <= N/2 and mirrors entry N - m above, negated for the odd D, whose
        entries 0 and N/2 are 0: D is exactly antisymmetric, D2 exactly symmetric.
        """
        N, h = self.N, self.N // 2
        d, s = (np.fft.ifft(sym).real for sym in self.axis_symbols)
        d[[0, h]] = 0.0
        d[h + 1:], s[h + 1:] = -d[h - 1:0:-1], s[h - 1:0:-1]
        m = np.subtract.outer(np.arange(N), np.arange(N)) % N
        return d[m], s[m]

    @cached_property
    def hartley_matrix(self) -> np.ndarray:
        """The orthonormal Hartley matrix cas(2 pi jk / N) / sqrt(N), cas = cos + sin.

        It is symmetric and its own inverse, and it diagonalizes every circulant
        with an even symbol (Bracewell 1986): C C = N I for the unscaled C.
        """
        i = np.arange(self.N)
        t = 2 * np.pi * (np.outer(i, i) % self.N) / self.N
        return (np.cos(t) + np.sin(t)) / np.sqrt(self.N)

    @cached_property
    def hessian_half_symbol(self) -> np.ndarray:
        """Grid.hessian's one part at n = 1, A_00 = (1/4)(s_x + s_y), on the rfftn
        half spectrum: the last axis keeps wavenumbers 0..N/2."""
        return self._quarter_laplacian()[..., : self.N // 2 + 1].copy()

    @cached_property
    def inverse_flat_symbol(self) -> np.ndarray:
        """Full-grid symbol of the inverse of -(1/4) Laplacian = -sum_j A_jj; 0 on constants."""
        lap = self._quarter_laplacian()
        return np.divide(-1.0, lap, out=np.zeros(self.shape), where=lap < 0)

    def _quarter_laplacian(self) -> np.ndarray:
        """(1/4) sum_a s_a over the full grid, s the second axis symbol: the symbol of
        (1/4) Laplacian = sum_j A_jj.  Starting from -0.0, the exact additive identity,
        not sum's int 0, keeps the constant mode's (1/4) s(0) = -0.0."""
        quarter = 0.25 * self.axis_symbols[1]
        return sum((self.along(quarter, a) for a in range(self.num_axes)), -0.0)


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

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rmul__(self, other):
        return self._binary(other, lambda a, b: b * a)


def make_field(grid: Grid, values: np.ndarray) -> PeriodicScalarField:
    """Build a field: real input gives float64 samples, complex input complex128."""
    return PeriodicScalarField(
        grid, np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)
    )


# ---------------------------------------------------------------------------
# spectral differentiation

def _product_along_axis(M: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """M applied to every line of x along ``axis`` (not the last): one batched BLAS product.

    The result is C-ordered and has M.shape[0] points along ``axis``.
    """
    lead = x.shape[:axis]
    y = np.matmul(M, x.reshape(math.prod(lead), x.shape[axis], -1))
    return y.reshape(lead + (M.shape[0],) + x.shape[axis + 1:])


def _apply_axis_matrix(M: np.ndarray, lines: np.ndarray, axis: int) -> np.ndarray:
    """The real N x N matrix M applied along ``axis`` of C-ordered 4-D samples.

    On the last axis the lines are rows of products with M.T; on the others
    complex samples go through their float64 view: real products, faster there
    than a complex GEMM.
    One matmul makes a product per index of axis 1 along axis 0, and of axis 0
    for complex samples along the last axis, so a one-index slab of
    forms._add_dolbeault makes none above N x N by N x 2N, which OpenBLAS runs
    on the calling thread at N <= 32.  This rounds as one product would; 32
    real rows by a 32 x 32 M do not, so real rows stay in one.  The result is
    a new array, C-ordered like ``lines``.
    """
    if axis == lines.ndim - 1:
        shape = (lines.shape[0] if np.iscomplexobj(lines) else 1, -1, lines.shape[-1])
        return np.matmul(lines.reshape(shape), M.T).reshape(lines.shape)
    if axis == 0:
        res = np.empty_like(lines)
        shape = lines.shape[:2] + (-1,)  # lines of one index of axis 1 per product
        np.matmul(M, lines.view(np.float64).reshape(shape).transpose(1, 0, 2),
                  out=res.view(np.float64).reshape(shape).transpose(1, 0, 2))
        return res
    return _product_along_axis(M, lines.view(np.float64), axis).view(lines.dtype)


def partial_z(f: PeriodicScalarField, j: int) -> PeriodicScalarField:
    """Holomorphic Wirtinger derivative d/dz^j = (d_x - i d_y)/2."""
    f.grid.check_holo(j)
    fx = f.grid.derivative(f.values, 2 * j)
    fy = f.grid.derivative(f.values, 2 * j + 1)
    return make_field(f.grid, 0.5 * (fx - 1j * fy))


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
    """Random smooth field with spectral support |k_a| <= kmax on every axis.

    The (2 kmax + 1)^(2n) block of complex normal coefficients is summed
    against exp(2 pi i k x) one axis at a time, one matrix product per axis,
    so no N^(2n) spectrum is padded or transformed.  A real field is the real
    part of that sum, taken in the last axis's product.  The result is scaled
    to sup |f| = amplitude.
    """
    if kmax >= grid.N // 2:
        raise ValueError("kmax must stay below the Nyquist mode")
    K, N = 2 * kmax + 1, grid.N
    vals = rng.standard_normal([K] * grid.num_axes) + 1j * rng.standard_normal(
        [K] * grid.num_axes
    )
    modes = np.r_[0 : kmax + 1, -kmax:0]
    # waves[k, j] = exp(2 pi i modes[k] j / N), the phase reduced mod N in integers
    waves = np.exp(2j * np.pi * (np.outer(modes, np.arange(N)) % N) / N)
    for axis in range(grid.num_axes - 1):
        # axes before ``axis`` are summed already
        vals = _product_along_axis(waves.T, vals, axis)
    vals = vals.reshape(-1, K)
    if real:
        # Re sum_k c_k e^(ikx) = sum_k (Re c_k cos kx - Im c_k sin kx); the float
        # view interleaves Re c_k and Im c_k, so the rows interleave cos and -sin
        rows = np.stack([waves.real, -waves.imag], axis=1).reshape(2 * K, N)
        vals = vals.view(np.float64) @ rows
        sup = max(vals.max(), -vals.min())
    else:
        vals = vals @ waves
        sup = np.max(np.abs(vals))
    if sup > 0:
        vals *= amplitude / sup
    return make_field(grid, vals.reshape(grid.shape))
