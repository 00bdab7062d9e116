"""Uniform periodic grids on the unit torus [0,1)^(2n) and spectral calculus.

Real coordinates are ordered x1, y1, ..., xn, yn; array axis ``a`` holds
coordinate ``a`` sampled at k/N for k = 0..N-1, last axis fastest (C order).
Holomorphic coordinates are z^j = x^j + i*y^j, so the Wirtinger operators are

    d/dz^j    = (d/dx^j - i d/dy^j) / 2
    d/dzbar^j = (d/dx^j + i d/dy^j) / 2

Differentiation is spectral, with the Nyquist mode zeroed (odd symbol), which
keeps real fields real.  The dtype of a field's samples decides its realness:
float64 samples make a real field, complex128 samples a complex one.

Whole real fields are transformed by Grid.rfftn/irfftn and multiplied by
half-spectrum symbols; every solve operator uses this seam.  The seam has two
algorithms, chosen by N.  For N <= MATRIX_DFT_MAX_N (32) a transform is one
BLAS product per axis with a cached DFT matrix (dft_matrices): at such sizes
a line holds too few points for an FFT's per-line overhead to pay off.  Larger
grids go to numpy.fft (pocketfft).  Both give the same half spectrum to
rounding.

A first derivative along one axis (Grid.derivative and, through it,
partial_z, the forms layer and the solver's Yau monitor) follows the same
size rule.  For N <= MATRIX_DFT_MAX_N it is a product with the real N x N
Fourier differentiation matrix of that axis, the same operator as the symbol
(Trefethen, Spectral Methods in MATLAB, 2000, ch. 3): one BLAS matrix product
per call.  Larger grids take a 1-D pocketfft pair along the axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# Grids with at most this many points per axis transform by DFT matrix products.
MATRIX_DFT_MAX_N = 32


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
        """Half spectrum of a real field's samples.

        For N <= MATRIX_DFT_MAX_N, the real last-axis product comes first and
        the complex DFTs of the other axes follow (_dft_leading_axes).  The
        products see the samples less their first sample and then less their
        mean, and the mean mode is set to the samples' sum: a constant field
        gives exact zeros off the mean mode, and no large mean adds rounding
        to the other modes.
        """
        if self.N > MATRIX_DFT_MAX_N:
            return np.fft.rfftn(u, axes=tuple(range(self.num_axes)))
        R, W, _, _ = self.dft_matrices()
        v = np.subtract(u, u.flat[0], dtype=float)
        v -= v.mean()
        # the float64 product viewed as complex is the half spectrum of every line
        spec = _dft_leading_axes((v.reshape(-1, self.N) @ R).view(complex), W, self)
        spec = spec.reshape(self.shape[:-1] + (-1,))
        spec[(0,) * self.num_axes] = u.sum()
        return spec

    def irfftn(self, spec: np.ndarray) -> np.ndarray:
        """Real samples of a half spectrum (the inverse of rfftn).

        As in numpy's c2r step, once the other axes are transformed back the
        imaginary parts of the last axis's wavenumbers 0 and N/2 are ignored.
        """
        if self.N > MATRIX_DFT_MAX_N:
            return np.fft.irfftn(spec, s=self.shape, axes=tuple(range(self.num_axes)))
        _, _, V, Q = self.dft_matrices()
        lines = _dft_leading_axes(spec, V, self)
        return (lines.view(np.float64) @ Q).reshape(self.shape)

    def inner(self, U: np.ndarray, V: np.ndarray) -> float:
        """mean(u * v) of two real fields from their half spectra U, V (Parseval)."""
        # an interior last-axis wavenumber also stands for its mirror; 0 and N/2 do not
        edges = np.vdot(U[..., 0], V[..., 0]) + np.vdot(U[..., -1], V[..., -1])
        return float(2.0 * np.vdot(U, V).real - edges.real) / self.num_points ** 2

    def derivative(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Spectral first derivative of a sample array along real axis ``axis``.

        The Nyquist mode is zeroed and the result keeps the real or complex
        dtype.  Each line's first sample is subtracted first: this changes
        nothing exactly, but a line constant along the axis then gives exact
        zeros, which a product or transform of the raw samples misses by
        rounding.  For N <= MATRIX_DFT_MAX_N the lines are multiplied by the
        differentiation matrix (_apply_axis_matrix); larger grids take
        rfft/irfft along the axis for float64 samples, fft/ifft for complex.
        """
        self.check_axis(axis)
        first = values[(slice(None),) * axis + (slice(0, 1),)]
        lines = np.subtract(values, first, order="C",
                            dtype=complex if np.iscomplexobj(values) else float)
        if self.N <= MATRIX_DFT_MAX_N:
            return _apply_axis_matrix(self, lines, axis)
        sym = first_symbol(self, axis)
        if lines.dtype == np.float64:
            half = sym[(slice(None),) * axis + (slice(0, self.N // 2 + 1),)]
            return np.fft.irfft(np.fft.rfft(lines, axis=axis) * half, n=self.N, axis=axis)
        return np.fft.ifft(np.fft.fft(lines, axis=axis) * sym, axis=axis)

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

    def axis_matrix(self) -> np.ndarray:
        """The first-derivative matrix of one axis, built once per grid."""
        if "axis" not in self._cache:
            self._cache["axis"] = differentiation_matrix(self)
        return self._cache["axis"]

    def dft_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """rfftn/irfftn's product matrices (R, W, V, Q), built once per grid."""
        if "dft" not in self._cache:
            self._cache["dft"] = dft_matrices(self)
        return self._cache["dft"]


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


def differentiation_matrix(grid: Grid) -> np.ndarray:
    """Real N x N matrix of d/dx on the unit period.

    The closed form of Trefethen (2000), ch. 3, scaled from period 2 pi to 1:
    entry (i, j) depends on m = i - j mod N, and is pi (-1)^m cot(pi m / N),
    0 for m = 0.  It is antisymmetric, and the Nyquist mode is annihilated, as
    by first_symbol.  Only m < N/2 is evaluated; m > N/2 mirrors it, so the
    antisymmetry is exact.
    """
    N, h = grid.N, grid.N // 2
    m = np.arange(1, h)
    col = np.zeros(N)
    col[1:h] = np.pi * (-1.0) ** m / np.tan(np.pi * m / N)
    col[h + 1:] = -col[h - 1:0:-1]
    i = np.arange(N)
    return col[(i[:, None] - i[None, :]) % N]


def dft_matrices(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The matrices of Grid.rfftn/irfftn for N <= MATRIX_DFT_MAX_N.

    With c_m = cos(2 pi m / N) and s_m = sin(2 pi m / N), m = jk mod N:
      R  real N x 2(N/2+1), columns interleaving c and -s: a real line times R,
         viewed as complex, is its half spectrum;
      W  complex N x N, W[k, j] = exp(-2 pi i jk / N); V = conj(W) / N inverts it;
      Q  real 2(N/2+1) x N, rows interleaving w_k c and -w_k s with w_k = 2/N,
         or 1/N for k = 0 and N/2, whose s rows are zero: the half spectrum's
         real samples, ignoring the imaginary parts that numpy's c2r ignores.
    c and s are exact at multiples of N/4 and mirror exactly about N/2.
    """
    N, h = grid.N, grid.N // 2
    t = 2 * np.pi * np.arange(h + 1) / N
    c, s = np.cos(t), np.sin(t)
    c[h], s[h] = -1.0, 0.0
    if N % 4 == 0:
        c[h // 2], s[h // 2] = 0.0, 1.0
    c = np.r_[c, c[h - 1:0:-1]]
    s = np.r_[s, -s[h - 1:0:-1]]
    m = np.arange(N)
    phase = np.outer(m, m) % N
    W = c[phase] - 1j * s[phase]
    half = phase[: h + 1]
    R = np.stack([c[half.T], -s[half.T]], axis=-1).reshape(N, 2 * (h + 1))
    w = np.full((h + 1, 1), 2.0 / N)
    w[[0, h]] = 1.0 / N
    Q = np.stack([w * c[half], -w * s[half]], axis=1).reshape(2 * (h + 1), N)
    return R, W, np.conj(W) / N, Q


def _dft_leading_axes(x: np.ndarray, M: np.ndarray, grid: Grid) -> np.ndarray:
    """The symmetric N x N matrix M applied along every axis of x but the last.

    x has the half-spectrum shape.  Each pass is one BLAS product with a
    transposed view, which transforms the first axis and moves it last; a
    product along a middle axis would instead be one small product per line.
    After the passes the last axis leads, and one transposing copy puts it
    back.  Returns the C-ordered (N^(2n-1), N/2+1) array of last-axis lines.
    """
    N = grid.N
    for _ in range(grid.num_axes - 1):
        x = x.reshape(N, -1).T @ M
    return np.ascontiguousarray(x.reshape(N // 2 + 1, -1).T)


def _product_along_axis(M: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """M applied to every line of x along ``axis`` (not the last): one batched BLAS product.

    The result is C-ordered and has M.shape[0] points along ``axis``.
    """
    lead = x.shape[:axis]
    out = np.matmul(M, x.reshape(int(np.prod(lead)), x.shape[axis], -1))
    return out.reshape(lead + (M.shape[0],) + x.shape[axis + 1:])


def _apply_axis_matrix(grid: Grid, lines: np.ndarray, axis: int) -> np.ndarray:
    """The differentiation matrix applied along ``axis`` of C-ordered samples.

    Complex samples go through their float64 view, so every product is a real
    matrix product.
    """
    M = grid.axis_matrix()
    x = lines.view(np.float64)
    if axis < grid.num_axes - 1:
        out = _product_along_axis(M, x, axis)
    else:
        # on the last axis the parts of a complex sample interleave
        parts = lines.itemsize // 8
        out = x.reshape(-1, parts * grid.N) @ np.kron(M.T, np.eye(parts))
    return out.reshape(x.shape).view(lines.dtype)


def inverse_flat_symbol(grid: Grid) -> np.ndarray:
    """Half-spectrum symbol of the inverse of -(1/4) Laplacian = -sum_j A_jj, zero on constants."""
    flat = -sum(grid.mixed_symbols(j, j)[0] for j in range(grid.n))
    return np.divide(1.0, flat, out=np.zeros(flat.shape), where=flat > 0)


def partial_z(f: PeriodicScalarField, j: int) -> PeriodicScalarField:
    """Holomorphic Wirtinger derivative d/dz^j = (d_x - i d_y)/2."""
    f.grid.check_holo(j)
    fx = f.grid.derivative(f.values, 2 * j)
    fy = f.grid.derivative(f.values, 2 * j + 1)
    return make_field(f.grid, 0.5 * (fx - 1j * fy))


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
