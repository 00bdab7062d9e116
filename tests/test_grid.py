import numpy as np
import pytest

import torusma as tm
from conftest import axis_derivative


class TestGridValidation:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            tm.Grid(n=3, N=16)

    def test_rejects_odd_or_tiny_resolution(self):
        with pytest.raises(ValueError):
            tm.Grid(n=1, N=15)
        with pytest.raises(ValueError):
            tm.Grid(n=1, N=4)

    def test_shape_and_axes(self):
        g = tm.Grid(n=2, N=16)
        assert g.shape == (16, 16, 16, 16)
        assert g.num_axes == 4
        assert g.num_points == 16 ** 4

    def test_grid_mismatch_raises(self):
        a = tm.make_field(tm.Grid(n=1, N=16), np.zeros((16, 16)))
        b = tm.make_field(tm.Grid(n=1, N=32), np.zeros((32, 32)))
        with pytest.raises(tm.GridMismatchError):
            a + b


class TestDerivatives:
    def test_partial_z_of_sine_closed_form(self):
        # d_z sin(2 pi x1) = (1/2) d_x sin = pi cos(2 pi x1)
        g = tm.Grid(n=1, N=32)
        x = g.coordinate(0)
        f = tm.make_field(g, np.sin(2 * np.pi * x))
        d = tm.partial_z(f, 0)
        assert np.max(np.abs(d.values - np.pi * np.cos(2 * np.pi * x))) < 1e-12

    def test_partial_z_of_constant_is_zero(self):
        g = tm.Grid(n=2, N=16)
        d = tm.partial_z(tm.make_field(g, np.full(g.shape, 3.7)), 1)
        assert d.sup_norm() == 0.0

    @pytest.mark.parametrize("j", [0, 1])
    def test_mixed_hessian_is_quarter_laplacian_for_real_fields(self, j, rng):
        g = tm.Grid(n=2, N=16)
        f = tm.random_band_limited(g, rng, kmax=3, real=True)
        lhs = tm.hermitian_hessian(f).diag[j]
        quarter = 0.25 * (
            tm.second_partial(f, 2 * j, 2 * j) + tm.second_partial(f, 2 * j + 1, 2 * j + 1)
        )
        assert np.max(np.abs(lhs - quarter.values)) < 1e-11

    def test_mixed_hessian_matches_composed_first_derivatives(self, grid, rng):
        # d_j dbar_k of f = u + iv is H(u)_jk + i H(v)_jk, H the Hessian of a real field
        f = tm.random_band_limited(grid, rng, kmax=2, real=False)
        Hu = tm.hermitian_hessian(tm.make_field(grid, f.values.real)).mats
        Hv = tm.hermitian_hessian(tm.make_field(grid, f.values.imag)).mats
        for j in range(grid.n):
            for k in range(grid.n):
                composed = tm.partial_z(tm.partial_zbar(f, k), j)
                direct = Hu[..., j, k] + 1j * Hv[..., j, k]
                assert np.max(np.abs(composed.values - direct)) < 1e-11

    def test_conjugation_symmetry(self, random_real_field):
        # for real f, conj(d_z f) = d_zbar f
        dz = tm.partial_z(random_real_field, 0)
        dzb = tm.partial_zbar(random_real_field, 0)
        assert np.max(np.abs(np.conj(dz.values) - dzb.values)) < 1e-12

    def test_nyquist_mode_first_derivative_vanishes(self):
        g = tm.Grid(n=1, N=16)
        f = tm.make_field(g, np.cos(np.pi * g.N * g.coordinate(0)))
        assert np.max(np.abs(g.derivative(f.values, 0))) < 1e-12

    def test_nyquist_mode_second_derivative_kept(self):
        g = tm.Grid(n=1, N=16)
        vals = np.cos(np.pi * g.N * g.coordinate(0))
        f = tm.make_field(g, vals)
        d2 = tm.second_partial(f, 0, 0)
        expected = -((np.pi * g.N) ** 2) * vals
        assert np.max(np.abs(d2.values - expected)) < 1e-9


def _axis_second_derivative(u, axis, N):
    """Pure second derivative along one axis by a complex 1-D transform, Nyquist mode kept."""
    k = np.fft.fftfreq(N, d=1.0 / N)
    shape = [1] * u.ndim
    shape[axis] = N
    sym = -((2 * np.pi * k) ** 2)
    return np.fft.ifft(np.fft.fft(u, axis=axis) * sym.reshape(shape), axis=axis)


def _white_noise(grid, rng, real):
    """Samples with content on every mode, the Nyquist planes included."""
    u = rng.standard_normal(grid.shape)
    return u if real else u + 1j * rng.standard_normal(grid.shape)


class TestDifferentiationMatrices:
    """The per-axis kernel: a product with the Fourier differentiation matrix."""

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_first_derivative_matches_transform(self, grid, rng, real):
        u = _white_noise(grid, rng, real)
        for axis in range(grid.num_axes):
            got = grid.derivative(u, axis)
            ref = axis_derivative(u, axis, grid.N)
            assert got.dtype == u.dtype
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), axis

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_pure_second_derivative_matches_transform(self, grid, rng, real):
        u = _white_noise(grid, rng, real)
        for axis in range(grid.num_axes):
            got = tm.second_partial(tm.make_field(grid, u), axis, axis).values
            ref = _axis_second_derivative(u, axis, grid.N)
            assert got.dtype == u.dtype
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), axis

    def test_symmetry(self, grid):
        D = grid.axis_matrix(1)
        D2 = grid.axis_matrix(2)
        assert np.array_equal(D, -D.T)
        assert np.array_equal(D2, D2.T)

    def test_nyquist_policy(self, grid):
        N = grid.N
        nyquist = (-1.0) ** np.arange(N)  # cos(pi N x) on the grid
        D = grid.axis_matrix(1)
        D2 = grid.axis_matrix(2)
        assert np.max(np.abs(D @ nyquist)) <= 1e-14 * np.pi * N
        scale = (np.pi * N) ** 2
        assert np.max(np.abs(D2 @ nyquist + scale * nyquist)) <= 1e-14 * scale

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_constant_along_axis_gives_exact_zeros(self, grid, rng, real):
        for axis in range(grid.num_axes):
            plane = np.take(_white_noise(grid, rng, real), [0], axis=axis)
            u = np.broadcast_to(plane, grid.shape)
            assert not np.any(grid.derivative(u, axis)), axis
            assert not np.any(tm.second_partial(tm.make_field(grid, u), axis, axis).values), axis

    def test_one_build_per_grid_and_order(self, monkeypatch, rng):
        builds = []
        original = tm.grid.differentiation_matrix

        def counting(grid, order):
            builds.append((grid, order))
            return original(grid, order)

        monkeypatch.setattr(tm.grid, "differentiation_matrix", counting)
        grids = [tm.Grid(n=2, N=16), tm.Grid(n=2, N=16)]
        for grid in grids:
            for real in (True, False):
                f = tm.make_field(grid, _white_noise(grid, rng, real))
                for axis in range(grid.num_axes):
                    grid.derivative(f.values, axis)
                    tm.second_partial(f, axis, axis)
                tm.partial_z(f, 1)
        assert len(builds) == 4
        for grid in grids:
            assert sorted(order for g, order in builds if g is grid) == [1, 2]


class TestIntegration:
    def test_integrate_pure_harmonic_vanishes(self):
        g = tm.Grid(n=1, N=32)
        f = tm.make_field(g, np.sin(2 * np.pi * 3 * g.coordinate(1)))
        assert abs(np.mean(f.values)) < 1e-14

    def test_integrate_product_of_harmonics(self):
        # integral of cos^2(2 pi x) = 1/2, exact for band-limited data
        g = tm.Grid(n=1, N=32)
        f = tm.make_field(g, np.cos(2 * np.pi * g.coordinate(0)) ** 2)
        assert np.mean(f.values) == pytest.approx(0.5, abs=1e-14)

    def test_mean_zero_project(self, random_real_field):
        p = tm.mean_zero_project(random_real_field)
        assert abs(np.mean(p.values)) < 1e-13
        again = tm.mean_zero_project(p)
        assert np.max(np.abs(again.values - p.values)) < 1e-15


class TestFieldConstruction:
    def test_make_field_detects_real(self, grid):
        f = tm.make_field(grid, np.ones(grid.shape))
        assert f.is_real

    def test_make_field_complex(self, grid):
        f = tm.make_field(grid, 1j * np.ones(grid.shape))
        assert not f.is_real

    def test_dtype_decides_realness(self, grid):
        real = tm.make_field(grid, np.arange(grid.num_points).reshape(grid.shape))
        assert real.values.dtype == np.float64 and real.is_real
        # a complex array stays complex even when its imaginary part is zero
        cplx = tm.make_field(grid, np.ones(grid.shape, dtype=complex))
        assert cplx.values.dtype == np.complex128 and not cplx.is_real
        assert tm.make_field(grid, np.full(grid.shape, 2.5)).values.dtype == np.float64
        assert tm.random_band_limited(grid, np.random.default_rng(1)).values.dtype == np.float64

    def test_rejects_other_dtypes(self, grid):
        with pytest.raises(ValueError):
            tm.PeriodicScalarField(grid, np.ones(grid.shape, dtype=np.float32))

    def test_random_band_limited_respects_band(self, grid, rng):
        f = tm.random_band_limited(grid, rng, kmax=2, real=True)
        spec = np.fft.fftn(f.values)
        for a in range(grid.num_axes):
            k = np.broadcast_to(np.abs(grid.wavenumbers(a)), grid.shape)
            assert np.max(np.abs(spec[k > 2])) < 1e-10 * np.max(np.abs(spec))

    def test_random_band_limited_seeded(self, grid):
        a = tm.random_band_limited(grid, np.random.default_rng(7), kmax=2, real=True)
        b = tm.random_band_limited(grid, np.random.default_rng(7), kmax=2, real=True)
        assert np.array_equal(a.values, b.values)


class TestFiniteDifferenceCrossCheck:
    """Spectral derivatives against the independent roll-stencil oracle."""

    def test_order8_on_sine(self):
        g = tm.Grid(n=1, N=64)
        f = tm.make_field(g, np.sin(2 * np.pi * g.coordinate(0)))
        fd = tm.finite_difference_oracle(f, 0, order=8)
        exact = 2 * np.pi * np.cos(2 * np.pi * g.coordinate(0))
        assert np.max(np.abs(fd.values - exact)) < 1e-9

    @pytest.mark.parametrize("order,tol", [(2, 2e-1), (8, 1e-6)])
    def test_spectral_vs_fd_on_random_fields(self, order, tol, rng):
        g = tm.Grid(n=1, N=64)
        f = tm.random_band_limited(g, rng, kmax=3, real=True)
        for axis in range(2):
            fd = tm.finite_difference_oracle(f, axis, order=order)
            sp = g.derivative(f.values, axis)
            assert np.max(np.abs(fd.values - sp)) < tol

    def test_rejects_unknown_order(self, random_real_field):
        with pytest.raises(ValueError):
            tm.finite_difference_oracle(random_real_field, 0, order=3)
