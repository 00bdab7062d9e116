import numpy as np
import pytest

import torusma as tm


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
        a = tm.zero_field(tm.Grid(n=1, N=16))
        b = tm.zero_field(tm.Grid(n=1, N=32))
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
        d = tm.partial_z(tm.constant_field(g, 3.7), 1)
        assert d.sup_norm() == 0.0

    @pytest.mark.parametrize("j", [0, 1])
    def test_mixed_hessian_is_quarter_laplacian_for_real_fields(self, j, rng):
        g = tm.Grid(n=2, N=16)
        f = tm.random_band_limited(g, rng, kmax=3, real=True)
        lhs = tm.partial_z_zbar(f, j, j)
        quarter = 0.25 * (
            tm.second_partial(f, 2 * j, 2 * j) + tm.second_partial(f, 2 * j + 1, 2 * j + 1)
        )
        assert np.max(np.abs(lhs.values - quarter.values)) < 1e-11

    def test_mixed_hessian_matches_composed_first_derivatives(self, grid, rng):
        f = tm.random_band_limited(grid, rng, kmax=2, real=False)
        for j in range(grid.n):
            for k in range(grid.n):
                composed = tm.partial_z(tm.partial_zbar(f, k), j)
                direct = tm.partial_z_zbar(f, j, k)
                assert np.max(np.abs(composed.values - direct.values)) < 1e-11

    def test_conjugation_symmetry(self, random_real_field):
        # for real f, conj(d_z f) = d_zbar f
        dz = tm.partial_z(random_real_field, 0)
        dzb = tm.partial_zbar(random_real_field, 0)
        assert np.max(np.abs(np.conj(dz.values) - dzb.values)) < 1e-12

    def test_nyquist_mode_first_derivative_vanishes(self):
        g = tm.Grid(n=1, N=16)
        f = tm.make_field(g, np.cos(np.pi * g.N * g.coordinate(0)))
        assert tm.partial_x(f, 0).sup_norm() < 1e-12

    def test_nyquist_mode_second_derivative_kept(self):
        g = tm.Grid(n=1, N=16)
        vals = np.cos(np.pi * g.N * g.coordinate(0))
        f = tm.make_field(g, vals)
        d2 = tm.second_partial(f, 0, 0)
        expected = -((np.pi * g.N) ** 2) * vals
        assert np.max(np.abs(d2.values - expected)) < 1e-9


class TestIntegration:
    def test_integrate_constant(self, grid):
        assert tm.integrate(tm.constant_field(grid, 2.5)) == pytest.approx(2.5)

    def test_integrate_pure_harmonic_vanishes(self):
        g = tm.Grid(n=1, N=32)
        f = tm.make_field(g, np.sin(2 * np.pi * 3 * g.coordinate(1)))
        assert abs(tm.integrate(f)) < 1e-14

    def test_integrate_product_of_harmonics(self):
        # integral of cos^2(2 pi x) = 1/2, exact for band-limited data
        g = tm.Grid(n=1, N=32)
        f = tm.make_field(g, np.cos(2 * np.pi * g.coordinate(0)) ** 2)
        assert tm.integrate(f) == pytest.approx(0.5, abs=1e-14)

    def test_mean_zero_project(self, random_real_field):
        p = tm.mean_zero_project(random_real_field)
        assert abs(tm.integrate(p)) < 1e-13
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
        assert tm.constant_field(grid, 2.5).values.dtype == np.float64
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
            sp = tm.partial_x(f, axis)
            assert np.max(np.abs(fd.values - sp.values)) < tol

    def test_rejects_unknown_order(self, random_real_field):
        with pytest.raises(ValueError):
            tm.finite_difference_oracle(random_real_field, 0, order=3)
