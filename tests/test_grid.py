import tracemalloc

import numpy as np
import pytest

import torusma as tm
from conftest import (HELD_SPECTRAL_DATA, _axis_second_derivative, _on_axis, axis_derivative,
                      complex_precondition, count_calls, raises_exactly, wavenumbers)


class TestGridValidation:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            tm.Grid(n=3, N=16)

    def test_rejects_odd_or_tiny_resolution(self):
        with pytest.raises(ValueError):
            tm.Grid(n=1, N=15)
        with pytest.raises(ValueError):
            tm.Grid(n=1, N=4)

    @pytest.mark.parametrize("n,N", [(1, 16.0), (1.0, 16), (True, 16), (1, "16"), (2, np.float64(16))],
                             ids=["N-float", "n-float", "n-bool", "N-str", "N-float64"])
    def test_rejects_bool_or_non_integer(self, n, N):
        with pytest.raises(ValueError, match="must be integers"):
            tm.Grid(n=n, N=N)

    def test_accepts_numpy_integers(self):
        grid = tm.Grid(n=np.int64(1), N=np.int32(16))
        assert grid == tm.Grid(n=1, N=16)
        assert tm.flat_metric(grid).det.shape == (16, 16)

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
        quarter = 0.25 * (_axis_second_derivative(f.values, 2 * j, g.N)
                          + _axis_second_derivative(f.values, 2 * j + 1, g.N))
        assert np.max(np.abs(lhs - quarter)) < 1e-11

    def test_mixed_hessian_matches_composed_first_derivatives(self, grid, rng):
        # d_j dbar_k of f = u + iv is H(u)_jk + i H(v)_jk, H the Hessian of a real field
        f = tm.random_band_limited(grid, rng, kmax=2, real=False)
        Hu = tm.hermitian_hessian(tm.make_field(grid, f.values.real)).mats
        Hv = tm.hermitian_hessian(tm.make_field(grid, f.values.imag)).mats
        for j in range(grid.n):
            for k in range(grid.n):
                dzbar = tm.delbar(tm.scalar_form(f)).component((), (k,))
                composed = tm.partial_z(tm.make_field(grid, dzbar), j)
                direct = Hu[..., j, k] + 1j * Hv[..., j, k]
                assert np.max(np.abs(composed.values - direct)) < 1e-11

    def test_conjugation_symmetry(self, random_real_field):
        # for real f, conj(d_z f) = d_zbar f
        dz = tm.partial_z(random_real_field, 0)
        dzb = tm.delbar(tm.scalar_form(random_real_field)).component((), (0,))
        assert np.max(np.abs(np.conj(dz.values) - dzb)) < 1e-12

    def test_nyquist_mode_first_derivative_vanishes(self):
        g = tm.Grid(n=1, N=16)
        f = tm.make_field(g, np.cos(np.pi * g.N * g.coordinate(0)))
        assert np.max(np.abs(g.derivative(f.values, 0))) < 1e-12

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 32)], ids=["n1-N64", "n2-N32"])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_slab_derivative_is_bitwise_the_field_derivative(self, n, N, real, rng):
        # one index at a time along any axis but ``axis`` and the last, which
        # includes forms._add_dolbeault's slab axes (2 for axes 0, 1 and 1 for
        # axes 2, 3 at n=2); signed zeros and every last bit must agree
        grid = tm.Grid(n=n, N=N)
        v = _white_noise(grid, rng, real)
        for axis in range(grid.num_axes):
            full = grid.derivative(v, axis)
            for slab_axis in set(range(grid.num_axes - 1)) - {axis}:
                for k in range(N):
                    blk = (slice(None),) * slab_axis + (slice(k, k + 1),)
                    got = grid.derivative(v[blk], axis)
                    assert got.tobytes() == full[blk].tobytes(), (axis, slab_axis, k)



def _white_noise(grid, rng, real):
    """Samples with content on every mode, the Nyquist planes included."""
    u = rng.standard_normal(grid.shape)
    return u if real else u + 1j * rng.standard_normal(grid.shape)


class TestDifferentiationMatrices:
    """The per-axis kernel: a product with the Fourier differentiation matrix
    at n = 2, a 1-D FFT pair along the axis at n = 1."""

    @pytest.fixture(params=[(1, 32), (2, 16), (1, 64)], ids=["n1", "n2", "n1-N64"])
    def grid(self, request):
        n, N = request.param
        return tm.Grid(n=n, N=N)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_first_derivative_matches_transform(self, grid, rng, real):
        u = _white_noise(grid, rng, real)
        for axis in range(grid.num_axes):
            got = grid.derivative(u, axis)
            ref = axis_derivative(u, axis, grid.N)
            assert got.dtype == u.dtype
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), axis

    def test_symmetry(self, grid):
        D = grid.axis_matrices[0]
        assert np.array_equal(D, -D.T)

    def test_nyquist_policy(self, grid):
        N = grid.N
        nyquist = (-1.0) ** np.arange(N)  # cos(pi N x) on the grid
        assert np.max(np.abs(grid.axis_matrices[0] @ nyquist)) <= 1e-14 * np.pi * N
        for axis in range(grid.num_axes):
            u = np.cos(np.pi * N * grid.coordinate(axis))
            assert np.max(np.abs(grid.derivative(u, axis))) <= 1e-14 * np.pi * N, axis

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_constant_along_axis_gives_exact_zeros(self, grid, rng, real):
        for axis in range(grid.num_axes):
            plane = np.take(_white_noise(grid, rng, real), [0], axis=axis)
            u = np.broadcast_to(plane, grid.shape)
            assert not np.any(grid.derivative(u, axis)), axis

    def test_one_build_per_grid_and_order(self, rng):
        grids = [tm.Grid(n=2, N=16), tm.Grid(n=2, N=16), tm.Grid(n=1, N=64),
                 tm.Grid(n=2, N=34), tm.Grid(n=1, N=16)]
        for grid in grids:
            held = []
            for real in (True, False):
                f = tm.make_field(grid, _white_noise(grid, rng, real))
                for axis in range(grid.num_axes):
                    grid.derivative(f.values, axis)
                tm.partial_z(f, grid.n - 1)
                held.append(vars(grid).get("axis_matrices"))
            # each n = 2 grid, N = 34 included, builds D and D2 once and keeps
            # them; no n = 1 grid, N = 16 included, builds them
            assert held[0] is held[1]
            assert (held[0] is not None) == (grid.n == 2)
        # equal grids each build their own
        assert vars(grids[0])["axis_matrices"] is not vars(grids[1])["axis_matrices"]


_MATRIX_CASES = [(n, N) for n in (1, 2) for N in (8, 16, 32)]
_MATRIX_IDS = [f"n{n}-N{N}" for n, N in _MATRIX_CASES]


def _hessian_reference(u, N, n):
    """Grid.hessian's parts from per-axis complex 1-D transforms, not through torusma."""
    def d(x, a):
        return axis_derivative(x, a, N)

    parts = [0.25 * (_axis_second_derivative(u, 2 * j, N)
                     + _axis_second_derivative(u, 2 * j + 1, N)).real for j in range(n)]
    if n == 2:
        dx1, dy1 = d(u, 0), d(u, 1)
        parts += [0.25 * (d(dx1, 2) + d(dy1, 3)).real, 0.25 * (d(dx1, 3) - d(dy1, 2)).real]
    return parts


class TestMatrixTransforms:
    """The two algorithms of Grid.hessian and Grid.inverse_flat: at n = 2 the
    per-axis products with the differentiation matrices D and D2 and with the
    Hartley matrix, at n = 1 rfftn/irfftn.  Grid.rfftn/irfftn are numpy's
    transforms at every size."""

    # n=2 N = 34 takes the matrix products above 32 too, against the same references
    @pytest.mark.parametrize("n,N", _MATRIX_CASES + [(2, 34)], ids=_MATRIX_IDS + ["n2-N34"])
    def test_matches_numpy(self, n, N, rng):
        grid = tm.Grid(n=n, N=N)
        u = _white_noise(grid, rng, real=True)
        # a first sample far from the mean, which the Hessian subtracts
        u.flat[0] = 4.0
        parts = grid.hessian(u)
        ref = _hessian_reference(u, N, n)
        assert len(parts) == len(ref) == (1 if n == 1 else 4)
        for got, want in zip(parts, ref):
            assert got.dtype == np.float64 and got.shape == grid.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        r = u - np.mean(u)
        want = complex_precondition(r, grid)
        assert np.max(np.abs(grid.inverse_flat(r) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n,N", _MATRIX_CASES, ids=_MATRIX_IDS)
    def test_constant_gives_exact_zeros_off_the_mean_mode(self, n, N):
        grid = tm.Grid(n=n, N=N)
        spec = grid.rfftn(np.full(grid.shape, 3.7))
        mean = spec[(0,) * grid.num_axes]
        assert mean == pytest.approx(3.7 * grid.num_points, rel=1e-15)
        spec[(0,) * grid.num_axes] = 0.0
        assert not np.any(spec)
        # the Hessian subtracts the first sample, so it has no mean mode to round
        assert not any(np.any(part) for part in grid.hessian(np.full(grid.shape, 3.7)))

    @pytest.mark.parametrize("n", [1, 2], ids=["n1", "n2"])
    def test_inverse_flat_of_a_constant(self, n):
        # exact zeros from the n = 1 transform pair; the n = 2 Hartley products
        # leave rounding of relative size 1e-16 (4.6e-16 for 3.7, 9.2e-12 for -1e5)
        grid = tm.Grid(n=n, N=16)
        for c in (3.7, -1e5):
            worst = float(np.max(np.abs(grid.inverse_flat(np.full(grid.shape, c)))))
            if n == 1:
                assert worst == 0.0
            else:
                assert worst <= 1e-15 * abs(c), worst

    @pytest.mark.parametrize("n,N", _MATRIX_CASES, ids=_MATRIX_IDS)
    def test_ignores_imaginary_parts_of_wavenumbers_zero_and_nyquist(self, n, N, rng):
        # numpy's c2r step drops the imaginary parts of the last axis's columns
        # k = 0 and N/2 once the other axes are transformed back; i times the
        # transform of a real array over those axes is such an imaginary part
        grid = tm.Grid(n=n, N=N)
        spec = grid.rfftn(_white_noise(grid, rng, real=True))
        base = grid.irfftn(spec)
        # on the modes (0, ..., 0, k) they stay imaginary and are dropped exactly
        shifted = spec.copy()
        for k in (0, -1):
            shifted[(0,) * (grid.num_axes - 1) + (k,)] += 2.5j
        assert np.array_equal(grid.irfftn(shifted), base)
        shifted = spec.copy()
        for k in (0, -1):
            shifted[..., k] += 1j * np.fft.fftn(rng.standard_normal(grid.shape[:-1]))
        assert np.max(np.abs(grid.irfftn(shifted) - base)) <= 1e-14 * np.max(np.abs(base))
        ref = np.fft.irfftn(shifted, s=grid.shape, axes=tuple(range(grid.num_axes)))
        assert np.max(np.abs(ref - base)) <= 1e-14 * np.max(np.abs(base))

    def test_one_build_per_grid(self, monkeypatch, rng):
        rfftn_calls = count_calls(monkeypatch, tm.Grid, "rfftn")
        grids = [tm.Grid(n=2, N=16), tm.Grid(n=2, N=16), tm.Grid(n=1, N=64),
                 tm.Grid(n=2, N=34), tm.Grid(n=1, N=16)]
        for grid in grids:
            held = []
            for _ in range(2):
                u = _white_noise(grid, rng, real=True)
                grid.hessian(u)
                grid.inverse_flat(u - np.mean(u))
                held.append(dict(vars(grid)))
            # the n = 1 grids hold symbols and no matrix, the n = 2 grids, N = 34
            # included, their matrices and no Hessian half-symbol; the second
            # pass finds the arrays the first one built
            assert held[0].keys() - {"n", "N"} == HELD_SPECTRAL_DATA[grid.n]
            assert all(held[1][key] is value for key, value in held[0].items())
        # only the n = 1 grids take transforms
        assert {id(g) for (g, _) in rfftn_calls} == {id(g) for g in grids if g.n == 1}

    @pytest.mark.parametrize("N", [8, 10, 64, 512])
    def test_flat_symbols_match_closed_forms(self, N):
        # A_00 = (1/4)(s_x + s_y) with s = -(2 pi k)^2 on the half spectrum, and
        # the inverse flat symbol -1 / A_00 away from k = 0 and +0.0 there
        grid = tm.Grid(n=1, N=N)
        s = -((2.0 * np.pi * wavenumbers(N)) ** 2)
        a00 = 0.25 * (s[:, None] + s[None, :])
        inverse = np.zeros((N, N))
        inverse[a00 != 0] = -1.0 / a00[a00 != 0]
        half = grid.hessian_half_symbol
        assert half.shape == (N, N // 2 + 1)
        assert half.tobytes() == a00[:, : N // 2 + 1].tobytes()
        assert grid.inverse_flat_symbol.tobytes() == inverse.tobytes()
        assert np.signbit(half[0, 0]) and not np.signbit(grid.inverse_flat_symbol[0, 0])

    @pytest.mark.parametrize("n,N", _MATRIX_CASES, ids=_MATRIX_IDS)
    def test_nyquist_policy(self, n, N):
        # D2 keeps the Nyquist mode at -(pi N)^2, D annihilates it, so the
        # Hessian's diagonal keeps it and its cross terms do not; a Hessian that
        # killed it would leave that residual unreachable and break PCG
        grid = tm.Grid(n=n, N=N)
        nyquist = (-1.0) ** np.arange(N)  # cos(pi N x) on the grid
        D2 = grid.axis_matrices[1]
        assert np.array_equal(D2, D2.T)
        scale = (np.pi * N) ** 2
        assert np.max(np.abs(D2 @ nyquist + scale * nyquist)) <= 1e-13 * scale
        for axis in range(grid.num_axes):
            u = np.cos(np.pi * N * grid.coordinate(axis))
            parts = grid.hessian(u)
            j = axis // 2
            assert np.max(np.abs(parts[j] + 0.25 * scale * u)) <= 1e-13 * scale, axis
            others = [p for i, p in enumerate(parts) if i != j]
            assert all(np.max(np.abs(p)) <= 1e-13 * scale for p in others), axis

    @pytest.mark.parametrize("N", [8, 16, 32])
    def test_hartley_matrix_squares_to_the_identity(self, N):
        # H = C / sqrt(N) with C[j, k] = cas(2 pi jk / N): C C = N I
        H = tm.Grid(n=1, N=N).hartley_matrix
        assert np.array_equal(H, H.T)
        assert np.max(np.abs(H @ H - np.eye(N))) <= 1e-14 * N


def _one_step_solve(n, N, rng):
    """A small random forcing solved in one t-step: the cheapest solve that runs every phase."""
    grid = tm.Grid(n=n, N=N)
    F = tm.random_band_limited(grid, rng, kmax=2, real=True, amplitude=0.1)
    return tm.continuity_solve(F, tm.flat_metric(grid),
                               tm.SolverConfig(n=n, N=N, t_step_initial=1.0))


class TestTransformPath:
    """Which algorithm a solve's operators take: the dimension picks it, whatever N."""

    def test_n2_solve_makes_one_transform(self, monkeypatch, rng):
        # the band-limit check of F is the one full-grid transform of the solve
        calls = {name: count_calls(monkeypatch, tm.Grid, name) for name in ("rfftn", "irfftn")}
        result = _one_step_solve(2, 16, rng)
        assert result.converged, result.message
        assert len(calls["rfftn"]) == 1 and calls["irfftn"] == []

    def test_n1_solve_uses_numpy_transforms(self, monkeypatch, rng):
        calls = {name: count_calls(monkeypatch, np.fft, name) for name in ("rfftn", "irfftn")}
        result = _one_step_solve(1, 64, rng)
        assert result.converged, result.message
        assert calls["rfftn"] and calls["irfftn"]


class TestProlong:
    """Grid.prolong: the coarse half spectrum zero-padded, the coarse Nyquist modes dropped.
    The fine samples are the irfftn of the padded spectrum."""

    @staticmethod
    def _prolong(coarse, u, fine):
        return fine.irfftn(coarse.prolong(coarse.rfftn(u), fine))

    @staticmethod
    def _fine_and_coarse(n, N, rng):
        # content at every wavenumber below the coarse Nyquist mode, sampled on both grids
        coarse, fine = tm.Grid(n=n, N=N), tm.Grid(n=n, N=2 * N)
        f = tm.random_band_limited(fine, rng, kmax=N // 2 - 1)
        return coarse, fine, f.values, f.values[(slice(None, None, 2),) * fine.num_axes].copy()

    @pytest.mark.parametrize("n,N", [(1, 32), (2, 8)], ids=["n1", "n2"])
    def test_reproduces_band_limited_fine_samples(self, n, N, rng):
        coarse, fine, on_fine, on_coarse = self._fine_and_coarse(n, N, rng)
        assert np.max(np.abs(self._prolong(coarse, on_coarse, fine) - on_fine)) <= 1e-14

    @pytest.mark.parametrize("n,N", [(1, 32), (2, 8)], ids=["n1", "n2"])
    def test_drops_the_coarse_nyquist_modes(self, n, N, rng):
        coarse, fine, on_fine, on_coarse = self._fine_and_coarse(n, N, rng)
        for a in range(coarse.num_axes):
            on_coarse = on_coarse + np.cos(np.pi * N * coarse.coordinate(a))
        assert np.max(np.abs(self._prolong(coarse, on_coarse, fine) - on_fine)) <= 1e-14

    @pytest.mark.parametrize("fine", [tm.Grid(n=2, N=16), tm.Grid(n=1, N=8)],
                             ids=["another-dimension", "coarser"])
    def test_rejects_a_grid_it_cannot_reach(self, fine):
        coarse = tm.Grid(n=1, N=16)
        half = coarse.rfftn(np.zeros(coarse.shape))
        assert coarse.prolong(half, tm.Grid(n=1, N=32)).shape == (32, 17)
        raises_exactly(ValueError, lambda: coarse.prolong(half, fine))

    def test_rejects_samples(self):
        # samples have N points on the last axis, a half spectrum N/2 + 1
        coarse = tm.Grid(n=1, N=16)
        raises_exactly(ValueError, lambda: coarse.prolong(np.zeros(coarse.shape),
                                                          tm.Grid(n=1, N=32)))


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
            k = np.broadcast_to(np.abs(_on_axis(wavenumbers(grid.N), a, grid.num_axes)),
                                grid.shape)
            assert np.max(np.abs(spec[k > 2])) < 1e-10 * np.max(np.abs(spec))

    def test_random_band_limited_seeded(self, grid):
        a = tm.random_band_limited(grid, np.random.default_rng(7), kmax=2, real=True)
        b = tm.random_band_limited(grid, np.random.default_rng(7), kmax=2, real=True)
        assert np.array_equal(a.values, b.values)


def _draw_block(grid, rng, kmax):
    shape = [2 * kmax + 1] * grid.num_axes
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _zero_padded_reference(grid, rng, kmax, real):
    """The band-limited field as the inverse transform of its zero-padded spectrum."""
    modes = np.r_[0 : kmax + 1, -kmax:0]
    spec = np.zeros(grid.shape, dtype=complex)
    spec[np.ix_(*([modes] * grid.num_axes))] = _draw_block(grid, rng, kmax)
    vals = np.fft.ifftn(spec) * grid.num_points
    if real:
        vals = vals.real
    return vals / np.max(np.abs(vals))


_GENERATOR_CASES = [(n, N, real, kmax) for n, N in ((1, 32), (2, 16), (2, 32))
                    for real in (True, False) for kmax in (2, 3)]


class TestRandomBandLimited:
    """random_band_limited sums its coefficient block axis by axis."""

    @pytest.mark.parametrize("n,N,real,kmax", _GENERATOR_CASES, ids=[
        f"n{n}-N{N}-{'real' if real else 'complex'}-k{kmax}"
        for n, N, real, kmax in _GENERATOR_CASES])
    def test_matches_zero_padded_transform(self, n, N, real, kmax):
        grid = tm.Grid(n=n, N=N)
        f = tm.random_band_limited(grid, np.random.default_rng(5), kmax=kmax, real=real)
        ref = _zero_padded_reference(grid, np.random.default_rng(5), kmax, real)
        assert f.values.dtype == (np.float64 if real else np.complex128)
        assert f.values.flags.c_contiguous
        assert np.max(np.abs(f.values - ref)) <= 1e-14

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_consumes_the_same_draws(self, grid, real):
        rng = np.random.default_rng(9)
        tm.random_band_limited(grid, rng, kmax=3, real=real)
        ref = np.random.default_rng(9)
        _draw_block(grid, ref, 3)
        assert rng.standard_normal() == ref.standard_normal()

    def test_makes_no_transform(self, grid, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.fft called")

        for name in ("fft", "ifft", "fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, refuse)
        for real in (True, False):
            tm.random_band_limited(grid, np.random.default_rng(1), kmax=3, real=real)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_peak_memory(self, real):
        # the zero-padded spectrum and its ifftn peaked at 6.0x (real) and 3.0x (complex)
        grid = tm.Grid(n=2, N=32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            f = tm.random_band_limited(grid, np.random.default_rng(1), kmax=3, real=real)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * f.values.nbytes, peak / f.values.nbytes


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


_G8 = tm.Grid(n=1, N=8)


@pytest.mark.parametrize("call,error", [
    (lambda: _G8.coordinate(2), ValueError),
    (lambda: tm.partial_z(tm.make_field(_G8, np.zeros(_G8.shape)), 1), ValueError),
    (lambda: tm.make_field(_G8, np.zeros((8, 7))), ValueError),
    (lambda: tm.mean_zero_project(tm.make_field(_G8, np.zeros(_G8.shape, dtype=complex))),
     ValueError),
    (lambda: tm.random_band_limited(_G8, np.random.default_rng(0), kmax=4), ValueError),
], ids=["axis-out-of-range", "holomorphic-index-out-of-range", "field-shape",
        "mean-zero-of-complex", "kmax-at-nyquist"])
def test_rejects_malformed_input(call, error):
    raises_exactly(error, call)
