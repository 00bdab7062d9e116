import numpy as np
import pytest

import torusma as tm


class TestFlatMetric:
    def test_flat_basics(self, grid):
        g = tm.flat_metric(grid)
        assert np.max(np.abs(g.det - 1.0)) == 0.0
        assert tm.volume(g) == pytest.approx(1.0)
        assert np.max(np.abs(tm.christoffel(g))) == 0.0
        assert np.max(np.abs(tm.ricci_form(g).mats)) < 1e-12

    def test_flat_positivity(self, grid):
        assert tm.positivity_check(tm.flat_metric(grid)) == pytest.approx(1.0)


class TestMetricFromPotential:
    def test_zero_potential_is_identity(self, grid):
        g0 = tm.flat_metric(grid)
        gt = tm.metric_from_potential(g0, tm.make_field(grid, np.zeros(grid.shape)))
        assert np.max(np.abs(gt.mats - g0.mats)) == 0.0

    @pytest.mark.parametrize("a", [0.01, 0.05])
    def test_n1_cosine_closed_form(self, a):
        # phi = a cos(2 pi x1): entry becomes 1 - a pi^2 cos(2 pi x1)
        grid = tm.Grid(n=1, N=32)
        x = grid.coordinate(0)
        phi = tm.make_field(grid, a * np.cos(2 * np.pi * x))
        gt = tm.metric_from_potential(tm.flat_metric(grid), phi)
        expected = 1.0 - a * np.pi ** 2 * np.cos(2 * np.pi * x)
        assert np.max(np.abs(gt.mats[..., 0, 0] - expected)) < 1e-12

    def test_hermitian_deviation_small(self, grid, rng):
        phi = tm.random_band_limited(grid, rng, kmax=3, real=True)
        H = tm.hermitian_hessian(phi).mats
        dev = np.max(np.abs(H - np.conj(np.swapaxes(H, -1, -2))))
        assert dev <= 1e-13

    def test_output_exactly_hermitian(self, grid, small_potential):
        gt = tm.metric_from_potential(tm.flat_metric(grid), small_potential).mats
        assert np.array_equal(gt, np.conj(np.swapaxes(gt, -1, -2)))


class TestPositivity:
    def test_borderline_positive(self):
        grid = tm.Grid(n=1, N=64)
        phi = tm.make_field(grid, 0.05 * np.cos(2 * np.pi * grid.coordinate(0)))
        min_eig = tm.positivity_check(tm.metric_from_potential(tm.flat_metric(grid), phi))
        assert min_eig > 0
        assert min_eig == pytest.approx(1 - 0.05 * np.pi ** 2, abs=1e-3)

    def test_non_positive_detected(self):
        grid = tm.Grid(n=1, N=64)
        phi = tm.make_field(grid, 0.2 * np.cos(2 * np.pi * grid.coordinate(0)))
        assert tm.positivity_check(tm.metric_from_potential(tm.flat_metric(grid), phi)) < 0

    def test_eigenvalues_match_numpy(self, grid, small_potential):
        gt = tm.metric_from_potential(tm.flat_metric(grid), small_potential)
        lo, hi = tm.eigenvalue_fields(gt)
        w = np.linalg.eigvalsh(gt.mats)
        assert np.max(np.abs(lo - w[..., 0])) < 1e-12
        assert np.max(np.abs(hi - w[..., -1])) < 1e-12


class TestDetInverse:
    def test_diagonal_case(self):
        grid = tm.Grid(n=2, N=16)
        diag = np.stack([np.full(grid.shape, 2.0), np.full(grid.shape, 3.0)])
        g = tm.HermitianMetricField(grid, diag, np.zeros(grid.shape, dtype=complex))
        assert np.max(np.abs(g.det - 6.0)) < 1e-14
        inv = tm.inverse_field(g)
        assert np.max(np.abs(inv.mats[..., 0, 0] - 0.5)) < 1e-14
        assert np.max(np.abs(inv.mats[..., 1, 1] - 1.0 / 3.0)) < 1e-14

    def test_inverse_property(self, grid, small_potential):
        g = tm.metric_from_potential(tm.flat_metric(grid), small_potential)
        prod = np.einsum("...jk,...kl->...jl", g.mats, tm.inverse_field(g).mats)
        eye = np.eye(grid.n)
        assert np.max(np.abs(prod - eye)) <= 1e-12

    def test_singular_metric_reported_with_location(self):
        grid = tm.Grid(n=1, N=16)
        diag = np.ones((1,) + grid.shape)
        diag[0, 3, 5] = 0.0
        g = tm.HermitianMetricField(grid, diag)
        with pytest.raises(tm.SingularMetricError) as exc:
            tm.inverse_field(g)
        assert exc.value.point == (3, 5)


class TestChristoffel:
    def test_conformal_n1_closed_form(self):
        # g = lambda(x) I with lambda > 0: Gamma_11^1 = d_z log lambda
        grid = tm.Grid(n=1, N=32)
        lam = 1.0 + 0.3 * np.cos(2 * np.pi * grid.coordinate(0))
        g = tm.HermitianMetricField(grid, lam[None])
        gamma = tm.christoffel(g)[..., 0, 0, 0]
        expected = tm.partial_z(tm.make_field(grid, np.log(lam)), 0).values
        assert np.max(np.abs(gamma - expected)) < 1e-9

    def test_trace_identity(self, grid):
        phi = tm.verification._admissible_potential(grid, seed=5, perturbation=1e-3)
        g = tm.metric_from_potential(tm.flat_metric(grid), phi)
        trace = tm.christoffel_trace(tm.christoffel(g))
        oracle = tm.log_volume_gradient(g)
        assert np.max(np.abs(trace - oracle)) <= 1e-11


class TestRicci:
    @staticmethod
    def _fd_ricci_error(N: int) -> float:
        grid = tm.Grid(n=1, N=N)
        phi = tm.make_field(grid, 0.05 * np.cos(2 * np.pi * grid.coordinate(0)))
        g = tm.metric_from_potential(tm.flat_metric(grid), phi)
        R = tm.ricci_form(g).mats[..., 0, 0]
        fd = tm.log_det_field(g)
        # -(1/4)(d_xx + d_yy) log det via repeated 8th-order stencils
        oracle = -0.25 * (
            tm.finite_difference_oracle(tm.finite_difference_oracle(fd, 0, 8), 0, 8).values
            + tm.finite_difference_oracle(tm.finite_difference_oracle(fd, 1, 8), 1, 8).values
        )
        return float(np.max(np.abs(R - oracle)))

    def test_ricci_fd_oracle_n1(self):
        # agreement is limited by the stencil truncation, which must shrink
        # at 8th order when the grid is refined
        err_64 = self._fd_ricci_error(64)
        err_128 = self._fd_ricci_error(128)
        assert err_64 <= 1e-4
        assert err_64 / err_128 > 0.5 * 2 ** 8

    def test_ricci_difference_identity(self, grid):
        g0 = tm.metric_from_potential(
            tm.flat_metric(grid),
            tm.verification._admissible_potential(grid, seed=11, perturbation=1e-3),
        )
        phi = tm.verification._admissible_potential(grid, seed=12, perturbation=1e-3)
        gt = tm.metric_from_potential(g0, phi)
        ratio = tm.make_field(grid, tm.log_det_field(gt).values - tm.log_det_field(g0).values)
        resid = tm.ricci_form(gt).mats - tm.ricci_form(g0).mats + tm.hermitian_hessian(ratio).mats
        assert np.max(np.abs(resid)) <= 1e-11


class TestChernAndVolume:
    def test_chern_vanishes_on_torus(self):
        grid = tm.Grid(n=1, N=32)
        phi = tm.verification._admissible_potential(grid, seed=3)
        g = tm.metric_from_potential(tm.flat_metric(grid), phi)
        assert abs(tm.first_chern_integral(g)) <= 1e-10

    def test_chern_rejects_n2(self):
        with pytest.raises(ValueError):
            tm.first_chern_integral(tm.flat_metric(tm.Grid(n=2, N=16)))

    @pytest.mark.parametrize("seed", range(5))
    def test_volume_invariance(self, grid, seed):
        phi = tm.verification._admissible_potential(grid, seed=seed)
        gt = tm.metric_from_potential(tm.flat_metric(grid), phi)
        assert abs(tm.volume(gt) - 1.0) <= 1e-10


class TestLaplaceBeltrami:
    def test_flat_is_quarter_laplacian(self, grid, random_real_field):
        g = tm.flat_metric(grid)
        lhs = tm.laplace_beltrami(g, random_real_field)
        quarter = 0.25 * sum(
            tm.second_partial(random_real_field, a, a) for a in range(grid.num_axes)
        )
        assert np.max(np.abs(lhs.values - quarter.values)) < 1e-10

    def test_annihilates_constants(self, grid, small_potential):
        g = tm.metric_from_potential(tm.flat_metric(grid), small_potential)
        out = tm.laplace_beltrami(g, tm.make_field(grid, np.full(grid.shape, 4.2)))
        assert out.sup_norm() < 1e-12
