import dataclasses

import numpy as np
import pytest

import torusma as tm
from torusma import cli, solver
from torusma.solver import _LinearizedOperator, _pcg
from torusma.verification import THRESHOLDS
from conftest import _axis_second_derivative, count_apply_B


class TestDtypes:
    """Every real field the solver makes holds float64 samples."""

    def test_det_field(self, grid, small_potential):
        gt = tm.metric_from_potential(tm.flat_metric(grid), small_potential)
        assert gt.det.dtype == np.float64
        assert tm.log_det_field(gt).values.dtype == np.float64

    def test_residual_and_linear_solve(self, grid, small_potential, rng):
        it = tm.metric_iterate(tm.flat_metric(grid), small_potential)
        F = tm.random_band_limited(grid, rng, kmax=2, real=True, amplitude=0.1)
        r = tm.ma_residual(it, F, 1.0)
        assert r.values.dtype == np.float64
        assert tm.solve_linearized(r, it).values.dtype == np.float64

    def test_continuity_solve(self, grid, rng):
        F = tm.random_band_limited(grid, rng, kmax=2, real=True, amplitude=0.1)
        result = tm.continuity_solve(F, tm.flat_metric(grid), tm.SolverConfig(n=grid.n, N=grid.N))
        assert result.converged
        assert result.phi.values.dtype == np.float64

    def test_determinant_formed_once_per_metric(self, grid, small_potential, rng):
        g = tm.metric_from_potential(tm.flat_metric(grid), 0.5 * small_potential)
        it = tm.metric_iterate(g, small_potential)
        assert it.gt.det.dtype == np.float64
        # the metric keeps its determinant, and the operator reads the kept array
        assert it.gt.det is it.gt.det
        assert _LinearizedOperator(it).det_g is g.det


class TestConfig:
    def test_defaults_valid(self):
        cfg = tm.SolverConfig()
        assert (cfg.n, cfg.N) == (1, 64)
        assert (cfg.newton_tol, cfg.t_step_initial, cfg.damping_eig_floor) == (1e-11, 0.1, 1e-8)

    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(ValueError):
            tm.SolverConfig(newton_tol=0.0)

    def test_rejects_inverted_step_bounds(self):
        with pytest.raises(ValueError):
            tm.SolverConfig(t_step_initial=1e-5)

    def test_only_the_varied_settings_are_fields(self):
        names = [f.name for f in dataclasses.fields(tm.SolverConfig)]
        assert names == ["n", "N", "newton_tol", "t_step_initial", "damping_eig_floor"]

    @pytest.mark.parametrize("name", ["newton_tol", "t_step_initial", "damping_eig_floor"])
    @pytest.mark.parametrize("value", [True, False, "1e-3", None, float("nan"),
                                       float("inf"), 0, -1e-3])
    def test_rejects_bad_setting(self, name, value):
        with pytest.raises(ValueError, match=name):
            tm.SolverConfig(**{name: value})

    @pytest.mark.parametrize("name,value", [("newton_tol", 1), ("t_step_initial", 1),
                                            ("damping_eig_floor", np.float64(1e-6))])
    def test_accepts_any_finite_positive_number(self, name, value):
        assert getattr(tm.SolverConfig(**{name: value}), name) == value

    def test_solvers_reject_a_config_for_another_grid(self, rng):
        grid = tm.Grid(n=2, N=16)
        g = tm.flat_metric(grid)
        F = tm.random_band_limited(grid, rng, kmax=2, real=True, amplitude=0.1)
        with pytest.raises(tm.GridMismatchError):
            tm.continuity_solve(F, g, tm.SolverConfig(n=1, N=8))


class TestMetricIterate:
    def test_metric_matches_metric_from_potential(self, grid, small_potential):
        g = tm.flat_metric(grid)
        it = tm.metric_iterate(g, small_potential)
        assert np.array_equal(it.gt.mats, tm.metric_from_potential(g, small_potential).mats)
        assert it.min_eig == tm.positivity_check(it.gt)

    def test_consumers_never_rebuild_the_metric(self, grid, small_potential, rng,
                                                monkeypatch):
        calls = []

        def counting_hessian(phi):
            calls.append(phi)
            return tm.hermitian_hessian(phi)

        # metric_iterate reaches the Hessian through geometry.metric_from_potential
        monkeypatch.setattr(tm.geometry, "hermitian_hessian", counting_hessian)
        g = tm.flat_metric(grid)
        it = tm.metric_iterate(g, small_potential)
        assert len(calls) == 1
        rhs = tm.mean_zero_project(tm.random_band_limited(grid, rng, kmax=2, real=True))
        r = tm.ma_residual(it, tm.make_field(grid, np.zeros(grid.shape)), 1.0)
        tm.linearized_apply(r, it)
        tm.solve_linearized(rhs, it)
        assert len(calls) == 1

    # ma_residual's rejection is covered by TestResidual
    @pytest.mark.parametrize("consumer", ["linearized_apply", "solve_linearized"])
    def test_non_positive_iterate_rejected(self, consumer):
        grid = tm.Grid(n=1, N=32)
        phi = tm.make_field(grid, 0.2 * np.cos(2 * np.pi * grid.coordinate(0)))
        it = tm.metric_iterate(tm.flat_metric(grid), phi)
        assert it.min_eig < 0
        zero = tm.make_field(grid, np.zeros(grid.shape))
        call = {
            "linearized_apply": lambda: tm.linearized_apply(zero, it),
            "solve_linearized": lambda: tm.solve_linearized(zero, it),
        }[consumer]
        with pytest.raises(tm.NonPositiveMetricError):
            call()


class TestResidual:
    def test_zero_at_trivial_data(self, grid):
        g = tm.flat_metric(grid)
        zero = tm.make_field(grid, np.zeros(grid.shape))
        r = tm.ma_residual(tm.metric_iterate(g, zero), zero, 1.0)
        assert r.sup_norm() < 1e-14

    def test_zero_at_manufactured_solution(self):
        grid = tm.Grid(n=2, N=16)
        g = tm.flat_metric(grid)
        phi_star = tm.manufactured_potential_n2(grid)
        F = tm.manufactured_forcing(g, phi_star)
        r = tm.ma_residual(tm.metric_iterate(g, phi_star), F, 1.0)
        assert r.sup_norm() <= 1e-12

    def test_non_positive_metric_rejected(self):
        grid = tm.Grid(n=1, N=32)
        g = tm.flat_metric(grid)
        phi = tm.make_field(grid, 0.2 * np.cos(2 * np.pi * grid.coordinate(0)))
        with pytest.raises(tm.NonPositiveMetricError):
            tm.ma_residual(tm.metric_iterate(g, phi), tm.make_field(grid, np.zeros((32, 32))), 1.0)

    def test_discrete_volume_exact_without_nyquist_content(self, grid, small_potential):
        # integral(det g~) = Vol_g holds to rounding when phi has no Nyquist content
        g = tm.flat_metric(grid)
        det_gt = tm.metric_iterate(g, small_potential).gt.det
        assert abs(float(np.mean(det_gt)) - 1.0) <= 1e-14

    def test_residual_compatible_despite_nyquist_content(self):
        # Nyquist content of phi breaks the discrete volume identity; C is
        # taken from the iterate's volume, so r still integrates to zero in dV_g
        grid = tm.Grid(n=2, N=8)
        g = tm.flat_metric(grid)
        phi = tm.mean_zero_project(tm.make_field(
            grid, 1e-3 * np.random.default_rng(5).standard_normal(grid.shape)))
        it = tm.metric_iterate(g, phi)
        assert abs(float(np.mean(it.gt.det)) - 1.0) > 1e-6
        r = tm.ma_residual(it, tm.make_field(grid, np.zeros(grid.shape)), 1.0)
        assert abs(float(np.mean(r.values.real))) <= 1e-15

    def test_residual_integral_vanishes(self, grid, small_potential, random_real_field):
        # integral of the residual against dV_g is identically zero in the
        # mean-zero gauge (discrete volume invariance)
        g = tm.flat_metric(grid)
        F = tm.mean_zero_project(random_real_field)
        r = tm.ma_residual(tm.metric_iterate(g, small_potential), F, 0.7)
        weighted = float(np.mean(r.values.real * g.det))
        assert abs(weighted) <= 1e-12


class TestLinearization:
    def test_flat_zero_potential_is_quarter_laplacian(self, grid, random_real_field):
        g = tm.flat_metric(grid)
        psi = random_real_field
        zero = tm.make_field(grid, np.zeros(grid.shape))
        out = tm.linearized_apply(psi, tm.metric_iterate(g, zero))
        quarter = 0.25 * sum(
            _axis_second_derivative(psi.values, a, grid.N) for a in range(grid.num_axes)
        )
        assert np.max(np.abs(out.values - quarter)) < 1e-10

    def test_annihilates_constants(self, grid, small_potential):
        g = tm.flat_metric(grid)
        it = tm.metric_iterate(g, small_potential)
        out = tm.linearized_apply(tm.make_field(grid, np.full(grid.shape, 2.0)), it)
        assert out.sup_norm() < 1e-11

    def test_image_has_zero_weighted_mean(self, grid, small_potential, random_real_field):
        g = tm.flat_metric(grid)
        out = tm.linearized_apply(random_real_field, tm.metric_iterate(g, small_potential))
        weighted = float(np.mean(out.values.real * g.det))
        assert abs(weighted) <= 1e-12

    @pytest.mark.parametrize("n,N", [(1, 32), (2, 16)], ids=["n1", "n2"])
    def test_matches_laplace_beltrami_oracle(self, n, N):
        # L[psi] = (det g~/det g) lap_{g~} psi on a curved iterate over a
        # non-flat background; lap_{g~} goes through the pointwise inverse,
        # the operator through the closed-form adjugate
        grid = tm.Grid(n=n, N=N)
        g = tm.metric_from_potential(
            tm.flat_metric(grid), tm.verification._admissible_potential(grid, seed=41))
        assert np.max(np.abs(g.det - 1.0)) > 0.1
        phi = tm.verification._admissible_potential(grid, seed=42, perturbation=0.2)
        psi = tm.random_band_limited(grid, np.random.default_rng(43), kmax=3)
        it = tm.metric_iterate(g, phi)
        oracle = it.gt.det / g.det * tm.laplace_beltrami(it.gt, psi).values
        lin = tm.linearized_apply(psi, it).values
        assert np.max(np.abs(lin - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @staticmethod
    def _linearization_case():
        grid = tm.Grid(n=2, N=16)
        g = tm.flat_metric(grid)
        phi = tm.verification._admissible_potential(grid, seed=31, perturbation=0.3)
        psi = tm.verification._admissible_potential(grid, seed=32, perturbation=0.3)
        return grid, g, phi, psi

    def test_central_difference_matches_to_roundoff(self):
        # the determinant is a quadratic polynomial in the potential for
        # complex dimension 2, so the central difference has no truncation
        # term at all and matches the linearization at roundoff level
        grid, g, phi, psi = self._linearization_case()
        F = tm.make_field(grid, np.zeros(grid.shape))
        h = 1e-3
        plus = tm.ma_residual(tm.metric_iterate(g, phi + h * psi), F, 1.0)
        minus = tm.ma_residual(tm.metric_iterate(g, phi - h * psi), F, 1.0)
        fd = (1.0 / (2 * h)) * (plus - minus)
        lin = tm.linearized_apply(psi, tm.metric_iterate(g, phi))
        assert np.max(np.abs(fd.values - lin.values)) <= 1e-9

    @classmethod
    def _taylor_remainder(cls, h: float) -> float:
        grid, g, phi, psi = cls._linearization_case()
        F = tm.make_field(grid, np.zeros(grid.shape))
        lin = tm.linearized_apply(psi, tm.metric_iterate(g, phi))
        rem = (
            tm.ma_residual(tm.metric_iterate(g, phi + h * psi), F, 1.0)
            - tm.ma_residual(tm.metric_iterate(g, phi), F, 1.0)
            - h * lin
        )
        return rem.sup_norm()

    def test_taylor_remainder_second_order(self):
        # sup|res(phi + h psi) - res(phi) - h L[psi]| must decay as O(h^2)
        e3 = self._taylor_remainder(1e-3)
        e4 = self._taylor_remainder(1e-4)
        order = np.log10(e3 / e4) / np.log10(10.0)
        assert order >= 1.9


class TestLinearSolve:
    def test_solve_then_apply_recovers_rhs(self, grid, small_potential, rng):
        g = tm.flat_metric(grid)
        rhs = tm.mean_zero_project(tm.random_band_limited(grid, rng, kmax=2, real=True))
        # project rhs onto the compatible subspace for this operator
        psi = tm.solve_linearized(rhs, tm.metric_iterate(g, small_potential))
        back = tm.linearized_apply(psi, tm.metric_iterate(g, small_potential))
        det_g = g.det
        target = rhs.values.real - np.mean(rhs.values.real * det_g) / np.mean(det_g)
        assert np.max(np.abs(back.values.real - target)) <= 1e-9

    @pytest.mark.parametrize("tol", [None, 1e-1, 1e-3, 1e-6])
    def test_tolerance_met_after_projection(self, grid, small_potential, rng, tol):
        # sup|L[psi] - rhs| <= tol * sup|rhs| for the compatible projection of
        # rhs; tol=None means KRYLOV_TOL
        g = tm.flat_metric(grid)
        it = tm.metric_iterate(g, small_potential)
        rhs = tm.mean_zero_project(tm.random_band_limited(grid, rng, kmax=2, real=True))
        psi = tm.solve_linearized(rhs, it, tol=tol)
        det_g = g.det
        target = rhs.values.real - np.mean(rhs.values.real * det_g) / np.mean(det_g)
        achieved = np.max(np.abs(tm.linearized_apply(psi, it).values.real - target))
        eta = solver.KRYLOV_TOL if tol is None else tol
        assert achieved <= eta * np.max(np.abs(target))

    def test_looser_tolerance_takes_fewer_iterations(self, rng, monkeypatch):
        grid = tm.Grid(n=2, N=16)
        it = tm.metric_iterate(tm.flat_metric(grid), tm.manufactured_potential_n2(grid))
        rhs = tm.mean_zero_project(tm.random_band_limited(grid, rng, kmax=2, real=True))
        calls = count_apply_B(monkeypatch)
        counts = []
        for tol in (None, 1e-6, 1e-3, 1e-1):
            calls.clear()
            tm.solve_linearized(rhs, it, tol=tol)
            counts.append(len(calls))
        assert counts == sorted(counts, reverse=True) and counts[-1] < counts[0]

    def test_krylov_cap_is_read_from_the_grid(self, grid, small_potential, rng, monkeypatch):
        caps = []
        pcg = solver._pcg

        def spy(op, rhs, tol, max_iter):
            caps.append(max_iter)
            return pcg(op, rhs, tol, max_iter)

        monkeypatch.setattr(solver, "_pcg", spy)
        rhs = tm.mean_zero_project(tm.random_band_limited(grid, rng, kmax=2, real=True))
        tm.solve_linearized(rhs, tm.metric_iterate(tm.flat_metric(grid), small_potential))
        assert caps == [10 * grid.N ** grid.n]

    @pytest.mark.parametrize("fault", ["zero-preconditioner", "indefinite-operator"])
    def test_breakdown_raises_krylov_error(self, grid, small_potential, rng, fault):
        op = _LinearizedOperator(tm.metric_iterate(tm.flat_metric(grid), small_potential))
        if fault == "zero-preconditioner":
            op.precondition = lambda r: np.zeros_like(r)
        else:
            apply_B = op.apply_B
            op.apply_B = lambda u: -apply_B(u)
        rhs = tm.mean_zero_project(tm.random_band_limited(grid, rng, kmax=2, real=True))
        with pytest.raises(tm.KrylovConvergenceError):
            _pcg(op, rhs.values.real, 1e-12, 100)

    def test_solution_is_mean_zero(self, grid, small_potential, rng):
        g = tm.flat_metric(grid)
        rhs = tm.mean_zero_project(tm.random_band_limited(grid, rng, kmax=2, real=True))
        psi = tm.solve_linearized(rhs, tm.metric_iterate(g, small_potential))
        assert abs(np.mean(psi.values)) < 1e-12


class TestContinuitySolve:
    def test_trivial_forcing_gives_zero(self, grid):
        g = tm.flat_metric(grid)
        cfg = tm.SolverConfig(n=grid.n, N=grid.N)
        result = tm.continuity_solve(tm.make_field(grid, np.zeros(grid.shape)), g, cfg)
        assert result.converged
        assert result.t_reached == 1.0
        assert result.phi.sup_norm() < 1e-12

    def test_trace_is_monotone_and_reaches_one(self, poisson_solve):
        _, _, result = poisson_solve
        ts = [s.t for s in result.trace]
        assert ts == sorted(ts)
        assert ts[-1] == 1.0
        assert all(s.residual_sup <= 1e-11 for s in result.trace)

    def test_solution_mean_zero(self, poisson_solve):
        _, _, result = poisson_solve
        assert abs(np.mean(result.phi.values)) < 1e-12

    # the manufactured forcing log det(g~) is not band-limited
    @pytest.mark.filterwarnings("ignore:F carries significant spectral content")
    def test_near_degenerate_manufactured_n1(self):
        # amplitude 0.05 drives the target metric's minimum eigenvalue down
        # to 1 - 0.1 pi^2 ~= 0.013; the solve must still converge to phi*
        grid = tm.Grid(n=1, N=64)
        g = tm.flat_metric(grid)
        phi_star = tm.manufactured_potential_n1(grid, amplitude=0.05)
        F = tm.manufactured_forcing(g, phi_star)
        result = tm.continuity_solve(F, g, tm.SolverConfig(n=1, N=64))
        err = np.max(np.abs(result.phi.values.real - phi_star.values.real))
        assert err <= 1e-8
        assert result.t_reached == 1.0
        eig_min_path = min(s.eig_min for s in result.trace)
        assert eig_min_path == pytest.approx(1 - 0.1 * np.pi ** 2, abs=1e-3)

    def test_forcing_terms_cut_krylov_work(self, manufactured_solve):
        # each correction is solved only as accurately as its Newton step
        # needs; solving every one to KRYLOV_TOL took 310 apply_B calls
        solved = manufactured_solve(2, 16)
        assert solved.result.converged
        assert solved.apply_B_calls <= 120
        newton_tol = tm.SolverConfig(n=2, N=16).newton_tol
        assert all(s.residual_sup <= newton_tol for s in solved.result.trace)

    def test_secant_predictor_cuts_newton_work(self, manufactured_solve):
        # each t-step starts from the secant through the last two accepted
        # potentials; cold restarts took 23 Newton iterations and 96 apply_B calls
        solved = manufactured_solve(2, 16)
        assert solved.result.converged
        assert solved.apply_B_calls <= 85
        assert sum(s.newton_iters for s in solved.result.trace) <= 18

    @pytest.mark.parametrize("solve", ["poisson_solve", "ricci_flat_solve"],
                             ids=["poisson-n1", "ricci-flat-n2"])
    def test_result_metric_is_that_of_the_result_potential(self, solve, request):
        # callers read result.metric instead of forming g + ddbar phi again
        g, *_, result = request.getfixturevalue(solve)
        again = tm.metric_from_potential(g, result.phi)
        assert result.metric.diag.tobytes() == again.diag.tobytes()
        if g.grid.n == 2:
            assert result.metric.off.tobytes() == again.off.tobytes()

    @pytest.mark.filterwarnings("ignore:F carries significant spectral content")
    def test_near_degenerate_manufactured_n2(self):
        # amplitude 0.048 takes the target min eigenvalue to 1 - 2 pi^2 0.048
        # ~= 0.0525; PCG corrections put mass on the Nyquist planes, where the
        # discrete volume identity fails, and with C from Vol_g the residual
        # stalled above newton_tol until the continuity step underflowed
        grid = tm.Grid(n=2, N=16)
        g = tm.flat_metric(grid)
        phi_star = tm.manufactured_potential_n2(grid, amplitude=0.048)
        F = tm.manufactured_forcing(g, phi_star)
        result = tm.continuity_solve(F, g, tm.SolverConfig(n=2, N=16))
        assert result.converged, result.message
        err = np.max(np.abs(result.phi.values.real - phi_star.values.real))
        assert err <= THRESHOLDS["manufactured.n2_error"]

    def test_rejects_complex_forcing(self, grid):
        g = tm.flat_metric(grid)
        F = tm.make_field(grid, 1j * np.ones(grid.shape))
        with pytest.raises(ValueError):
            tm.continuity_solve(F, g, tm.SolverConfig(n=grid.n, N=grid.N))

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_forcing(self, value):
        grid = tm.Grid(n=1, N=16)
        vals = 0.1 * np.sin(2 * np.pi * grid.coordinate(0))
        vals[3, 5] = value
        F = tm.make_field(grid, vals)
        with pytest.raises(ValueError, match="non-finite"):
            tm.continuity_solve(F, tm.flat_metric(grid), tm.SolverConfig(n=1, N=16))

    def test_rejects_unreachable_damping_floor(self, monkeypatch):
        # on the flat background no g + ddbar phi has a smallest eigenvalue
        # above 1; the floor is checked before any Newton work
        grid = tm.Grid(n=1, N=16)
        F = tm.make_field(grid, 0.1 * np.sin(2 * np.pi * grid.coordinate(0)))
        cfg = tm.SolverConfig(n=1, N=16, damping_eig_floor=2.0)
        calls = count_apply_B(monkeypatch)
        with pytest.raises(tm.NonPositiveMetricError,
                           match=r"damping_eig_floor 2 is above 1, .* smallest eigenvalue is 1\)"):
            tm.continuity_solve(F, tm.flat_metric(grid), cfg)
        assert calls == []

    @staticmethod
    def _floor_case():
        """(g, F) at n=1 N=32: g = flat + ddbar(0.02 cos(2 pi x1)), F = -log det g."""
        grid = tm.Grid(n=1, N=32)
        g = tm.metric_from_potential(
            tm.flat_metric(grid), tm.make_field(grid, 0.02 * np.cos(2 * np.pi * grid.coordinate(0))))
        return g, tm.make_field(grid, -np.log(g.diag[0]))

    # F = -log det g is not band-limited
    @pytest.mark.filterwarnings("ignore:F carries significant spectral content")
    def test_floor_above_background_min_eig_is_reachable(self):
        # n = 1, F = -log g: the path metric is C_t g^(1-t), whose smallest
        # eigenvalue rises from min(g) to mean(g) = mean(tr g)/n at t = 1, so a
        # floor between the two is met by one full step and one above is not
        g, F = self._floor_case()
        lo, bound = tm.positivity_check(g), float(np.mean(g.diag))
        assert bound - lo > 0.1
        floor = 0.5 * (lo + bound)
        cfg = tm.SolverConfig(n=1, N=32, t_step_initial=1.0, damping_eig_floor=floor)
        result = tm.continuity_solve(F, g, cfg)
        assert result.converged and tm.positivity_check(result.metric) >= floor
        with pytest.raises(tm.NonPositiveMetricError, match="damping_eig_floor"):
            tm.continuity_solve(F, g, dataclasses.replace(cfg, damping_eig_floor=bound + 1e-6))

    @pytest.mark.filterwarnings("ignore:F carries significant spectral content")
    def test_underflow_names_the_damping_floor(self):
        # the same problem with floor 0.9, between the background's smallest
        # eigenvalue 0.8026 and the bound 1: from the default t_step_initial every
        # shorter step keeps g~ near g, so each is rejected until the step underflows
        g, F = self._floor_case()
        result = tm.continuity_solve(F, g, tm.SolverConfig(n=1, N=32, damping_eig_floor=0.9))
        assert not result.converged and result.t_reached == 0.0
        assert result.message.startswith("continuity step underflow below 0.0001 at t=0.0: ")
        lo = tm.positivity_check(g)
        assert f"smallest eigenvalue {lo:.6g} is below damping_eig_floor 0.9," in result.message

    def test_rejects_non_positive_background(self):
        grid = tm.Grid(n=1, N=32)
        phi = tm.make_field(grid, 0.2 * np.cos(2 * np.pi * grid.coordinate(0)))
        bad = tm.flat_metric(grid) + tm.hermitian_hessian(phi)
        with pytest.raises(tm.NonPositiveMetricError):
            tm.continuity_solve(tm.make_field(grid, np.zeros(grid.shape)), bad,
                                tm.SolverConfig(n=1, N=32))

    def test_under_resolved_forcing_warns(self):
        grid = tm.Grid(n=1, N=16)
        g = tm.flat_metric(grid)
        k = grid.N // 2 - 1
        F = tm.make_field(grid, 0.05 * np.cos(2 * np.pi * k * grid.coordinate(0)))
        with pytest.warns(RuntimeWarning):
            tm.continuity_solve(F, g, tm.SolverConfig(n=1, N=16))

    @pytest.mark.filterwarnings("ignore:F carries significant spectral content")
    def test_damped_correction_converges(self, monkeypatch):
        # one full t-step at n = 2 whose first Newton corrections leave the
        # positive cone at lambda = 1: damping accepts lambda = 1/4 and 1/2
        grid = tm.Grid(n=2, N=8)
        x1, y1, x2, y2 = (grid.coordinate(a) for a in range(4))
        F = tm.make_field(grid, 0.3 * np.exp(2.5 * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * y2))
                          + 0.3 * np.sin(2 * np.pi * (x2 + y1)))
        cfg = tm.SolverConfig(n=2, N=8, t_step_initial=1.0)
        lams = []
        damped_update = solver._damped_update

        def spy(it, psi, floor):
            out = damped_update(it, psi, floor)
            if out is not None:  # the accepted phi + lambda psi; both are mean-zero
                step = out.phi.values - it.phi.values
                lams.append(np.max(np.abs(step)) / np.max(np.abs(psi.values)))
            return out

        monkeypatch.setattr(solver, "_damped_update", spy)
        result = tm.continuity_solve(F, tm.flat_metric(grid), cfg)
        assert result.converged, result.message
        assert all(s.residual_sup <= cfg.newton_tol for s in result.trace)
        assert min(lams) < 0.9


class TestNewtonExits:
    """Each way _newton_at_t rejects a t-step, forced at every step: the solve
    halves t from t_step_initial down to an underflow at t = 0."""

    @pytest.fixture(params=["newton_cap", "krylov_stall", "zero_rhs"])
    def fault(self, request, monkeypatch):
        if request.param == "newton_cap":
            monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 0)
        elif request.param == "krylov_stall":
            def stalled(rhs, it, tol=None):
                raise tm.KrylovConvergenceError(1.0, tol, 0)

            monkeypatch.setattr(solver, "solve_linearized", stalled)
        else:
            # r = 1/2 everywhere is a constant in dV_g, the part L cannot reach:
            # _pcg's projected right-hand side is zero, every correction is zero,
            # and Newton runs to its cap
            monkeypatch.setattr(solver, "ma_residual",
                                lambda it, F, t: tm.make_field(F.grid, np.full(F.grid.shape, 0.5)))

    def test_solve_underflows_at_zero(self, fault):
        grid = tm.Grid(n=1, N=8)
        F = tm.make_field(grid, 0.1 * np.sin(2 * np.pi * grid.coordinate(0)))
        result = tm.continuity_solve(F, tm.flat_metric(grid), tm.SolverConfig(n=1, N=8))
        assert not result.converged and result.t_reached == 0.0 and result.trace == []
        assert result.message.startswith("continuity step underflow below 0.0001 at t=0.0")

    def test_cli_exits_2(self, fault, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"n": 1, "N": 8, "F": "0.1*sin(2*pi*x1)"}')
        assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solve failed: continuity step underflow below 0.0001 at t=0.0")

    def test_zero_projected_rhs_gives_zero_without_applying_the_operator(self, monkeypatch):
        grid = tm.Grid(n=1, N=8)
        it = tm.metric_iterate(tm.flat_metric(grid), tm.make_field(grid, np.zeros(grid.shape)))
        calls = count_apply_B(monkeypatch)
        psi = tm.solve_linearized(tm.make_field(grid, np.full(grid.shape, 0.5)), it)
        assert calls == [] and not np.any(psi.values)


def _first_residual_iterates(monkeypatch):
    """The iterate of each ma_residual call from here on."""
    seen = []
    ma_residual = solver.ma_residual

    def spy(it, F, t):
        seen.append(it)
        return ma_residual(it, F, t)

    monkeypatch.setattr(solver, "ma_residual", spy)
    return seen


class TestSecantPredictor:
    @pytest.fixture
    def accepted(self):
        """(F, cfg, iterate at t = 0.2) of a small n=2 path."""
        grid = tm.Grid(n=2, N=8)
        x1, y2 = grid.coordinate(0), grid.coordinate(3)
        F = tm.make_field(grid, 0.5 * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * y2))
        cfg = tm.SolverConfig(n=2, N=8)
        it = tm.metric_iterate(tm.flat_metric(grid), tm.make_field(grid, np.zeros(grid.shape)))
        it, _, _ = solver._newton_at_t(it, F, 0.2, cfg)
        return F, cfg, it

    def test_starts_from_the_extrapolation(self, accepted, monkeypatch):
        F, cfg, it = accepted
        prev = tm.make_field(it.phi.grid, 0.5 * it.phi.values)
        seen = _first_residual_iterates(monkeypatch)
        assert solver._newton_at_t(it, F, 0.3, cfg, (prev, 0.5)) is not None
        expected = tm.mean_zero_project(it.phi + 0.5 * (it.phi - prev))
        assert np.array_equal(seen[0].phi.values, expected.values)

    def test_falls_back_below_the_floor(self, accepted, monkeypatch):
        F, cfg, it = accepted
        # phi + s (phi - prev) = 1001 phi leaves the positive cone
        prev = tm.make_field(it.phi.grid, -1000.0 * it.phi.values)
        assert tm.metric_iterate(it.g, 1001.0 * it.phi).min_eig < cfg.damping_eig_floor
        seen = _first_residual_iterates(monkeypatch)
        assert solver._newton_at_t(it, F, 0.3, cfg, (prev, 1.0)) is not None
        assert seen[0] is it

    def test_linear_n1_solve_builds_no_prediction(self, monkeypatch):
        # at n = 1 each t-step takes one Newton iteration, so no secant is
        # formed: the Hessian count equals that of cold restarts
        grid = tm.Grid(n=1, N=64)
        F = tm.poisson_forcing_n1(grid)
        cfg = tm.SolverConfig(n=1, N=64)
        hessians = []
        hermitian_hessian = tm.geometry.hermitian_hessian

        def counting(phi):
            hessians.append(1)
            return hermitian_hessian(phi)

        monkeypatch.setattr(tm.geometry, "hermitian_hessian", counting)
        tm.continuity_solve(F, tm.flat_metric(grid), cfg)
        with_predictor = len(hessians)
        hessians.clear()
        newton_at_t = solver._newton_at_t
        monkeypatch.setattr(solver, "_newton_at_t",
                            lambda it, F, t, cfg, secant=None: newton_at_t(it, F, t, cfg))
        tm.continuity_solve(F, tm.flat_metric(grid), cfg)
        assert with_predictor == len(hessians) > 0


class TestYauReport:
    def test_zero_potential(self, grid):
        zero = tm.make_field(grid, np.zeros(grid.shape))
        rep = tm.yau_estimate_report(tm.metric_iterate(tm.flat_metric(grid), zero))
        assert rep["sup_phi"] == 0.0
        assert rep["eig_min"] == pytest.approx(1.0)
        assert rep["eig_max"] == pytest.approx(1.0)

    def test_bounds_positive_for_nontrivial(self, grid, small_potential):
        rep = tm.yau_estimate_report(tm.metric_iterate(tm.flat_metric(grid), small_potential))
        assert rep["sup_phi"] > 0
        assert rep["sup_grad_phi"] > 0
        assert rep["sup_third"] > 0
        assert 0 < rep["eig_min"] < 1 < rep["eig_max"]

    def test_eigenvalues_are_those_of_the_solved_metric(self, ricci_flat_solve, tmp_path):
        # on a non-flat background the trace must report g~ = g + ddbar phi,
        # the metric the CLI writes, not I + ddbar phi
        g, result = ricci_flat_solve
        path = tmp_path / "metric.cmmf"
        tm.write_metric(path, tm.metric_from_potential(g, result.phi))
        lo, hi = tm.eigenvalue_fields(tm.read_metric(path))
        final = result.trace[-1]
        assert final.eig_min == float(np.min(lo))
        assert final.eig_max == float(np.max(hi))
        assert final.eig_min == pytest.approx(1.0, abs=1e-6)
        assert final.eig_max == pytest.approx(1.0, abs=1e-6)
