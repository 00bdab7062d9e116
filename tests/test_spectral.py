"""The solver's operators against full complex-FFT formulas.

Each operator is checked against the complex-FFT formula it replaced, written
out here so that the reference goes through neither Grid.hessian nor
Grid.inverse_flat.
"""

import warnings

import numpy as np
import pytest

import torusma as tm
from conftest import (HELD_SPECTRAL_DATA, analytic_manufactured_n1, axis_derivative,
                      complex_hessian_symbol, complex_precondition, count_calls)
from torusma.solver import _LinearizedOperator, _band_limit_warning, yau_estimate_report


def _rel(new, old):
    return float(np.max(np.abs(new - old)) / np.max(np.abs(old)))


def _complex_hessian(phi):
    grid = phi.grid
    n = grid.n
    spec = np.fft.fftn(phi.values)
    H = np.empty(grid.shape + (n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            H[..., j, k] = np.fft.ifftn(spec * complex_hessian_symbol(grid, j, k))
    return 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))


def _complex_apply_B(u, it):
    grid = it.g.grid
    coef = (np.einsum("...kj->...jk", tm.inverse_field(it.gt).mats)
            * it.gt.det[..., None, None])
    spec = np.fft.fftn(u)
    acc = np.zeros(grid.shape, dtype=complex)
    for j in range(grid.n):
        for k in range(grid.n):
            acc += coef[..., j, k] * np.fft.ifftn(spec * complex_hessian_symbol(grid, j, k))
    return -acc.real


def _background(grid, flat):
    """The flat metric, or a non-flat g = flat + ddbar psi."""
    if flat:
        return tm.flat_metric(grid)
    if grid.n == 2:
        return tm.ricci_flat_background_n2(grid)[1]
    psi = tm.random_band_limited(grid, np.random.default_rng(7), kmax=2, amplitude=0.01)
    return tm.metric_from_potential(tm.flat_metric(grid), tm.mean_zero_project(psi))


def _per_axis_monitor(phi):
    """(sup |grad phi|, sup |d_l d_j dbar_k phi|) from per-axis derivatives of phi and H."""
    grid = phi.grid
    N, n = grid.N, grid.n
    grad_sq = sum(axis_derivative(phi.values, a, N).real ** 2 for a in range(grid.num_axes))
    H = _complex_hessian(phi)
    third = max(
        np.max(np.abs(0.5 * (axis_derivative(H[..., j, k], 2 * l, N)
                             - 1j * axis_derivative(H[..., j, k], 2 * l + 1, N))))
        for l in range(n) for j in range(n) for k in range(n)
    )
    return float(np.sqrt(np.max(grad_sq))), float(third)


class TestMatchesComplexTransform:
    def test_round_trip(self, grid, random_real_field):
        u = random_real_field.values.real
        spec = grid.rfftn(u)
        assert spec.shape == grid.shape[:-1] + (grid.N // 2 + 1,)
        assert _rel(grid.irfftn(spec), u) <= 1e-14

    def test_hermitian_hessian(self, random_real_field):
        H = tm.hermitian_hessian(random_real_field).mats
        assert _rel(H, _complex_hessian(random_real_field)) <= 1e-12
        assert np.array_equal(H, np.conj(np.swapaxes(H, -1, -2)))

    def test_apply_B(self, grid, small_potential, random_real_field):
        it = tm.metric_iterate(tm.flat_metric(grid), small_potential)
        u = random_real_field.values.real
        Bu = _LinearizedOperator(it).apply_B(u)
        assert _rel(Bu, _complex_apply_B(u, it)) <= 1e-12

    def test_precondition(self, grid, small_potential, random_real_field):
        op = _LinearizedOperator(tm.metric_iterate(tm.flat_metric(grid), small_potential))
        r = random_real_field.values.real
        z = op.precondition(r)
        assert _rel(z, complex_precondition(r, grid)) <= 1e-12

    # the fixtures' grids are (1, 32) and (2, 16); n=1 N=64 takes the transforms;
    # test_grid's TestMatrixTransforms covers the preconditioner at every size
    @pytest.mark.parametrize("n,N", [(1, 8), (1, 16), (2, 8), (1, 64)],
                             ids=["n1-N8", "n1-N16", "n2-N8", "n1-N64"])
    def test_apply_B_at_other_sizes(self, n, N):
        grid = tm.Grid(n=n, N=N)
        rng = np.random.default_rng(3)
        phi = tm.mean_zero_project(tm.random_band_limited(grid, rng, kmax=2, amplitude=0.01))
        it = tm.metric_iterate(_background(grid, flat=False), phi)
        # white noise: content on every Nyquist plane
        u = rng.standard_normal(grid.shape)
        assert _rel(_LinearizedOperator(it).apply_B(u), _complex_apply_B(u, it)) <= 1e-12

    # with kmax=1 and this seed the n=2 sup of |d_l d_j dbar_k phi| lies at
    # j != k, where the imaginary symbol B of d_j dbar_k enters; over a
    # non-flat g the third derivatives are those of g~ - g, not of g~; at
    # N=64 Grid.derivative takes its FFT branch
    @pytest.mark.parametrize("n,N,kmax,seed,flat", [
        (1, 32, 2, 42, True), (1, 32, 1, 1, True), (2, 16, 2, 42, True), (2, 16, 1, 1, True),
        (1, 32, 2, 42, False), (2, 16, 2, 42, False), (1, 64, 2, 42, True),
    ], ids=["n1-kmax2", "n1-kmax1", "n2-kmax2", "n2-kmax1", "n1-nonflat", "n2-nonflat",
            "n1-N64"])
    def test_yau_monitor(self, n, N, kmax, seed, flat):
        grid = tm.Grid(n=n, N=N)
        phi = tm.mean_zero_project(tm.random_band_limited(
            grid, np.random.default_rng(seed), kmax=kmax, real=True, amplitude=0.01))
        report = yau_estimate_report(tm.metric_iterate(_background(grid, flat), phi))
        grad, third = _per_axis_monitor(phi)
        assert abs(report["sup_grad_phi"] - grad) <= 1e-12 * grad
        assert abs(report["sup_third"] - third) <= 1e-12 * third
        assert report["sup_phi"] == float(np.max(np.abs(phi.values.real)))

    def test_yau_monitor_takes_no_forward_transform(self, grid, small_potential, monkeypatch):
        # n = 1 reads grad phi and d h from the iterate's half spectrum, one
        # irfftn each and no per-axis transform; n = 2 multiplies per-axis matrices
        it = tm.metric_iterate(_background(grid, flat=False), small_potential)
        calls = [count_calls(monkeypatch, tm.Grid, name) for name in ("rfftn", "irfftn")]
        per_axis = [count_calls(monkeypatch, np.fft, name) for name in ("rfft", "irfft")]
        yau_estimate_report(it)
        assert [len(c) for c in calls] == [0, 4 if grid.n == 1 else 0]
        assert per_axis == [[], []]

    def test_hessian_rejects_complex_field(self, grid, rng):
        with pytest.raises(ValueError):
            tm.hermitian_hessian(tm.random_band_limited(grid, rng, kmax=2, real=False))


def test_precondition_inverts_flat_operator(grid, random_real_field):
    # at phi = 0 on the flat metric, B = -(1/4) Delta and the preconditioner is exact
    zero = tm.make_field(grid, np.zeros(grid.shape))
    op = _LinearizedOperator(tm.metric_iterate(tm.flat_metric(grid), zero))
    u = tm.mean_zero_project(random_real_field).values.real
    assert _rel(op.precondition(op.apply_B(u)), u) <= 1e-12
    assert _rel(op.apply_B(op.precondition(u)), u) <= 1e-12


# n=1 takes the symbols and transforms at every N; n=2 takes matrix products
@pytest.mark.parametrize("n,N", [(1, 32), (2, 8), (1, 64)], ids=["n1", "n2", "n1-N64"])
def test_symbols_built_once_per_grid(n, N, monkeypatch):
    flat_builds = count_calls(monkeypatch, tm.Grid, "_quarter_laplacian")
    grid = tm.Grid(n=n, N=N)
    x1, y1 = grid.coordinate(0), grid.coordinate(1)
    F = tm.make_field(grid, 0.2 * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * y1))
    result = tm.continuity_solve(F, tm.flat_metric(grid), tm.SolverConfig(n=n, N=N))
    assert result.converged
    assert sum(s.newton_iters for s in result.trace) > 0
    # the grid holds the axis symbols and the inverse flat symbol in every
    # dimension, and the Hessian half-symbol at n = 1; each flat symbol is
    # built once for every operator of the solve
    assert vars(grid).keys() - {"n", "N"} == HELD_SPECTRAL_DATA[n]
    assert [b for (b,) in flat_builds] == [grid] * (2 if n == 1 else 1)
    assert all(b is grid for (b,) in flat_builds)


class TestBandLimitWarning:
    def test_fires_on_manufactured_forcing(self):
        grid = tm.Grid(n=2, N=16)
        F = tm.manufactured_forcing(tm.flat_metric(grid), tm.manufactured_potential_n2(grid))
        with pytest.warns(RuntimeWarning, match="F carries significant spectral content"):
            _band_limit_warning(F)

    def test_silent_on_band_limited_field(self, grid, rng):
        F = tm.random_band_limited(grid, rng, kmax=3, real=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _band_limit_warning(F)

    # a wave above N/4 with 1e-9 of the spectral mass warns and one with 1e-11 does
    # not: the threshold is 1e-10 of the mass, not 1e-8
    @pytest.mark.parametrize("amplitude,warns", [(1e-10, True), (1e-12, False)],
                             ids=["above-threshold", "below-threshold"])
    def test_threshold_is_a_ten_billionth_of_the_mass(self, amplitude, warns):
        grid = tm.Grid(n=1, N=32)
        x1 = grid.coordinate(0)
        F = tm.make_field(grid, 0.1 * np.cos(2 * np.pi * x1)
                          + amplitude * np.cos(2 * np.pi * 12 * x1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _band_limit_warning(F)
        assert len(caught) == warns

    # which of the package's own forcings warn: every manufactured log det g~ and the
    # Ricci-flat F carry content above N/4, the Poisson forcing is one wave
    @pytest.mark.parametrize("problem,n,N,warns", [
        ("manufactured", 1, 64, True),
        ("manufactured", 1, 512, True),
        ("manufactured", 2, 16, True),
        ("manufactured", 2, 32, True),
        ("ricci_flat", 2, 16, True),
        ("analytic", 1, 16, True),
        ("analytic", 1, 32, True),
        ("poisson", 1, 64, False),
        ("poisson", 1, 512, False),
    ], ids=lambda v: str(v))
    def test_package_forcings(self, problem, n, N, warns):
        grid = tm.Grid(n=n, N=N)
        if problem == "manufactured":
            phi_star = (tm.manufactured_potential_n1(grid) if n == 1
                        else tm.manufactured_potential_n2(grid))
            F = tm.manufactured_forcing(tm.flat_metric(grid), phi_star)
        elif problem == "ricci_flat":
            F = tm.ricci_flat_background_n2(grid)[2]
        elif problem == "analytic":
            F = analytic_manufactured_n1(grid)[1]
        else:
            F = tm.poisson_forcing_n1(grid)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _band_limit_warning(F)
        assert len(caught) == warns

    # the last axis is the one the half spectrum folds
    @pytest.mark.parametrize("last", [False, True], ids=["first-axis", "last-axis"])
    def test_cutoff_is_quarter_band(self, grid, last):
        x = grid.coordinate(grid.num_axes - 1 if last else 0)
        at = tm.make_field(grid, np.cos(2 * np.pi * (grid.N // 4) * x))
        above = tm.make_field(grid, np.cos(2 * np.pi * (grid.N // 4 + 1) * x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _band_limit_warning(at)
        with pytest.warns(RuntimeWarning):
            _band_limit_warning(above)
