"""Independent oracles and named verification suites.

Oracles never share derivative kernels with the spectral operators they
check: finite differences use roll stencils, and the n=1 Poisson oracle
builds its own Fourier symbol from scratch.  All pass/fail thresholds live in
the THRESHOLDS table below.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import forms
from .geometry import (
    HermitianMetricField,
    first_chern_integral,
    flat_metric,
    log_det_field,
    metric_from_potential,
    positivity_check,
    ricci_form,
    christoffel,
    christoffel_trace,
    log_volume_gradient,
    hermitian_hessian,
    volume,
)
from .grid import (
    Grid,
    PeriodicScalarField,
    make_field,
    mean_zero_project,
    random_band_limited,
)
from .solver import SolverConfig, continuity_solve

THRESHOLDS = {
    "identities.del_squared": 1e-12,
    "identities.delbar_squared": 1e-12,
    "identities.d_squared": 1e-12,
    "identities.anticommutator": 1e-12,
    "geometry.christoffel_trace": 1e-11,
    "geometry.ricci_difference": 1e-11,
    "geometry.volume_invariance": 1e-10,
    "geometry.chern_integral": 1e-10,
    "uniqueness.sup_difference": 1e-8,
    "uniqueness.functional": 1e-9,
    "manufactured.n1_error": 1e-8,
    "manufactured.n2_error": 1e-6,
    "ricci_flat.metric_deviation": 1e-7,
    "poisson_n1.oracle_match": 1e-8,
}


@dataclass(frozen=True)
class SuiteCheck:
    name: str
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: list[SuiteCheck]
    passed: bool
    elapsed_s: float


def _check(name: str, value: float) -> SuiteCheck:
    thr = THRESHOLDS[name]
    return SuiteCheck(name=name, value=float(value), threshold=thr, passed=value <= thr)


# ---------------------------------------------------------------------------
# oracles

_FD_COEFFS = {
    2: [0.5],
    8: [4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0],
}


def finite_difference_oracle(
    f: PeriodicScalarField, axis: int, order: int
) -> PeriodicScalarField:
    """Periodic central finite differences; cross-checks spectral derivatives."""
    if order not in _FD_COEFFS:
        raise ValueError(f"order must be one of {sorted(_FD_COEFFS)}, got {order}")
    f.grid.check_axis(axis)
    h = 1.0 / f.grid.N
    out = np.zeros(f.grid.shape, dtype=f.values.dtype)
    for s, c in enumerate(_FD_COEFFS[order], start=1):
        out += c * (np.roll(f.values, -s, axis=axis) - np.roll(f.values, s, axis=axis))
    return make_field(f.grid, out / h)


def poisson_oracle_n1(
    F: PeriodicScalarField, g_flat: HermitianMetricField
) -> PeriodicScalarField:
    """Solve 1 + phi_zzbar = C e^F on the flat n=1 torus by spectral division.

    Independent of the continuity solver: builds its own flat-Laplacian
    symbol and inverts it on the mean-zero right-hand side.
    """
    grid = F.grid
    if grid.n != 1:
        raise ValueError("the Poisson reduction applies to n = 1 only")
    if np.any(g_flat.diag != 1.0):
        raise ValueError("the Poisson reduction needs the flat background")
    if not F.is_real:
        raise ValueError("F must be real")
    eF = np.exp(F.values)
    C = 1.0 / float(np.mean(eF))
    rhs = C * eF - 1.0
    mean = abs(float(np.mean(rhs)))
    if mean > 1e-12:
        raise ValueError(f"compatibility violated: zero mode of rhs is {mean:.3e}")
    N = grid.N
    kx = np.fft.fftfreq(N, d=1.0 / N).reshape(N, 1)
    ky = np.fft.fftfreq(N, d=1.0 / N).reshape(1, N)
    symbol = -np.pi ** 2 * (kx ** 2 + ky ** 2)  # (1/4) flat Laplacian
    spec = np.fft.fft2(rhs)
    out = np.zeros_like(spec)
    np.divide(spec, symbol, out=out, where=symbol != 0)
    phi = np.fft.ifft2(out).real
    return make_field(grid, phi - np.mean(phi))


# ---------------------------------------------------------------------------
# shared problem builders (also used by the acceptance tests)

# default amplitude A of both manufactured potentials: their exact target
# metrics have minimum eigenvalue 1 - 2 pi^2 A = 0.4078, above the 0.4
# positivity margin the acceptance criteria require along the path
MANUFACTURED_AMPLITUDE = 0.03


def manufactured_potential_n1(
    grid: Grid, amplitude: float = MANUFACTURED_AMPLITUDE
) -> PeriodicScalarField:
    """phi* = A cos(2 pi x1) cos(2 pi y1), the n=1 manufactured solution.

    Its complex Hessian is -2 pi^2 A cos(2 pi x1) cos(2 pi y1), so the exact
    target metric flat + ddbar phi* has minimum eigenvalue 1 - 2 pi^2 A,
    attained on the grid at x1 = y1 = 0.  The default A = 0.03 gives 0.4078
    and keeps the 0.4 positivity margin along the continuity path.  Larger
    amplitudes approach degeneracy (A = 0.05 gives 1 - 0.1 pi^2 ~= 0.013),
    where dividing by det g~ amplifies rounding in curvature checks.
    """
    x = grid.coordinate(0)
    y = grid.coordinate(1)
    vals = amplitude * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    return mean_zero_project(make_field(grid, vals))


def manufactured_potential_n2(
    grid: Grid, amplitude: float = MANUFACTURED_AMPLITUDE
) -> PeriodicScalarField:
    """phi* = A (cos(2 pi x1) cos(2 pi y2) + cos(2 pi x2)), the n=2 manufactured solution.

    With a = cos(2 pi x1) cos(2 pi y2), b = cos(2 pi x2) and
    s = sin(2 pi x1) sin(2 pi y2), the exact target metric is
    I + pi^2 A [[-a, i s], [-i s, -a - b]], whose smallest eigenvalue
    1 - pi^2 A (a + b/2 + sqrt(b^2/4 + s^2)) has minimum 1 - 2 pi^2 A at
    x1 = y2 = x2 = 0.  The default A = 0.03 gives 0.4078 and keeps the 0.4
    positivity margin along the continuity path.
    """
    x1 = grid.coordinate(0)
    y2 = grid.coordinate(3)
    x2 = grid.coordinate(2)
    vals = amplitude * (np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * y2) + np.cos(2 * np.pi * x2))
    return mean_zero_project(make_field(grid, vals))


def manufactured_forcing(
    g: HermitianMetricField, phi_star: PeriodicScalarField
) -> PeriodicScalarField:
    """F = log(det(g + ddbar phi*) / det g), making phi* the exact solution."""
    gt = metric_from_potential(g, phi_star)
    vals = log_det_field(gt).values - log_det_field(g).values
    return make_field(g.grid, vals)


def poisson_forcing_n1(grid: Grid) -> PeriodicScalarField:
    x = grid.coordinate(0)
    y = grid.coordinate(1)
    return make_field(grid, 0.3 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))


def ricci_flat_background_n2(grid: Grid):
    """Non-flat background g = flat + ddbar psi and the forcing that flattens it."""
    x1 = grid.coordinate(0)
    x2 = grid.coordinate(2)
    psi = mean_zero_project(
        make_field(grid, 0.03 * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * x2))
    )
    g = metric_from_potential(flat_metric(grid), psi)
    F = make_field(grid, -log_det_field(g).values)
    return psi, g, F


# ---------------------------------------------------------------------------
# suites

def _suite_identities() -> list[SuiteCheck]:
    # The composed d(d alpha) splits by bidegree into del^2, delbar^2, and the
    # anticommutator; reading those parts off one composition checks all four
    # identities on each field, and d^2 has no other part, so its sup is their max.
    worst = {"del_squared": 0.0, "delbar_squared": 0.0, "d_squared": 0.0,
             "anticommutator": 0.0}
    for n in (1, 2):
        grid = Grid(n=n, N=32)
        rng = np.random.default_rng(2024 + n)
        degrees = [(p, q) for p in range(n + 1) for q in range(n + 1) if (p, q) != (n, n)]
        for trial in range(5):
            p, q = degrees[trial % len(degrees)]
            alpha = forms.PqForm(grid, p, q, {
                (J, K): random_band_limited(grid, rng, kmax=3, real=False).values
                for J in forms.increasing_indices(n, p)
                for K in forms.increasing_indices(n, q)
            })
            d2 = forms.d_sum(forms.exterior_d(alpha))
            worst["del_squared"] = max(worst["del_squared"], d2.part(p + 2, q).sup_norm())
            worst["delbar_squared"] = max(worst["delbar_squared"], d2.part(p, q + 2).sup_norm())
            worst["anticommutator"] = max(worst["anticommutator"], d2.part(p + 1, q + 1).sup_norm())
    worst["d_squared"] = max(worst["del_squared"], worst["delbar_squared"],
                             worst["anticommutator"])
    return [_check(f"identities.{k}", v) for k, v in worst.items()]


def _admissible_potential(
    grid: Grid, seed: int, perturbation: float = 0.5
) -> PeriodicScalarField:
    """Random band-limited potential scaled so the eigenvalues of
    flat + ddbar phi stay within `perturbation` of 1."""
    rng = np.random.default_rng(seed)
    f = mean_zero_project(random_band_limited(grid, rng, kmax=2, real=True, amplitude=0.02))
    gt = metric_from_potential(flat_metric(grid), f)
    min_eig = positivity_check(gt)
    if min_eig < 1.0 - perturbation:
        # eigenvalues of I + Hess scale affinely with the potential amplitude
        f = (perturbation / (1.0 - min_eig)) * f
    return f


def _suite_geometry() -> list[SuiteCheck]:
    worst_trace = 0.0
    worst_ricci = 0.0
    worst_vol = 0.0
    worst_chern = 0.0
    for n, N in ((1, 32), (2, 16)):
        grid = Grid(n=n, N=N)
        g0 = flat_metric(grid)
        for seed in range(5):
            phi = _admissible_potential(grid, 7 * n + seed)
            gt = metric_from_potential(g0, phi)
            worst_vol = max(worst_vol, abs(volume(gt) - 1.0))
        # small perturbations keep the aliasing of log det and the matrix
        # inverse below the identity thresholds
        phi = _admissible_potential(grid, 100 + n, perturbation=2e-3)
        gt = metric_from_potential(g0, phi)
        gamma = christoffel(gt)
        trace = christoffel_trace(gamma)
        oracle = log_volume_gradient(gt)
        worst_trace = max(worst_trace, float(np.max(np.abs(trace - oracle))))
        # Ricci difference over a non-flat background so the two computation
        # paths are genuinely distinct
        g_back = metric_from_potential(g0, _admissible_potential(grid, 200 + n, perturbation=2e-3))
        gtt = metric_from_potential(g_back, phi)
        diff = ricci_form(gtt).mats - ricci_form(g_back).mats
        ratio = make_field(grid, log_det_field(gtt).values - log_det_field(g_back).values)
        worst_ricci = max(worst_ricci, float(np.max(np.abs(diff + hermitian_hessian(ratio).mats))))
        if n == 1:
            worst_chern = max(worst_chern, abs(first_chern_integral(gt)))
            lam = make_field(grid, 1.0 + 0.2 * np.cos(2 * np.pi * grid.coordinate(0)))
            conformal = HermitianMetricField(grid, lam.values[None])
            worst_chern = max(worst_chern, abs(first_chern_integral(conformal)))
    return [
        _check("geometry.christoffel_trace", worst_trace),
        _check("geometry.ricci_difference", worst_ricci),
        _check("geometry.volume_invariance", worst_vol),
        _check("geometry.chern_integral", worst_chern),
    ]


def _suite_uniqueness() -> list[SuiteCheck]:
    grid = Grid(n=1, N=64)
    g = flat_metric(grid)
    F = poisson_forcing_n1(grid)
    cfg_a = SolverConfig(n=1, N=64, t_step_initial=0.1, damping_eig_floor=1e-8)
    cfg_b = SolverConfig(n=1, N=64, t_step_initial=0.05, damping_eig_floor=1e-6)
    res_a = continuity_solve(F, g, cfg_a)
    res_b = continuity_solve(F, g, cfg_b)
    sup = float(np.max(np.abs(res_a.phi.values - res_b.phi.values)))
    functional = forms.uniqueness_functional(res_a.phi, res_b.phi, g)
    return [
        _check("uniqueness.sup_difference", sup),
        _check("uniqueness.functional", abs(functional)),
    ]


def _manufactured_error(n: int, N: int) -> float:
    grid = Grid(n=n, N=N)
    g = flat_metric(grid)
    phi_star = manufactured_potential_n1(grid) if n == 1 else manufactured_potential_n2(grid)
    F = manufactured_forcing(g, phi_star)
    result = continuity_solve(F, g, SolverConfig(n=n, N=N))
    return float(np.max(np.abs(result.phi.values - phi_star.values)))


def _suite_manufactured() -> list[SuiteCheck]:
    err1 = _manufactured_error(1, 64)
    err2 = _manufactured_error(2, 16)
    return [
        _check("manufactured.n1_error", err1),
        _check("manufactured.n2_error", err2),
    ]


def _suite_ricci_flat() -> list[SuiteCheck]:
    grid = Grid(n=2, N=16)
    psi, g, F = ricci_flat_background_n2(grid)
    result = continuity_solve(F, g, SolverConfig(n=2, N=16))
    dev = float(np.max(np.abs(result.metric.mats - flat_metric(grid).mats)))
    return [_check("ricci_flat.metric_deviation", dev)]


def _suite_poisson_n1() -> list[SuiteCheck]:
    grid = Grid(n=1, N=64)
    g = flat_metric(grid)
    F = poisson_forcing_n1(grid)
    oracle = poisson_oracle_n1(F, g)
    result = continuity_solve(F, g, SolverConfig(n=1, N=64))
    sup = float(np.max(np.abs(oracle.values - result.phi.values)))
    return [_check("poisson_n1.oracle_match", sup)]


_SUITES = {
    "identities": _suite_identities,
    "geometry": _suite_geometry,
    "uniqueness": _suite_uniqueness,
    "manufactured": _suite_manufactured,
    "ricci_flat": _suite_ricci_flat,
    "poisson_n1": _suite_poisson_n1,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> SuiteReport:
    """Run one named suite and report per-check values against THRESHOLDS."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    start = time.perf_counter()
    checks = _SUITES[name]()
    elapsed = time.perf_counter() - start
    return SuiteReport(
        suite=name,
        checks=checks,
        passed=all(c.passed for c in checks),
        elapsed_s=elapsed,
    )
