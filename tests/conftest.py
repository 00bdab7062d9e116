import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import torusma as tm
from torusma.solver import _LinearizedOperator

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, description: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    _ACCEPTANCE_LINES.append(f"criterion {number:2d} [{status}] {description}: {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def wavenumbers(N):
    """Integer wavenumbers of one axis in fftfreq order."""
    return np.rint(np.fft.fftfreq(N, d=1.0 / N)).astype(int)


# the spectral data a grid holds once its operators have run: D, D2 and the
# Hartley matrix at n = 2, the half-spectrum Hessian symbol at n = 1
HELD_SPECTRAL_DATA = {
    1: {"axis_symbols", "hessian_half_symbol", "inverse_flat_symbol"},
    2: {"axis_symbols", "axis_matrices", "hartley_matrix", "inverse_flat_symbol"},
}


def _on_axis(sym, axis, ndim):
    shape = [1] * ndim
    shape[axis] = sym.size
    return sym.reshape(shape)


def _first_symbol(N, axis, ndim):
    """The symbol of d/dx along one axis: 2 pi i k, Nyquist mode zeroed."""
    k = wavenumbers(N)
    return _on_axis(np.where(np.abs(k) == N // 2, 0.0, 2j * np.pi * k), axis, ndim)


def _second_symbol(N, axis, ndim):
    """The symbol of d^2/dx^2 along one axis: -(2 pi k)^2, Nyquist mode kept."""
    return _on_axis(-((2 * np.pi * np.fft.fftfreq(N, d=1.0 / N)) ** 2), axis, ndim)


def axis_derivative(u, axis, N):
    """First derivative along one axis by a complex 1-D transform, Nyquist mode zeroed.

    The per-axis reference the spectral and forms tests compare against; it
    does not go through torusma, and neither do the other references here.
    """
    return np.fft.ifft(np.fft.fft(u, axis=axis) * _first_symbol(N, axis, u.ndim), axis=axis)


def _axis_second_derivative(u, axis, N):
    """Pure second derivative along one axis by a complex 1-D transform, Nyquist mode kept."""
    return np.fft.ifft(np.fft.fft(u, axis=axis) * _second_symbol(N, axis, u.ndim), axis=axis)


def complex_hessian_symbol(grid, j, k):
    """Full-spectrum symbol of d_j dbar_k = (1/4)(d_xj - i d_yj)(d_xk + i d_yk).

    A pure second derivative keeps the Nyquist mode; a product of two first
    derivatives zeroes it.
    """
    N, ndim = grid.N, grid.num_axes

    def second(a, b):
        if a == b:
            return _second_symbol(N, a, ndim)
        return _first_symbol(N, a, ndim) * _first_symbol(N, b, ndim)

    xj, yj, xk, yk = 2 * j, 2 * j + 1, 2 * k, 2 * k + 1
    return 0.25 * (second(xj, xk) + 1j * second(xj, yk) - 1j * second(yj, xk) + second(yj, yk))


def complex_precondition(r, grid):
    """The inverse of -(1/4) Laplacian by a complex n-D transform, Nyquist modes kept.

    The reference for the flat preconditioner; it does not go through Grid.inverse_flat.
    """
    spec = np.fft.fftn(r)
    sym = sum(-0.25 * _second_symbol(grid.N, a, grid.num_axes) for a in range(grid.num_axes))
    sym = np.broadcast_to(sym, grid.shape)
    out = np.zeros_like(spec)
    np.divide(spec, sym, out=out, where=sym > 0)
    return np.fft.ifftn(out).real


@pytest.fixture(scope="session")
def suite_report():
    """run_suite(name), run once per session and shared by every test that reads it.

    Timing gates read the report's own ``elapsed_s``, which does not depend
    on which test ran the suite first.  The run is traced, and
    ``suite_report.peak_bytes[name]`` holds its tracemalloc peak.
    """
    reports: dict[str, tm.SuiteReport] = {}
    peaks: dict[str, int] = {}

    def get(name: str) -> tm.SuiteReport:
        if name not in reports:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                reports[name] = tm.run_suite(name)
                peaks[name] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        return reports[name]

    get.peak_bytes = peaks
    return get


def count_calls(monkeypatch, owner, name):
    """Record the arguments of every call of owner.name from here on; returns the list.

    owner is a module or a class; a method's arguments start with its instance.
    """
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def raises_exactly(error, call):
    """Run call() and check that it raises error itself, not a subclass of it."""
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error, repr(info.value)


def analytic_manufactured_n1(grid):
    """(phi*, F) with phi* = a exp(sin(2 pi x1)), a = 0.02: analytic but not
    band-limited, so the discretization error is genuinely resolution-dependent."""
    a = 0.02
    x = grid.coordinate(0)
    s = np.sin(2 * np.pi * x)
    c = np.cos(2 * np.pi * x)
    phi_star = tm.mean_zero_project(tm.make_field(grid, a * np.exp(s)))
    det_target = 1.0 + a * np.pi ** 2 * (c ** 2 - s) * np.exp(s)
    return phi_star, tm.make_field(grid, np.log(det_target))


def solve_quietly(F, g, cfg):
    # a forcing such as the manufactured log det(g~) is not band-limited, so the
    # solver warns about it; every other warning still fails the test
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="F carries significant spectral content",
                                category=RuntimeWarning)
        return tm.continuity_solve(F, g, cfg)


@pytest.fixture(scope="session")
def manufactured_solve():
    """The manufactured solve on Grid(n, N), run once per session for each (n, N).

    get(n, N) returns g, F, the result, its sup error against the manufactured
    potential, the elapsed seconds and the number of apply_B calls.
    """
    cases: dict = {}

    def get(n: int, N: int) -> SimpleNamespace:
        if (n, N) not in cases:
            grid = tm.Grid(n=n, N=N)
            g = tm.flat_metric(grid)
            phi_star = (tm.manufactured_potential_n1(grid) if n == 1
                        else tm.manufactured_potential_n2(grid))
            F = tm.manufactured_forcing(g, phi_star)
            with pytest.MonkeyPatch.context() as mp:
                calls = count_calls(mp, _LinearizedOperator, "apply_B")
                start = time.perf_counter()
                result = solve_quietly(F, g, tm.SolverConfig(n=n, N=N))
                elapsed = time.perf_counter() - start
            cases[n, N] = SimpleNamespace(
                g=g, F=F, result=result,
                error=float(np.max(np.abs(result.phi.values - phi_star.values))),
                elapsed_s=elapsed, apply_B_calls=len(calls))
        return cases[n, N]

    return get


@pytest.fixture(scope="session")
def poisson_solve():
    """(g, F, result) of the default Poisson n=1 N=64 solve, run once per session."""
    grid = tm.Grid(n=1, N=64)
    g = tm.flat_metric(grid)
    F = tm.poisson_forcing_n1(grid)
    return g, F, tm.continuity_solve(F, g, tm.SolverConfig(n=1, N=64))


@pytest.fixture(scope="session")
def ricci_flat_solve():
    """(g, result) of the Ricci-flat n=2 N=16 solve, run once per session."""
    grid = tm.Grid(n=2, N=16)
    _, g, F = tm.ricci_flat_background_n2(grid)
    return g, solve_quietly(F, g, tm.SolverConfig(n=2, N=16))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(params=[1, 2], ids=["n1", "n2"])
def grid(request):
    return tm.Grid(n=request.param, N=16 if request.param == 2 else 32)


@pytest.fixture
def random_real_field(grid, rng):
    return tm.random_band_limited(grid, rng, kmax=3, real=True)


@pytest.fixture
def small_potential(grid, rng):
    """Mean-zero potential small enough that flat + ddbar phi stays positive."""
    f = tm.random_band_limited(grid, rng, kmax=2, real=True, amplitude=1.0)
    f = tm.mean_zero_project(f)
    gt = tm.metric_from_potential(tm.flat_metric(grid), f)
    lo = tm.positivity_check(gt)
    return (0.3 / (1.0 - lo)) * f if lo < 0.7 else f
