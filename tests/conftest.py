import time
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


def axis_derivative(u, axis, N):
    """First derivative along one axis by a complex 1-D transform, Nyquist mode zeroed.

    The per-axis reference the spectral and forms tests compare against; it
    does not go through torusma.
    """
    k = np.rint(np.fft.fftfreq(N, d=1.0 / N)).astype(int)
    sym = np.where(np.abs(k) == N // 2, 0.0, 2j * np.pi * k)
    shape = [1] * u.ndim
    shape[axis] = N
    return np.fft.ifft(np.fft.fft(u, axis=axis) * sym.reshape(shape), axis=axis)


@pytest.fixture(scope="session")
def suite_report():
    """run_suite(name), run once per session and shared by every test that reads it.

    Timing gates read the report's own ``elapsed_s``, which does not depend
    on which test ran the suite first.
    """
    reports: dict[str, tm.SuiteReport] = {}

    def get(name: str) -> tm.SuiteReport:
        if name not in reports:
            reports[name] = tm.run_suite(name)
        return reports[name]

    return get


def count_apply_B(monkeypatch):
    """Count _LinearizedOperator.apply_B calls from here on; returns the list of calls."""
    calls = []
    apply_B = _LinearizedOperator.apply_B

    def counting(self, spec):
        calls.append(1)
        return apply_B(self, spec)

    monkeypatch.setattr(_LinearizedOperator, "apply_B", counting)
    return calls


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
                calls = count_apply_B(mp)
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
