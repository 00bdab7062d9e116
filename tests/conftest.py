import warnings

import numpy as np
import pytest

import torusma as tm

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


@pytest.fixture(scope="session")
def ricci_flat_solve():
    """(g, result) of the Ricci-flat n=2 N=16 solve, run once per session."""
    grid = tm.Grid(n=2, N=16)
    _, g, F = tm.ricci_flat_background_n2(grid)
    # F = -log det(g) is not band-limited, so the solver warns about it
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="F carries significant spectral content",
                                category=RuntimeWarning)
        return g, tm.continuity_solve(F, g, tm.SolverConfig(n=2, N=16))


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
