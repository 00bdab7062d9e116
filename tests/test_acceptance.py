"""Acceptance gate: one test per criterion, each reporting a single
pass/fail line in the terminal summary.
"""

import math
import time
import warnings

import numpy as np
import pytest

import torusma as tm
from conftest import record_acceptance


def _solve(F, g, cfg):
    # the manufactured forcing log det(g~) is not band-limited, so the solver
    # warns about it; every other warning still fails the test
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="F carries significant spectral content",
                                category=RuntimeWarning)
        return tm.continuity_solve(F, g, cfg)


def test_criterion_1_identity_suite(suite_report):
    report = suite_report("identities")
    elapsed = report.elapsed_s
    ok = report.passed and elapsed < 10.0
    worst = max(c.value for c in report.checks)
    record_acceptance(1, "identity suite (n=1,2, N=32) <= 1e-12, < 10 s",
                      ok, f"worst {worst:.2e}, {elapsed:.1f}s")
    assert report.passed, [c for c in report.checks if not c.passed]
    assert elapsed < 10.0


def test_criterion_2_geometry_suite(suite_report):
    report = suite_report("geometry")
    elapsed = report.elapsed_s
    ok = report.passed and elapsed < 30.0
    worst = max(c.value for c in report.checks)
    record_acceptance(2, "geometry suite (trace/Ricci/volume/Chern), < 30 s",
                      ok, f"worst {worst:.2e}, {elapsed:.1f}s")
    assert report.passed, [c for c in report.checks if not c.passed]
    assert elapsed < 30.0


def _manufactured_case(n, N):
    grid = tm.Grid(n=n, N=N)
    g = tm.flat_metric(grid)
    phi_star = (tm.manufactured_potential_n1(grid) if n == 1
                else tm.manufactured_potential_n2(grid))
    F = tm.manufactured_forcing(g, phi_star)
    start = time.perf_counter()
    result = _solve(F, g, tm.SolverConfig(n=n, N=N))
    elapsed = time.perf_counter() - start
    err = float(np.max(np.abs(result.phi.values.real - phi_star.values.real)))
    return result, err, elapsed


@pytest.fixture(scope="module")
def manufactured_solve():
    """_manufactured_case(n, N), solved once per module for criteria 3, 4 and 7."""
    cases = {}

    def get(n, N):
        if (n, N) not in cases:
            cases[(n, N)] = _manufactured_case(n, N)
        return cases[(n, N)]

    return get


def test_criterion_3_manufactured_n1(manufactured_solve):
    result, err, elapsed = manufactured_solve(1, 64)
    eig_min_path = min(s.eig_min for s in result.trace.steps)
    ok = (err <= 1e-8 and result.t_reached == 1.0
          and eig_min_path > 0.4 and elapsed < 60.0)
    amplitude = tm.verification.MANUFACTURED_AMPLITUDE
    record_acceptance(
        3, "manufactured n=1 N=64: error <= 1e-8, eig_min > 0.4, < 60 s", ok,
        f"error {err:.2e}, path eig_min {eig_min_path:.4f} "
        f"(exact solution has min eig 1 - 2*pi^2*{amplitude:g} = "
        f"{1 - 2 * math.pi ** 2 * amplitude:.4f}), {elapsed:.1f}s",
    )
    assert err <= 1e-8
    assert result.t_reached == 1.0
    assert elapsed < 60.0
    assert eig_min_path > 0.4


def test_criterion_4_manufactured_n2(manufactured_solve):
    result, err, elapsed = manufactured_solve(2, 16)
    eig_min_path = min(s.eig_min for s in result.trace.steps)
    ok = (err <= 1e-6 and result.t_reached == 1.0
          and eig_min_path > 0.4 and elapsed < 600.0)
    record_acceptance(
        4, "manufactured n=2 N=16: error <= 1e-6, eig_min > 0.4, < 10 min",
        ok, f"error {err:.2e}, path eig_min {eig_min_path:.4f}, {elapsed:.1f}s",
    )
    assert err <= 1e-6
    assert result.t_reached == 1.0
    assert eig_min_path > 0.4
    assert elapsed < 600.0


@pytest.fixture(scope="module")
def poisson_solve():
    """(g, F, result) of the default Poisson n=1 N=64 solve, shared by criteria 5, 6, 7, 11."""
    grid = tm.Grid(n=1, N=64)
    g = tm.flat_metric(grid)
    F = tm.poisson_forcing_n1(grid)
    return g, F, _solve(F, g, tm.SolverConfig(n=1, N=64))


def test_criterion_5_poisson_oracle_match(poisson_solve):
    g, F, result = poisson_solve
    oracle = tm.poisson_oracle_n1(F, g)
    sup = float(np.max(np.abs(oracle.values.real - result.phi.values.real)))
    ok = sup <= 1e-8
    record_acceptance(5, "Poisson oracle match n=1 N=64 <= 1e-8", ok, f"sup {sup:.2e}")
    assert ok


def test_criterion_6_uniqueness(poisson_solve):
    # res_a is the default policy: t_step_initial=0.1, damping_eig_floor=1e-8
    g, F, res_a = poisson_solve
    res_b = _solve(F, g, tm.SolverConfig(n=1, N=64, t_step_initial=0.05,
                                         damping_eig_floor=1e-6))
    sup = float(np.max(np.abs(res_a.phi.values.real - res_b.phi.values.real)))
    functional = abs(tm.uniqueness_functional(res_a.phi, res_b.phi, g))
    ok = sup <= 1e-8 and functional <= 1e-9
    record_acceptance(6, "uniqueness across solver policies", ok,
                      f"sup {sup:.2e}, functional {functional:.2e}")
    assert sup <= 1e-8
    assert functional <= 1e-9


@pytest.mark.parametrize("case,n,N,tol", [
    ("poisson", 1, 64, 1e-8),
    ("manufactured", 1, 64, 1e-8),
    ("manufactured", 2, 16, 1e-6),
], ids=["poisson-n1", "manufactured-n1", "manufactured-n2"])
def test_criterion_7_ricci_prescription(case, n, N, tol, manufactured_solve, poisson_solve):
    grid = tm.Grid(n=n, N=N)
    g = tm.flat_metric(grid)
    if case == "poisson":
        g, F, result = poisson_solve
    else:
        phi_star = (tm.manufactured_potential_n1(grid) if n == 1
                    else tm.manufactured_potential_n2(grid))
        F = tm.manufactured_forcing(g, phi_star)
        result, _, _ = manufactured_solve(n, N)
    gt = tm.metric_from_potential(g, result.phi)
    resid = tm.ricci_form(gt).mats - tm.ricci_form(g).mats + tm.hermitian_hessian(F).mats
    sup = float(np.max(np.abs(resid)))
    ok = sup <= tol
    record_acceptance(7, f"Ricci prescription {case} n={n} <= {tol:.0e}",
                      ok, f"sup {sup:.2e}")
    assert ok


def test_criterion_8_ricci_flat_recovery(ricci_flat_solve):
    g, result = ricci_flat_solve
    gt = tm.metric_from_potential(g, result.phi)
    dev = float(np.max(np.abs(gt.mats - tm.flat_metric(g.grid).mats)))
    ok = dev <= 1e-7
    record_acceptance(8, "Ricci-flat recovery n=2 N=16 <= 1e-7", ok, f"sup {dev:.2e}")
    assert ok


def _taylor_remainder(h):
    grid = tm.Grid(n=2, N=16)
    g = tm.flat_metric(grid)
    phi = tm.verification._admissible_potential(grid, seed=31, perturbation=0.3)
    psi = tm.verification._admissible_potential(grid, seed=32, perturbation=0.3)
    F = tm.zero_field(grid)
    lin = tm.linearized_apply(psi, tm.metric_iterate(g, phi))
    rem = (tm.ma_residual(tm.metric_iterate(g, phi + h * psi), F, 1.0)
           - tm.ma_residual(tm.metric_iterate(g, phi), F, 1.0) - h * lin)
    return rem.sup_norm()


def test_criterion_9_linearization_order():
    # first-order Taylor remainder of the residual against linearized_apply;
    # the determinant is quadratic in the potential for n = 2, so the
    # remainder decays at order exactly 2
    e3 = _taylor_remainder(1e-3)
    e4 = _taylor_remainder(1e-4)
    order = math.log10(e3 / e4)
    ok = order >= 1.9
    record_acceptance(9, "linearization O(h^2), observed order >= 1.9", ok,
                      f"order {order:.3f} (remainders {e3:.2e}, {e4:.2e})")
    assert ok


def _analytic_manufactured_error(N):
    # phi* = a exp(sin(2 pi x1)) is analytic but not band-limited, so the
    # discretization error is genuinely resolution-dependent
    a = 0.02
    grid = tm.Grid(n=1, N=N)
    x = grid.coordinate(0)
    s = np.sin(2 * np.pi * x)
    c = np.cos(2 * np.pi * x)
    phi_star = tm.mean_zero_project(tm.make_field(grid, a * np.exp(s)))
    det_target = 1.0 + a * np.pi ** 2 * (c ** 2 - s) * np.exp(s)
    F = tm.make_field(grid, np.log(det_target))
    result = _solve(F, tm.flat_metric(grid), tm.SolverConfig(n=1, N=N))
    return float(np.max(np.abs(result.phi.values.real - phi_star.values.real)))


def test_criterion_10_spectral_convergence():
    e16 = _analytic_manufactured_error(16)
    e32 = _analytic_manufactured_error(32)
    ratio = e16 / e32
    ok = ratio >= 1e3
    record_acceptance(10, "spectral convergence N=16 -> 32 by >= 1e3", ok,
                      f"errors {e16:.2e} -> {e32:.2e}, ratio {ratio:.1e}")
    assert ok


def test_criterion_11_io_round_trip(tmp_path, poisson_solve):
    g, F, result = poisson_solve
    gt = tm.metric_from_potential(g, result.phi)
    artifacts_ok = True
    for name, obj, write, read, values in [
        ("phi", result.phi, tm.write_field, tm.read_field,
         lambda o: o.values),
        ("F", F, tm.write_field, tm.read_field, lambda o: o.values),
        ("metric", gt, tm.write_metric, tm.read_metric, lambda o: o.mats),
    ]:
        path = tmp_path / name
        write(path, obj)
        back = read(path)
        artifacts_ok &= bool(np.array_equal(values(back), values(obj)))
    trace_path = tmp_path / "trace.json"
    tm.write_trace(trace_path, result.trace)
    artifacts_ok &= (tm.read_trace(trace_path).to_json_records()
                     == result.trace.to_json_records())
    record_acceptance(11, "CMAF/CMMF/trace round-trip bit-exact", artifacts_ok,
                      "all artifacts identical" if artifacts_ok else "mismatch")
    assert artifacts_ok
