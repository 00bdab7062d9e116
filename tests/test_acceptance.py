"""Acceptance gate: one test per criterion, each reporting a single
pass/fail line in the terminal summary.
"""

import math

import numpy as np
import pytest

import torusma as tm
from conftest import record_acceptance, solve_quietly


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


def test_criterion_3_manufactured_n1(manufactured_solve):
    case = manufactured_solve(1, 64)
    result, err, elapsed = case.result, case.error, case.elapsed_s
    eig_min_path = min(s.eig_min for s in result.trace)
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
    case = manufactured_solve(2, 16)
    result, err, elapsed = case.result, case.error, case.elapsed_s
    eig_min_path = min(s.eig_min for s in result.trace)
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
    res_b = solve_quietly(F, g, tm.SolverConfig(n=1, N=64, t_step_initial=0.05,
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
    if case == "poisson":
        g, F, result = poisson_solve
    else:
        solved = manufactured_solve(n, N)
        g, F, result = solved.g, solved.F, solved.result
    resid = tm.ricci_form(result.metric).mats - tm.ricci_form(g).mats + tm.hermitian_hessian(F).mats
    sup = float(np.max(np.abs(resid)))
    ok = sup <= tol
    record_acceptance(7, f"Ricci prescription {case} n={n} <= {tol:.0e}",
                      ok, f"sup {sup:.2e}")
    assert ok


def test_criterion_8_ricci_flat_recovery(ricci_flat_solve):
    g, result = ricci_flat_solve
    dev = float(np.max(np.abs(result.metric.mats - tm.flat_metric(g.grid).mats)))
    ok = dev <= 1e-7
    record_acceptance(8, "Ricci-flat recovery n=2 N=16 <= 1e-7", ok, f"sup {dev:.2e}")
    assert ok


def _taylor_remainder(h):
    grid = tm.Grid(n=2, N=16)
    g = tm.flat_metric(grid)
    phi = tm.verification._admissible_potential(grid, seed=31, perturbation=0.3)
    psi = tm.verification._admissible_potential(grid, seed=32, perturbation=0.3)
    F = tm.make_field(grid, np.zeros(grid.shape))
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
    result = solve_quietly(F, tm.flat_metric(grid), tm.SolverConfig(n=1, N=N))
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
    artifacts_ok = True
    for name, obj, write, read, values in [
        ("phi", result.phi, tm.write_field, tm.read_field,
         lambda o: o.values),
        ("F", F, tm.write_field, tm.read_field, lambda o: o.values),
        ("metric", result.metric, tm.write_metric, tm.read_metric, lambda o: o.mats),
    ]:
        path = tmp_path / name
        write(path, obj)
        back = read(path)
        artifacts_ok &= bool(np.array_equal(values(back), values(obj)))
    trace_path = tmp_path / "trace.json"
    tm.write_trace(trace_path, result.trace)
    artifacts_ok &= tm.read_trace(trace_path) == result.trace
    record_acceptance(11, "CMAF/CMMF/trace round-trip bit-exact", artifacts_ok,
                      "all artifacts identical" if artifacts_ok else "mismatch")
    assert artifacts_ok
