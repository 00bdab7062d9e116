import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

import torusma as tm


class TestThresholds:
    def test_every_check_name_has_a_threshold(self, suite_report):
        # the solver suites are checked in TestSolverSuites
        for name in ("identities", "geometry", "poisson_n1", "uniqueness"):
            report = suite_report(name)
            for check in report.checks:
                assert check.name in tm.THRESHOLDS
                assert check.threshold == tm.THRESHOLDS[check.name]

    def test_thresholds_are_positive(self):
        assert all(v > 0 for v in tm.THRESHOLDS.values())


class TestRunSuite:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            tm.run_suite("nonsense")

    def test_report_is_json_serializable(self):
        report = tm.run_suite("poisson_n1")
        payload = json.dumps(dataclasses.asdict(report))
        back = json.loads(payload)
        assert back["suite"] == "poisson_n1"
        assert back["passed"] is True

    def test_overall_pass_is_conjunction(self, suite_report):
        report = suite_report("geometry")
        assert report.passed == all(c.passed for c in report.checks)

    def test_d_squared_is_the_max_of_its_parts(self, suite_report):
        # d^2 of a (p,q)-form has only the del^2, delbar^2 and anticommutator parts
        values = {c.name: c.value for c in suite_report("identities").checks}
        assert values["identities.d_squared"] == max(
            values[f"identities.{k}"] for k in ("del_squared", "delbar_squared", "anticommutator"))

    @pytest.mark.parametrize("name", ["geometry", "uniqueness", "poisson_n1"])
    def test_cheap_suites_pass(self, name, suite_report):
        assert suite_report(name).passed


class TestSolverSuites:
    """The manufactured and ricci_flat suites on the session's solves (criteria 3, 4, 8)."""

    @pytest.fixture
    def replayed(self, monkeypatch, manufactured_solve, ricci_flat_solve):
        # a suite solve whose inputs equal a session solve's, bit for bit, gets
        # that solve's result instead of running it again
        g, result = ricci_flat_solve
        cases = [manufactured_solve(1, 64), manufactured_solve(2, 16),
                 SimpleNamespace(g=g, F=tm.ricci_flat_background_n2(g.grid)[2], result=result)]

        def replay(F, g, cfg):
            assert cfg == tm.SolverConfig(n=g.grid.n, N=g.grid.N)
            for case in cases:
                if np.array_equal(case.g.mats, g.mats) and np.array_equal(case.F.values, F.values):
                    return case.result
            raise AssertionError("the suite solves a problem no session fixture solved")

        monkeypatch.setattr(tm.verification, "continuity_solve", replay)

    def test_manufactured_matches_criteria_3_and_4(self, replayed, manufactured_solve):
        report = tm.run_suite("manufactured")
        assert report.passed
        assert [(c.name, c.value) for c in report.checks] == [
            ("manufactured.n1_error", manufactured_solve(1, 64).error),
            ("manufactured.n2_error", manufactured_solve(2, 16).error)]

    def test_ricci_flat_matches_criterion_8(self, replayed, ricci_flat_solve):
        g, result = ricci_flat_solve
        dev = float(np.max(np.abs(result.metric.mats - tm.flat_metric(g.grid).mats)))
        report = tm.run_suite("ricci_flat")
        assert report.passed
        assert [(c.name, c.value) for c in report.checks] == [("ricci_flat.metric_deviation", dev)]


class TestPoissonOracle:
    def test_rejects_n2(self):
        grid = tm.Grid(n=2, N=16)
        with pytest.raises(ValueError):
            tm.poisson_oracle_n1(tm.make_field(grid, np.zeros(grid.shape)), tm.flat_metric(grid))

    def test_rejects_non_flat_background(self):
        grid = tm.Grid(n=1, N=32)
        phi = tm.make_field(grid, 0.01 * np.cos(2 * np.pi * grid.coordinate(0)))
        g = tm.metric_from_potential(tm.flat_metric(grid), phi)
        with pytest.raises(ValueError):
            tm.poisson_oracle_n1(tm.make_field(grid, np.zeros(grid.shape)), g)

    def test_zero_forcing_gives_zero(self):
        grid = tm.Grid(n=1, N=32)
        phi = tm.poisson_oracle_n1(tm.make_field(grid, np.zeros(grid.shape)), tm.flat_metric(grid))
        assert phi.sup_norm() < 1e-14

    def test_solves_the_discrete_equation(self):
        grid = tm.Grid(n=1, N=64)
        g = tm.flat_metric(grid)
        F = tm.poisson_forcing_n1(grid)
        phi = tm.poisson_oracle_n1(F, g)
        r = tm.ma_residual(tm.metric_iterate(g, phi), F, 1.0)
        assert r.sup_norm() <= 1e-12


class TestManufacturedBuilders:
    def test_forcing_makes_the_potential_exact(self):
        grid = tm.Grid(n=1, N=64)
        g = tm.flat_metric(grid)
        phi_star = tm.manufactured_potential_n1(grid)
        F = tm.manufactured_forcing(g, phi_star)
        r = tm.ma_residual(tm.metric_iterate(g, phi_star), F, 1.0)
        assert r.sup_norm() <= 1e-12

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)], ids=["n1", "n2"])
    def test_default_potential_keeps_positivity_margin(self, n, N):
        # acceptance criteria 3 and 4 require the path eig_min above 0.4; the
        # exact target metric's minimum eigenvalue is 1 - 2 pi^2 A
        grid = tm.Grid(n=n, N=N)
        phi_star = (tm.manufactured_potential_n1(grid) if n == 1
                    else tm.manufactured_potential_n2(grid))
        gt = tm.metric_from_potential(tm.flat_metric(grid), phi_star)
        min_eig = tm.positivity_check(gt)
        assert min_eig > 0.4, (
            f"default manufactured n={n} potential leaves the target metric "
            f"min eigenvalue {min_eig:.4f}, below the 0.4 margin"
        )

    def test_ricci_flat_background_flattens(self):
        grid = tm.Grid(n=2, N=16)
        psi, g, F = tm.ricci_flat_background_n2(grid)
        # the exact solution phi = -psi returns the flat metric
        gt = tm.metric_from_potential(g, -1.0 * psi)
        assert np.max(np.abs(gt.mats - tm.flat_metric(grid).mats)) < 1e-12
