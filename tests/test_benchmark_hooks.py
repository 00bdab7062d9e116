"""The benchmark's hooks into torusma still resolve.

perfbench/tracing.py wraps torusma functions by dotted path and
perfbench/problems.py imports torusma names; a rename in src/ would
silently zero a per-layer counter or break the benchmark.  Both files are
read from outside, without importing problems.py (which rearranges
sys.path on import).  The tracer's reading of a solver result is pinned
to what the solver returns.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

import torusma as tm
from torusma import solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# deleted from torusma.grid with the per-pair Hessian symbols; the benchmark
# still wraps it, and its grid.symbol_builds reads 0 until the benchmark changes
KNOWN_STALE = {"torusma.grid.mixed_hessian_symbol"}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    names = [(m, p) for m, p, _ in tracing.TARGETS if f"{m}.{p}" not in KNOWN_STALE]
    assert any(m.startswith("torusma") for m, _ in names)
    missing = [f"{m}.{p}" for m, p in names if tracing._resolve(m, p) is None]
    assert not missing, missing


def _torusma_imports(source):
    """(module, name) of every ``from torusma... import name`` in source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("torusma"):
            for alias in node.names:
                yield node.module, alias.name


def test_problem_definitions_import_only_existing_names():
    names = list(_torusma_imports((PERFBENCH / "problems.py").read_text()))
    assert names, "perfbench/problems.py imports no torusma name"
    missing = [f"{m}.{n}" for m, n in names if not hasattr(importlib.import_module(m), n)]
    assert not missing, missing


def test_newton_outcome_reads_the_solver_contract(monkeypatch):
    # tracing._newton_outcome counts a rejected t-step by _newton_at_t's None;
    # a rejection returned as anything else would count as accepted
    tracing = _load_tracing()
    grid = tm.Grid(n=1, N=8)
    F = tm.make_field(grid, 0.1 * np.sin(2 * np.pi * grid.coordinate(0)))
    cfg = tm.SolverConfig(n=1, N=8)
    start = solver._zero_iterate(tm.flat_metric(grid))
    accepted = solver._newton_at_t(start, F, 0.5, cfg)
    it, iters, residual_sup = accepted
    assert isinstance(it, solver.MetricIterate) and it.g.grid == grid
    assert type(iters) is int and iters >= 1 and 0.0 <= residual_sup <= cfg.newton_tol
    monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 0)
    rejected = solver._newton_at_t(start, F, 0.5, cfg)
    assert rejected is None
    assert [tracing._newton_outcome((), {}, r) for r in (accepted, rejected)] == [
        "accepted", "rejected"]
