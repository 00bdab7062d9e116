"""Workload definitions: inputs from a seed, the CLI call, and its correctness gate.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses any other ``torusma``, so the benchmark always measures the source
tree it ships with.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if not (SRC / "torusma" / "__init__.py").is_file():
    raise ImportError(f"torusma sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import torusma  # noqa: E402
from torusma.fileio import read_field, write_field  # noqa: E402
from torusma.geometry import flat_metric  # noqa: E402
from torusma.grid import Grid, PeriodicScalarField, make_field  # noqa: E402
from torusma.solver import SolverConfig  # noqa: E402
from torusma.verification import (  # noqa: E402
    THRESHOLDS,
    manufactured_forcing,
    manufactured_potential_n2,
    poisson_forcing_n1,
    poisson_oracle_n1,
)

if Path(torusma.__file__).resolve().parent != SRC / "torusma":
    raise ImportError(f"imported torusma from {torusma.__file__}, not from {SRC}")

WORKLOADS = ("solve-n2-manufactured", "solve-n1-poisson", "verify-identities")

# (n, N, threshold key of the error gate) for the solve workloads
SOLVE_PROBLEMS = {
    "solve-n2-manufactured": (2, 16, "manufactured.n2_error"),
    "solve-n1-poisson": (1, 512, "poisson_n1.oracle_match"),
}


def problem_grid(workload: str) -> Grid:
    n, N, _ = SOLVE_PROBLEMS[workload]
    return Grid(n=n, N=N)


def grid_shift(grid: Grid, seed: int) -> tuple[int, ...]:
    """Integer translation, in grid points per axis, chosen by the seed.

    Translating the data by whole grid points changes every input sample but
    leaves the mathematics, and so the iteration counts, unchanged.
    """
    rng = np.random.default_rng(abs(seed))
    return tuple(int(s) for s in rng.integers(0, grid.N, size=grid.num_axes))


def _translate(f: PeriodicScalarField, shift: tuple[int, ...]) -> PeriodicScalarField:
    axes = tuple(range(f.grid.num_axes))
    return make_field(f.grid, np.roll(f.values.real, shift, axis=axes))


def solve_data(workload: str, seed: int):
    """(grid, F, reference solution) for a solve workload on the translated grid."""
    grid = problem_grid(workload)
    shift = grid_shift(grid, seed)
    if workload == "solve-n2-manufactured":
        phi_star = _translate(manufactured_potential_n2(grid), shift)
        return grid, manufactured_forcing(flat_metric(grid), phi_star), phi_star
    F = _translate(poisson_forcing_n1(grid), shift)
    return grid, F, None


def reference(workload: str, seed: int):
    """The solution a solve must reproduce: phi* or the Poisson oracle."""
    grid, F, phi_star = solve_data(workload, seed)
    if phi_star is not None:
        return phi_star
    return poisson_oracle_n1(F, flat_metric(grid))


def prepare(workload: str, seed: int, workdir: Path) -> None:
    """Write the inputs an operation reads: F as a CMAF snapshot and a config."""
    if workload not in SOLVE_PROBLEMS:
        return  # the identities suite fixes its own data
    grid, F, _ = solve_data(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    f_path = workdir / "F.cmaf"
    write_field(f_path, F)
    config = {"n": grid.n, "N": grid.N, "F": {"path": str(f_path)}}
    (workdir / "config.json").write_text(json.dumps(config))


def operation_argv(workload: str, workdir: Path, outdir: Path) -> list[str]:
    if workload in SOLVE_PROBLEMS:
        return ["solve", "--config", str(workdir / "config.json"), "--out", str(outdir)]
    return ["verify", "--suite", "identities", "--out", str(outdir / "report.json")]


def check(workload: str, exit_code: int, outdir: Path, ref) -> tuple[bool, dict]:
    """Correctness gate for one operation, with its tolerances from THRESHOLDS.

    Returns (passed, readouts); readouts feed the per-layer accuracy metrics.
    """
    if exit_code != 0:
        return False, {"reason": f"exit code {exit_code}"}
    if workload not in SOLVE_PROBLEMS:
        report = json.loads((outdir / "report.json").read_text())
        checks = report["checks"]
        readouts = {
            "suite_s": float(report["elapsed_s"]),
            "worst_ratio": max((c["value"] / c["threshold"] for c in checks),
                               default=float("inf")),
        }
        passed = report["suite"] == "identities" and bool(checks) and all(
            c["passed"] for c in checks)
        return passed, readouts

    n, N, key = SOLVE_PROBLEMS[workload]
    newton_tol = SolverConfig(n=n, N=N).newton_tol
    records = json.loads((outdir / "trace.json").read_text())
    phi = read_field(outdir / "phi.cmaf")
    residual_max = max(r["residual_sup"] for r in records) if records else float("inf")
    error = float(np.max(np.abs(phi.values.real - ref.values.real)))
    readouts = {
        "residual_max": residual_max,
        "error_sup": error,
        "worst_ratio": max(error / THRESHOLDS[key], residual_max / newton_tol),
    }
    passed = (bool(records) and records[-1]["t"] == 1.0 and phi.grid == ref.grid
              and residual_max <= newton_tol and error <= THRESHOLDS[key])
    return passed, readouts
