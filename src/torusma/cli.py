"""Command-line front end: ``torusma solve|verify|report``.

Exit codes: 0 success, 1 a verification check failed, 2 continuity-step
underflow, 64 usage or malformed configuration, 66 missing or corrupt trace
file, 74 file I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .expressions import ExpressionError, parse_expression
from .fileio import (
    TRACE_FIELDS,
    SnapshotFormatError,
    read_field,
    read_trace,
    sha256_file,
    write_field,
    write_metric,
    write_trace,
)
from .geometry import flat_metric, metric_from_potential
from .grid import Grid, mean_zero_project
from .solver import NonPositiveMetricError, SolverConfig, continuity_solve
from .verification import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_UNDERFLOW = 2
EXIT_USAGE = 64
EXIT_NO_TRACE = 66
EXIT_IO = 74


class ConfigError(ValueError):
    pass


# a config sets the grid, the problem and any SolverConfig setting, nothing else
_SETTING_KEYS = tuple(f.name for f in dataclasses.fields(SolverConfig) if f.name not in ("n", "N"))
_CONFIG_KEYS = ("n", "N", "F", "background") + _SETTING_KEYS


def _only_keys(spec: dict, accepted: tuple[str, ...], what: str) -> None:
    """Reject a config object that holds a key outside accepted, naming both."""
    unknown = sorted(set(spec) - set(accepted))
    if unknown:
        raise ConfigError(f"unknown {what} keys {', '.join(map(repr, unknown))}; "
                          f"accepted: {', '.join(accepted)}")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"config file is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _only_keys(cfg, _CONFIG_KEYS, "config")
    for key in ("n", "N"):
        value = cfg.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"config requires an integer {key!r}")
    return cfg


# traced peak of `torusma solve` on the manufactured n=2 N=16 problem, in
# float64 fields of the grid: 39.4 (tracemalloc), 33.3 of them in the library solve
_SOLVE_PEAK_FIELDS = 40


def _check_solve_memory(grid: Grid) -> None:
    """Reject a grid whose estimated solve peak exceeds the physical memory, where
    that can be read (Windows has no os.sysconf)."""
    if not hasattr(os, "sysconf") or "SC_PHYS_PAGES" not in os.sysconf_names:
        return
    need = _SOLVE_PEAK_FIELDS * 8 * grid.num_points
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"grid n={grid.n} N={grid.N} needs about {need / 2**30:.3g} GiB to solve, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


def _solver_config(cfg: dict) -> SolverConfig:
    settings = {k: cfg[k] for k in _SETTING_KEYS if k in cfg}
    try:
        return SolverConfig(n=cfg["n"], N=cfg["N"], **settings)
    except ValueError as e:
        raise ConfigError(f"bad solver settings: {e}") from e


def _scalar_from_spec(spec, grid: Grid, what: str, inputs: dict):
    """Build a finite scalar field from an expression string or a {"path": ...} ref."""
    if isinstance(spec, str):
        try:
            expr = parse_expression(spec)
        except ExpressionError as e:
            raise ConfigError(f"bad {what} expression: {e}") from e
        if not expr.band_limited(grid):
            raise ConfigError(
                f"{what} expression has harmonics above N/4 for N={grid.N}"
            )
        # an overflow is reported below as a non-finite value, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            field = expr.evaluate(grid)
    elif isinstance(spec, dict) and isinstance(spec.get("path"), str):
        _only_keys(spec, ("path",), what)
        path = spec["path"]
        field = read_field(path)  # may raise OSError / SnapshotFormatError
        if field.grid != grid:
            raise ConfigError(
                f"{what} snapshot grid (n={field.grid.n}, N={field.grid.N}) "
                f"does not match the config grid"
            )
        if not field.is_real:
            raise ConfigError(f"{what} snapshot is complex; a real field is required")
        inputs[what] = {"path": path, "sha256": sha256_file(path)}
    else:
        raise ConfigError(f"{what} must be an expression string or {{\"path\": ...}}")
    if not np.all(np.isfinite(field.values)):
        raise ConfigError(f"{what} has non-finite (inf or NaN) values")
    return field


def _background(cfg: dict, grid: Grid, inputs: dict):
    spec = cfg.get("background", "flat")
    if spec == "flat":
        return flat_metric(grid)
    if isinstance(spec, dict) and "potential" in spec:
        _only_keys(spec, ("potential",), "background")
        psi = _scalar_from_spec(spec["potential"], grid, "background potential", inputs)
        psi = mean_zero_project(psi)
        return metric_from_potential(flat_metric(grid), psi)
    raise ConfigError('background must be "flat" or {"potential": ...}')


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    try:
        grid = Grid(n=cfg["n"], N=cfg["N"])
    except ValueError as e:
        raise ConfigError(f"bad grid: {e}") from e
    solver_cfg = _solver_config(cfg)
    _check_solve_memory(grid)
    inputs: dict = {}
    g = _background(cfg, grid, inputs)
    F = _scalar_from_spec(cfg.get("F", "0"), grid, "F", inputs)

    start = time.perf_counter()
    try:
        result = continuity_solve(F, g, solver_cfg)
    except NonPositiveMetricError as e:  # a non-positive background or an unreachable floor
        raise ConfigError(str(e)) from e
    elapsed = time.perf_counter() - start

    # created only now, so a rejected config leaves no directory behind
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    phi_path = out / "phi.cmaf"
    metric_path = out / "metric.cmmf"
    trace_path = out / "trace.json"
    write_field(phi_path, result.phi)
    write_metric(metric_path, result.metric)
    write_trace(trace_path, result.trace)
    manifest = {
        "version": __version__,
        "config": cfg,
        "inputs": inputs,
        "outputs": {
            "phi": str(phi_path),
            "metric": str(metric_path),
            "trace": str(trace_path),
        },
        "converged": result.converged,
        "t_reached": result.t_reached,
        "grid_sizes": list(result.grid_sizes),
        "fell_back": result.fell_back,
        "message": result.message,
        "elapsed_s": elapsed,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    if not result.converged:
        print(f"solve failed: {result.message}", file=sys.stderr)
        return EXIT_UNDERFLOW
    final = result.trace[-1]
    print(
        f"solved n={grid.n} N={grid.N} in {elapsed:.2f}s; "
        f"final residual {final.residual_sup:.3e}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = []
    for name in names:
        report = run_suite(name)
        reports.append(report)
        for c in report.checks:
            status = "pass" if c.passed else "FAIL"
            print(f"{c.name:<32} {c.value:12.3e}  <= {c.threshold:8.1e}  {status}")
        print(f"suite {report.suite}: {'pass' if report.passed else 'FAIL'} "
              f"({report.elapsed_s:.2f}s)")
    if args.out:
        payload = [dataclasses.asdict(r) for r in reports] if args.suite == "all" \
            else dataclasses.asdict(reports[0])
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    return EXIT_OK if all(r.passed for r in reports) else 1


def cmd_report(args) -> int:
    try:
        trace = read_trace(args.trace)
    except FileNotFoundError:
        print(f"error: trace file not found: {args.trace}", file=sys.stderr)
        return EXIT_NO_TRACE
    except (SnapshotFormatError, ValueError) as e:
        print(f"error: corrupt trace file: {e}", file=sys.stderr)
        return EXIT_NO_TRACE
    records = [dataclasses.asdict(s) for s in trace]
    widths = {f: max(len(f), 12) for f in TRACE_FIELDS}
    print("  ".join(f"{f:>{widths[f]}}" for f in TRACE_FIELDS))
    for rec in records:
        cells = []
        for f in TRACE_FIELDS:
            v = rec[f]
            cells.append(f"{v:>{widths[f]}d}" if isinstance(v, int)
                         else f"{v:>{widths[f]}.5e}")
        print("  ".join(cells))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(TRACE_FIELDS))
            writer.writeheader()
            writer.writerows(records)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusma",
        description="Torus complex Monge-Ampere solver and verification suites",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the continuity-method solver")
    p_solve.add_argument("--config", required=True, help="JSON problem description")
    p_solve.add_argument("--out", required=True, help="output directory")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--out", help="write the suite report as JSON")
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="render a solve trace as a table")
    p_report.add_argument("trace", help="path to a trace JSON file")
    p_report.add_argument("--csv", help="also write the table as CSV")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; remap to the documented code
        if e.code not in (0, None):
            return EXIT_USAGE
        raise
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SnapshotFormatError as e:
        print(f"error: corrupt snapshot: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(f"error: I/O failure: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
