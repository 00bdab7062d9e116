"""Spans around calls into torusma, recorded from outside the program.

``instrument(tracer)`` replaces each target function with a wrapper that
records a span (name, start, end, parent) and restores the originals on exit.
Modules bind names at import (``from .geometry import hermitian_hessian``), so
every ``torusma`` module attribute that holds a target is rebound, not only
the defining module's.  Spans are kept in memory and written out at the end
of a run; per-layer metrics are derived from them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

# numpy.fft entry points; the 1-D ones are the per-axis transforms
FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
FFT_ND = ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn")


def _first_arg(args, kwargs, keyword):
    return args[0] if args else kwargs.get(keyword)


def _result_bytes(args, kwargs, result):
    """Computed bytes an FFT moves: its input array plus its output array."""
    return (getattr(_first_arg(args, kwargs, "a"), "nbytes", 0)
            + getattr(result, "nbytes", 0))


def _file_bytes(args, kwargs, result):
    """Size of the file a fileio call read or wrote."""
    path = _first_arg(args, kwargs, "path")
    return os.path.getsize(path) if path is not None and os.path.isfile(path) else 0


def _newton_outcome(args, kwargs, result):
    return "rejected" if result is None else "accepted"


# (module, attribute path, note) of each wrapped call; the span is named
# "<module suffix>.<attribute path>", e.g. "solver._LinearizedOperator.apply_B".
TARGETS = (
    ("torusma.grid", "make_field", None),
    ("torusma.grid", "mixed_hessian_symbol", None),
    ("torusma.geometry", "hermitian_hessian", None),
    ("torusma.geometry", "positivity_check", None),
    ("torusma.solver", "ma_residual", None),
    ("torusma.solver", "solve_linearized", None),
    ("torusma.solver", "_newton_at_t", _newton_outcome),
    ("torusma.solver", "_damped_update", None),
    ("torusma.solver", "_pcg", None),
    ("torusma.solver", "_LinearizedOperator.__init__", None),
    ("torusma.solver", "_LinearizedOperator.apply_B", None),
    ("torusma.solver", "_LinearizedOperator.precondition", None),
    ("torusma.solver", "yau_estimate_report", None),
    ("torusma.forms", "del_", None),
    ("torusma.forms", "delbar", None),
    ("torusma.verification", "run_suite", None),
    ("torusma.fileio", "write_field", _file_bytes),
    ("torusma.fileio", "write_metric", _file_bytes),
    ("torusma.fileio", "write_trace", _file_bytes),
    ("torusma.fileio", "read_field", _file_bytes),
    ("torusma.fileio", "read_metric", _file_bytes),
    ("torusma.fileio", "read_trace", _file_bytes),
    ("torusma.fileio", "sha256_file", _file_bytes),
    ("torusma.expressions", "parse_expression", None),
    ("torusma.expressions", "Expression.evaluate", None),
) + tuple(("numpy.fft", name, _result_bytes) for name in FFT_1D + FFT_ND)


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, note, error]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def root(self, name: str):
        """Open the span every other span of one operation nests under."""
        self.spans = []
        self._stack = []
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # outside an operation: the benchmark's own calls
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result
        return wrapper


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a dotted attribute path, or None."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every target present; yields the targets that could not be found."""
    patched = []  # (owner, attr, original)
    missing = []
    try:
        for module_name, path, note in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                missing.append(f"{module_name}.{path}")
                continue
            owner, attr = found
            original = getattr(owner, attr)
            name = f"{module_name.split('.')[-1]}.{path}"
            wrapper = tracer.wrap(name, original, note)
            owners = [owner] + [
                m for key, m in list(sys.modules.items())
                if m is not None and m is not owner
                and (key == "torusma" or key.startswith("torusma."))
            ]
            for obj in owners:
                for key, value in list(vars(obj).items()):
                    if value is original:
                        patched.append((obj, key, original))
                        setattr(obj, key, wrapper)
        yield missing
    finally:
        for obj, key, original in reversed(patched):
            setattr(obj, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one operation's spans

def _outermost(spans, names):
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    out = []
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(span)
    return out


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus what its children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    totals: dict[str, float] = {}
    for span, child in zip(spans, covered):
        totals[span[0]] = totals.get(span[0], 0.0) + (span[2] - span[1]) - child
    return totals


def layer_metrics(spans) -> dict[str, float]:
    """Counts and times per layer for one operation (spans[0] is its root)."""
    def count(*names, note=None, error=None):
        return sum(1 for s in spans if s[0] in names
                   and (note is None or s[4] == note)
                   and (error is None or s[5] == error))

    def seconds(*names):
        return sum(s[2] - s[1] for s in _outermost(spans, set(names)))

    def notes(*names):
        return sum(s[4] for s in spans if s[0] in names and s[4] is not None)

    fft_1d = tuple(f"fft.{n}" for n in FFT_1D)
    fft_all = fft_1d + tuple(f"fft.{n}" for n in FFT_ND)
    op = "solver._LinearizedOperator"
    writes = ("fileio.write_field", "fileio.write_metric", "fileio.write_trace")
    reads = ("fileio.read_field", "fileio.read_metric", "fileio.read_trace",
             "fileio.sha256_file")
    newton = count("solver.solve_linearized")
    pcg = count(f"{op}.apply_B")
    return {
        "grid.fft_calls": count(*fft_all),
        "grid.fft_axis_calls": count(*fft_1d),
        "grid.fft_s": seconds(*fft_all),
        "grid.fft_bytes": notes(*fft_all),
        "grid.make_field_calls": count("grid.make_field"),
        "grid.make_field_s": seconds("grid.make_field"),
        "grid.symbol_builds": count("grid.mixed_hessian_symbol"),
        "geometry.hessian_calls": count("geometry.hermitian_hessian"),
        "geometry.hessian_s": seconds("geometry.hermitian_hessian"),
        "geometry.positivity_checks": count("geometry.positivity_check"),
        "geometry.positivity_s": seconds("geometry.positivity_check"),
        "solver.t_steps_accepted": count("solver._newton_at_t", note="accepted"),
        "solver.t_steps_rejected": count("solver._newton_at_t", note="rejected"),
        "solver.newton_iters": newton,
        "solver.residual_evals": count("solver.ma_residual"),
        "solver.pcg_iters": pcg,
        "solver.pcg_iters_per_newton": pcg / newton if newton else 0.0,
        "solver.krylov_stalls": count("solver._pcg", error="KrylovConvergenceError"),
        "solver.residual_s": seconds("solver.ma_residual"),
        "solver.operator_build_s": seconds(f"{op}.__init__"),
        "solver.pcg_s": seconds("solver._pcg"),
        "solver.apply_B_s": seconds(f"{op}.apply_B"),
        "solver.precondition_s": seconds(f"{op}.precondition"),
        "solver.damping_s": seconds("solver._damped_update"),
        "solver.monitor_s": seconds("solver.yau_estimate_report"),
        "forms.d_calls": count("forms.del_", "forms.delbar"),
        "forms.d_s": seconds("forms.del_", "forms.delbar"),
        "fileio.bytes_written": notes(*writes),
        "fileio.bytes_read": notes(*reads),
        "fileio.io_s": seconds(*writes, *reads),
        "expressions.eval_s": seconds("expressions.parse_expression",
                                      "expressions.Expression.evaluate"),
        "cli.self_s": self_times(spans)[spans[0][0]],
    }


def write_spans(path: Path, operations: list[dict]) -> None:
    """Write every traced operation's spans, with self time per name."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = [
        {
            "operation": i,
            "self_s": self_times(op["spans"]),
            "spans": [
                {"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "note": s[4], "error": s[5]}
                for s in op["spans"]
            ],
        }
        for i, op in enumerate(operations)
    ]
    path.write_text(json.dumps(payload))
