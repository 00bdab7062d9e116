"""Binary snapshot formats for fields (CMAF) and metrics (CMMF), plus traces.

CMAF: magic "CMAF", version u16 = 1, n u16, N u32, flag u8 (0 real, 1
complex), then row-major samples as little-endian float64 (real) or
interleaved re/im pairs (complex).  Axis order x1, y1, ..., xn, yn with the
last axis fastest.  Flag 0 reads back as a float64 field, flag 1 as complex128.

CMMF: magic "CMMF", version u16 = 1, n u16, N u32, then per-point
lower-triangle complex entries (j >= k, row by row), little-endian float64
pairs, same axis order.  The packed metric maps onto it as g_{1 1bar} (n = 1)
or g_{1 1bar}, g_{2 1bar} = off, g_{2 2bar} (n = 2); a diagonal entry must have
a zero imaginary part.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .geometry import HermitianMetricField
from .grid import Grid, PeriodicScalarField
from .solver import ContinuityStep, ContinuityTrace

FIELD_MAGIC = b"CMAF"
METRIC_MAGIC = b"CMMF"
VERSION = 1
_FIELD_HEADER = struct.Struct("<4sHHIB")
_METRIC_HEADER = struct.Struct("<4sHHI")

TRACE_FIELDS = (
    "t", "newton_iters", "residual_sup", "eig_min", "eig_max",
    "sup_phi", "sup_grad_phi", "sup_third",
)


class SnapshotFormatError(ValueError):
    """Malformed or truncated snapshot file."""


def write_field(path: str | Path, f: PeriodicScalarField) -> None:
    grid = f.grid
    flag = 0 if f.is_real else 1
    header = _FIELD_HEADER.pack(FIELD_MAGIC, VERSION, grid.n, grid.N, flag)
    payload = np.ascontiguousarray(f.values, dtype="<f8" if flag == 0 else "<c16").tobytes()
    Path(path).write_bytes(header + payload)


def _read_snapshot(path: str | Path, header: struct.Struct,
                   magic: bytes) -> tuple[Grid, tuple, bytes]:
    """(the header's grid, its fields after n and N, the payload) of a snapshot file."""
    raw = Path(path).read_bytes()
    if len(raw) < header.size:
        raise SnapshotFormatError(f"{path}: truncated header")
    fields = header.unpack_from(raw)
    if fields[0] != magic:
        raise SnapshotFormatError(f"{path}: bad magic {fields[0]!r}")
    if fields[1] != VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {fields[1]}")
    try:
        grid = Grid(n=fields[2], N=fields[3])
    except ValueError as e:
        raise SnapshotFormatError(f"{path}: bad grid in header: {e}") from e
    return grid, fields[4:], raw[header.size:]


def _samples(path: str | Path, body: bytes, shape: tuple[int, ...], dtype: str) -> np.ndarray:
    expected = int(np.prod(shape)) * np.dtype(dtype).itemsize
    if len(body) != expected:
        raise SnapshotFormatError(f"{path}: payload is {len(body)} bytes, expected {expected}")
    return np.frombuffer(body, dtype=dtype).reshape(shape)


def read_field(path: str | Path) -> PeriodicScalarField:
    grid, (flag,), body = _read_snapshot(path, _FIELD_HEADER, FIELD_MAGIC)
    if flag not in (0, 1):
        raise SnapshotFormatError(f"{path}: bad real/complex flag {flag}")
    values = _samples(path, body, grid.shape, "<f8" if flag == 0 else "<c16")
    return PeriodicScalarField(grid, values.astype(float if flag == 0 else complex))


def write_metric(path: str | Path, g: HermitianMetricField) -> None:
    grid = g.grid
    header = _METRIC_HEADER.pack(METRIC_MAGIC, VERSION, grid.n, grid.N)
    lower = [g.diag[0]] if grid.n == 1 else [g.diag[0], g.off, g.diag[1]]  # j >= k, row by row
    payload = np.ascontiguousarray(np.stack(lower, axis=-1), dtype="<c16").tobytes()
    Path(path).write_bytes(header + payload)


def read_metric(path: str | Path) -> HermitianMetricField:
    grid, _, body = _read_snapshot(path, _METRIC_HEADER, METRIC_MAGIC)
    lower = _samples(path, body, grid.shape + (1 if grid.n == 1 else 3,), "<c16")
    diag = np.stack([lower[..., 0], lower[..., -1]][:grid.n])  # (0,0) and, for n = 2, (1,1)
    if np.any(diag.imag != 0.0):
        raise SnapshotFormatError(f"{path}: a diagonal entry is not real")
    off = np.ascontiguousarray(lower[..., 1], dtype=complex) if grid.n == 2 else None
    return HermitianMetricField(grid, np.ascontiguousarray(diag.real, dtype=float), off)


def write_trace(path: str | Path, trace: ContinuityTrace) -> None:
    Path(path).write_text(json.dumps(trace.to_json_records(), indent=2))


def read_trace(path: str | Path) -> ContinuityTrace:
    try:
        records = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SnapshotFormatError(f"{path}: corrupt trace JSON ({exc})") from exc
    if not isinstance(records, list):
        raise SnapshotFormatError(f"{path}: trace must be a JSON array")
    steps = []
    for rec in records:
        if not isinstance(rec, dict):
            raise SnapshotFormatError(f"{path}: trace record {rec!r} is not a JSON object")
        missing = [k for k in TRACE_FIELDS if k not in rec]
        if missing:
            raise SnapshotFormatError(f"{path}: trace record missing {missing}")
        mistyped = [k for k in TRACE_FIELDS if isinstance(rec[k], bool) or not isinstance(
            rec[k], int if k == "newton_iters" else (int, float))]
        if mistyped:
            raise SnapshotFormatError(f"{path}: trace record fields {mistyped} are not numbers "
                                      "(newton_iters must be an integer)")
        steps.append(ContinuityStep(**{k: rec[k] for k in TRACE_FIELDS}))
    return ContinuityTrace(steps)


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()
