"""Seeded mutation sweep over what `torusma solve` and `torusma report` read.

Every mutated input must end in a documented exit code, print at most one
``error:`` line and raise nothing out of ``cli.main``.  Each sweep also
asserts that it reached a list of rejections, so that a sweep which stops
mutating the right things fails instead of passing vacuously.  Every grid
that is solved has N <= 16.
"""

import json
import re
import struct
import warnings

import numpy as np

import torusma as tm
from torusma import cli

EXIT_CODES = {0, 1, 2, 64, 66, 74}
CASES = 150  # mutated inputs per sweep
HEADER_BYTES = 13  # of a CMAF header; a CMMF header has 12

SWAPS = [None, True, "x", "", [], {}, [8], {"path": 8}, 1.5, -3]
EXTREMES = [0, -1, 7, 16, 2 ** 31, 2 ** 64, -2 ** 63, 1e-320, 1e-4, 1e308, -1e308,
            float("inf"), float("nan")]
EXPRESSION_CHARS = "$#()+-*.0123456789xyip é"
NUMBERS = ["0", "0.5", "3", "1e400", "007", "2."]
BASE_CONFIGS = [
    {"n": 1, "N": 8, "F": "0.1*sin(2*pi*x1)*cos(2*pi*2*y1)", "background": "flat"},
    {"n": 2, "N": 8, "F": "0.1*cos(2*pi*1*x2)", "t_step_initial": 0.5,
     "background": {"potential": "0.01*cos(2*pi*1*x1)*cos(2*pi*2*y2)"}},
]


def _pick(rng, seq):
    return seq[rng.integers(len(seq))]


def _run(argv, capsys, shown) -> str:
    """stderr of cli.main(argv), checked for its exit code, error lines and exceptions.

    shown describes the input for a failure message.
    """
    with warnings.catch_warnings():
        # numpy's overflow warnings on extreme data are not command-line errors
        warnings.simplefilter("ignore")
        try:
            rc = cli.main(argv)
        except Exception as exc:
            raise AssertionError(f"{argv[0]} raised on {shown}") from exc
    err = capsys.readouterr().err
    assert rc in EXIT_CODES, (rc, shown, err)
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1, (shown, err)
    return err


def _mutate_text(text: str, rng) -> str:
    """text with a number replaced, or one to three characters inserted, deleted or replaced."""
    if rng.integers(3) == 0:
        m = _pick(rng, list(re.finditer(r"[\d.]+", text)))
        return text[:m.start()] + _pick(rng, NUMBERS) + text[m.end():]
    chars = list(text)
    for _ in range(rng.integers(1, 4)):
        i = int(rng.integers(len(chars) + 1))
        op = rng.integers(3)
        if op == 0 or not chars:
            chars.insert(i, _pick(rng, EXPRESSION_CHARS))
        elif op == 1:
            del chars[min(i, len(chars) - 1)]
        else:
            chars[min(i, len(chars) - 1)] = _pick(rng, EXPRESSION_CHARS)
    return "".join(chars)


def _mutate_config(cfg: dict, rng, paths: list[str]):
    """One mutation of a config: a key drop, a type swap, an extreme number,
    a nesting, a {"path": ...} reference or an edited expression."""
    cfg = json.loads(json.dumps(cfg))
    key = _pick(rng, sorted(cfg))
    op = rng.integers(7)
    if op == 0:
        del cfg[key]
    elif op == 1:
        cfg[key] = _pick(rng, SWAPS)
    elif op == 2:
        cfg[key] = _pick(rng, EXTREMES)
    elif op == 3:
        if rng.integers(4) == 0:
            return [cfg]
        cfg[key] = {"value": cfg[key]}
    elif op == 4:
        ref = {"path": _pick(rng, paths)}
        if rng.integers(2):
            cfg["F"] = ref
        else:
            cfg["background"] = {"potential": ref}
    else:
        if isinstance(cfg.get("background"), dict) and rng.integers(2):
            cfg["background"]["potential"] = _mutate_text(cfg["background"]["potential"], rng)
        else:
            cfg["F"] = _mutate_text(cfg["F"], rng)
    return cfg


def _unseen(errors: list[str], patterns: list[str]) -> list[str]:
    """The regular expressions that no error message matches."""
    return [p for p in patterns if not any(re.search(p, e) for e in errors)]


def test_solve_config_sweep(tmp_path, capsys):
    rng = np.random.default_rng(1)
    snapshot = tmp_path / "n2_N16.cmaf"  # a grid no base config has
    tm.write_field(snapshot, tm.make_field(tm.Grid(n=2, N=16), np.zeros((16,) * 4)))
    paths = [str(snapshot), str(tmp_path)]  # a directory cannot be read
    errors = []
    for case in range(CASES):
        cfg = _mutate_config(BASE_CONFIGS[case % 2], rng, paths)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        errors.append(_run(["solve", "--config", str(path), "--out", str(tmp_path / "out")],
                           capsys, cfg))
    assert _unseen(errors, [
        "config must be a JSON object",
        "does not match the config grid",
        "must be an expression string or",
        "background must be",
        "I/O failure",
        "unexpected character",
        "expected (op|name|num), got",
        "expected '.+', got",
        "harmonic must be a positive integer",
    ]) == []


def _header_mutation(raw: bytes, rng) -> bytes:
    """raw with the version, n, N or flag field of its header set to another value."""
    raw = bytearray(raw)
    field = rng.integers(4)
    if field == 0:
        struct.pack_into("<H", raw, 4, _pick(rng, [0, 2, 65535]))
    elif field == 1:
        struct.pack_into("<H", raw, 6, _pick(rng, [0, 2, 3, 65535]))
    elif field == 2:
        struct.pack_into("<I", raw, 8, _pick(rng, [0, 7, 16, 65536, 2 ** 32 - 1]))
    else:
        raw[12] = _pick(rng, [2, 255])  # a CMAF's flag, a CMMF's first payload byte
    return bytes(raw)


def _mutate_snapshot(raw: bytes, rng) -> bytes:
    """raw truncated, with a header field changed, or with bytes flipped."""
    op = rng.integers(3)
    if op == 0:  # inside the header or inside the payload
        return raw[:rng.integers(HEADER_BYTES if rng.integers(2) else len(raw))]
    if op == 1:
        mutated = _header_mutation(raw, rng)
        return mutated[:HEADER_BYTES] if rng.integers(4) == 0 else mutated  # no payload
    raw = bytearray(raw)
    for _ in range(rng.integers(1, 4)):
        raw[rng.integers(len(raw))] ^= 1 << int(rng.integers(8))
    return bytes(raw)


def test_snapshot_sweep(tmp_path, capsys):
    rng = np.random.default_rng(2)
    grid = tm.Grid(n=1, N=8)
    x = grid.coordinate(0)
    sources = {
        "real": tmp_path / "real.cmaf",
        "complex": tmp_path / "complex.cmaf",
        "metric": tmp_path / "metric.cmmf",
    }
    tm.write_field(sources["real"], tm.make_field(grid, 0.01 * np.sin(2 * np.pi * x)))
    tm.write_field(sources["complex"], tm.make_field(grid, 0.01 * np.exp(2j * np.pi * x)))
    tm.write_metric(sources["metric"], tm.flat_metric(grid))
    errors = []
    for case in range(CASES):
        name = list(sources)[case % 3]
        raw = _mutate_snapshot(sources[name].read_bytes(), rng)
        path = tmp_path / "mutated.bin"
        path.write_bytes(raw)
        ref = {"path": str(path)}
        cfg = {"n": 1, "N": 8, "F": ref} if rng.integers(2) else \
              {"n": 1, "N": 8, "F": "0", "background": {"potential": ref}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        errors.append(_run(["solve", "--config", str(config), "--out", str(tmp_path / "out")],
                           capsys, (name, raw.hex())))
    assert _unseen(errors, [
        "truncated header",
        "unsupported version",
        "bad real/complex flag",
        "bad magic",
        "bad grid in header",
        "payload is",
        "snapshot is complex",
    ]) == []


def _mutate_trace(records: list[dict], rng):
    """One mutation of trace records, as JSON text."""
    records = json.loads(json.dumps(records))
    rec = _pick(rng, records)
    key = _pick(rng, sorted(rec))
    op = rng.integers(6)
    if op == 0:
        del rec[key]
    elif op == 1:
        rec[key] = _pick(rng, SWAPS)
    elif op == 2:
        rec[key] = _pick(rng, EXTREMES)
    elif op == 3:
        return json.dumps(_pick(rng, [{"steps": records}, 1, "trace", None]))
    elif op == 4:
        records[rng.integers(len(records))] = _pick(rng, SWAPS)
    else:
        text = json.dumps(records)
        return text[:rng.integers(len(text))]
    return json.dumps(records)


def test_report_trace_sweep(tmp_path, capsys):
    rng = np.random.default_rng(3)
    records = [{"t": 0.5 * (i + 1), "newton_iters": i + 1, "residual_sup": 1e-12,
                "eig_min": 0.9, "eig_max": 1.1, "sup_phi": 0.01, "sup_grad_phi": 0.06,
                "sup_third": 2.5} for i in range(2)]
    errors = []
    for _ in range(CASES):
        text = _mutate_trace(records, rng)
        path = tmp_path / "trace.json"
        path.write_text(text)
        errors.append(_run(["report", str(path)], capsys, text))
    assert _unseen(errors, [
        "trace must be a JSON array",
        "is not a JSON object",
        "trace record missing",
        "are not numbers",
        "corrupt trace JSON",
    ]) == []
