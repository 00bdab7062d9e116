import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import torusma as tm
from torusma import cli, solver
from torusma.expressions import parse_expression, ExpressionError
from torusma.fileio import TRACE_FIELDS
from torusma.solver import ContinuityStep
from conftest import count_calls


class TestFieldRoundTrip:
    @pytest.mark.parametrize("real", [True, False])
    def test_bit_exact(self, tmp_path, grid, rng, real):
        f = tm.random_band_limited(grid, rng, kmax=3, real=real)
        path = tmp_path / "f.cmaf"
        tm.write_field(path, f)
        back = tm.read_field(path)
        assert back.grid == grid
        assert back.is_real == f.is_real
        assert np.array_equal(back.values, f.values)

    def test_bad_magic_rejected(self, tmp_path, grid):
        path = tmp_path / "f.cmaf"
        tm.write_field(path, tm.make_field(grid, np.zeros(grid.shape)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(tm.SnapshotFormatError):
            tm.read_field(path)

    def test_truncated_payload_rejected(self, tmp_path, grid):
        path = tmp_path / "f.cmaf"
        tm.write_field(path, tm.make_field(grid, np.zeros(grid.shape)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(tm.SnapshotFormatError):
            tm.read_field(path)


class TestDtypes:
    def test_real_snapshot_reads_as_float64(self, tmp_path, grid, rng):
        path = tmp_path / "f.cmaf"
        tm.write_field(path, tm.random_band_limited(grid, rng, kmax=3, real=True))
        assert path.read_bytes()[12] == 0  # the real/complex flag
        assert tm.read_field(path).values.dtype == np.float64

    def test_complex_snapshot_reads_as_complex128(self, tmp_path, grid, rng):
        path = tmp_path / "f.cmaf"
        tm.write_field(path, tm.random_band_limited(grid, rng, kmax=3, real=False))
        assert tm.read_field(path).values.dtype == np.complex128

    @pytest.mark.parametrize("background", [False, True], ids=["flat", "non-flat"])
    def test_packed_metric_writes_the_lower_triangle_layout(self, tmp_path, grid,
                                                             small_potential, background):
        g = tm.flat_metric(grid)
        if background:
            g = tm.metric_from_potential(g, 0.5 * small_potential)
        gt = tm.metric_from_potential(g, small_potential)
        # the layout written out by hand: the full complex128 matrices, each
        # Hessian entry added to the background's, lower triangle (j >= k) per point
        n = grid.n
        mats = np.zeros(grid.shape + (n, n), dtype=complex)
        for j in range(n):
            mats[..., j, j] = 1.0
        potentials = ([0.5 * small_potential] if background else []) + [small_potential]
        for phi in potentials:
            # Grid.hessian's parts: A_jj, then Re and Im of d_1 dbar_2 phi for n = 2
            H = np.zeros(grid.shape + (n, n), dtype=complex)
            parts = grid.hessian(phi.values)
            for j in range(n):
                H.real[..., j, j] = parts[j]
            if n == 2:
                H.real[..., 0, 1] = parts[2]
                H.imag[..., 0, 1] = parts[3]
                H[..., 1, 0] = np.conj(H[..., 0, 1])
            mats = mats + H
        tri = np.stack([mats[..., j, k] for j in range(n) for k in range(j + 1)], axis=-1)
        expected = struct.pack("<4sHHI", b"CMMF", 1, n, grid.N) + tri.astype("<c16").tobytes()
        path = tmp_path / "g.cmmf"
        tm.write_metric(path, gt)
        assert path.read_bytes() == expected

    def test_metric_with_complex_diagonal_rejected(self, tmp_path):
        grid = tm.Grid(n=1, N=16)
        path = tmp_path / "g.cmmf"
        tm.write_metric(path, tm.flat_metric(grid))
        raw = bytearray(path.read_bytes())
        raw[12 + 8: 12 + 16] = struct.pack("<d", 1e-3)  # imaginary part of the first entry
        path.write_bytes(bytes(raw))
        with pytest.raises(tm.SnapshotFormatError):
            tm.read_metric(path)


def _bad_grid_header(path, n=3):
    """Rewrite the n field of a snapshot header (u16 after magic and version)."""
    raw = bytearray(path.read_bytes())
    raw[6:8] = struct.pack("<H", n)
    path.write_bytes(bytes(raw))


class TestBadGridHeader:
    # the header's grid is checked like the rest of the file, so a bad one
    # is a SnapshotFormatError (exit 74), not a bare ValueError
    def test_field(self, tmp_path):
        path = tmp_path / "f.cmaf"
        tm.write_field(path, tm.make_field(tm.Grid(n=1, N=16), np.zeros((16, 16))))
        _bad_grid_header(path)
        with pytest.raises(tm.SnapshotFormatError, match="bad grid"):
            tm.read_field(path)

    def test_metric(self, tmp_path):
        path = tmp_path / "g.cmmf"
        tm.write_metric(path, tm.flat_metric(tm.Grid(n=1, N=16)))
        _bad_grid_header(path)
        with pytest.raises(tm.SnapshotFormatError, match="bad grid"):
            tm.read_metric(path)

    def test_cli_solve_exits_74(self, tmp_path, capsys):
        fpath = tmp_path / "F.cmaf"
        tm.write_field(fpath, tm.make_field(tm.Grid(n=1, N=16), np.zeros((16, 16))))
        _bad_grid_header(fpath)
        cfg = _write_config(tmp_path, N=16, F={"path": str(fpath)})
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 74
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_header_with_an_overflowing_size(self, tmp_path):
        # n = 2, N = 2^16 has 2^64 samples, a size int64 wraps to 0, so an
        # empty payload used to pass the length check and fail in reshape
        path = tmp_path / "f.cmaf"
        path.write_bytes(struct.pack("<4sHHIB", b"CMAF", 1, 2, 2 ** 16, 0))
        with pytest.raises(tm.SnapshotFormatError, match="payload is 0 bytes"):
            tm.read_field(path)


class TestMetricRoundTrip:
    def test_bit_exact(self, tmp_path, grid, small_potential):
        g = tm.metric_from_potential(tm.flat_metric(grid), small_potential)
        path = tmp_path / "g.cmmf"
        tm.write_metric(path, g)
        back = tm.read_metric(path)
        assert np.array_equal(back.mats, g.mats)

    def test_single_byte_corruption_detected_by_hash(self, tmp_path, grid):
        path = tmp_path / "g.cmmf"
        tm.write_metric(path, tm.flat_metric(grid))
        before = tm.sha256_file(path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        assert tm.sha256_file(path) != before


class TestTraceRoundTrip:
    def _trace(self):
        return [
            ContinuityStep(t=0.1 * (i + 1), newton_iters=i, residual_sup=1e-12,
                           eig_min=0.9, eig_max=1.1, sup_phi=0.01,
                           sup_grad_phi=0.1, sup_third=1.0)
            for i in range(3)
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        trace = self._trace()
        tm.write_trace(path, trace)
        back = tm.read_trace(path)
        assert back == trace

    def test_fixed_field_names(self, tmp_path):
        path = tmp_path / "trace.json"
        tm.write_trace(path, self._trace())
        records = json.loads(path.read_text())
        assert set(records[0]) == set(TRACE_FIELDS)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "trace.json"
        tm.write_trace(path, self._trace())
        records = json.loads(path.read_text())
        del records[0]["eig_min"]
        path.write_text(json.dumps(records))
        with pytest.raises((ValueError, KeyError)):
            tm.read_trace(path)


class TestExpressions:
    @pytest.mark.parametrize("text,point_value", [
        ("1", 1.0),
        ("0.3*sin(2*pi*x1)*sin(2*pi*y1)", 0.0),
        ("cos(2*pi*2*x1) + 1", 2.0),
        ("exp(sin(2*pi*x1))", 1.0),
    ])
    def test_evaluates_at_origin(self, text, point_value):
        grid = tm.Grid(n=1, N=16)
        f = parse_expression(text).evaluate(grid)
        assert f.values.flat[0] == pytest.approx(point_value)

    @pytest.mark.parametrize("text", [
        "sin(3*x1)", "tan(2*pi*x1)", "x1 + 1", "sin(2*pi*x3)", "1 +",
    ])
    def test_rejects_bad_expressions(self, text):
        with pytest.raises(ExpressionError):
            parse_expression(text)

    @pytest.mark.parametrize("harmonic", ["0", "1.5", "1e400"])
    def test_rejects_a_harmonic_that_is_not_a_positive_integer(self, harmonic):
        # 1e400 reads as inf, which used to raise OverflowError in int()
        with pytest.raises(ExpressionError, match="harmonic must be a positive integer"):
            parse_expression(f"sin(2*pi*{harmonic}*x1)")

    def test_coordinate_out_of_range_for_n1(self):
        grid = tm.Grid(n=1, N=16)
        expr = parse_expression("sin(2*pi*x2)")
        with pytest.raises(ExpressionError):
            expr.evaluate(grid)

    def test_long_sum_folds_left_to_right(self):
        # 3000 terms used to exceed the recursion limit; the sum is one node
        # folded in a loop, in the order of the old left-nested tree
        f = parse_expression("+".join(["0.001"] * 3000)).evaluate(tm.Grid(n=1, N=16))
        expected = 0.001
        for _ in range(2999):
            expected = expected + 0.001
        assert np.all(f.values == expected)

    @pytest.mark.parametrize("count,sign", [(3000, 1.0), (3001, -1.0)])
    def test_long_unary_minus_chain(self, count, sign):
        f = parse_expression("-" * count + "0.5").evaluate(tm.Grid(n=1, N=16))
        assert np.all(f.values == sign * 0.5)

    @pytest.mark.parametrize("opening", ["(", "exp("])
    def test_nesting_depth_is_bounded(self, opening):
        limit = tm.expressions.MAX_NESTING
        assert parse_expression(opening * limit + "0" + ")" * limit)
        with pytest.raises(ExpressionError, match=f"deeper than {limit} levels"):
            parse_expression(opening * 3000 + "0" + ")" * 3000)

    def test_error_quotes_an_excerpt_and_the_position(self):
        text = "+".join(["0.001"] * 3000) + ")"
        with pytest.raises(ExpressionError) as info:
            parse_expression(text)
        message = str(info.value)
        assert f"at position {len(text) - 1}" in message
        assert "0.001)" in message and len(message) < 200, message

    @pytest.mark.parametrize("pos,leading,trailing", [(0, False, True), (100, True, True),
                                                      (200, True, False)],
                             ids=["start", "middle", "end"])
    def test_error_excerpt_marks_each_cut_end(self, pos, leading, trailing):
        text = "0+" * 100 + "0"  # 201 characters
        text = text[:pos] + "?" + text[pos + 1:]
        with pytest.raises(ExpressionError) as info:
            parse_expression(text)
        excerpt = str(info.value).split(f"at position {pos} in ", 1)[1]
        assert excerpt.startswith("...") == leading and excerpt.endswith("...") == trailing, excerpt

    def test_band_limit_of_products(self):
        # harmonics of a product add on each coordinate: this one carries 12
        # on x1, which a 16-point grid aliases onto 4
        grid = tm.Grid(n=1, N=16)
        assert not parse_expression("sin(2*pi*4*x1)*sin(2*pi*4*x1)*sin(2*pi*4*x1)").band_limited(grid)
        assert parse_expression("sin(2*pi*4*x1)*sin(2*pi*4*y1)").band_limited(grid)
        assert parse_expression("-sin(2*pi*2*x1)*cos(2*pi*2*x1) + exp(cos(2*pi*4*y1))"
                                ).band_limited(grid)
        assert not parse_expression("1 + (2*sin(2*pi*3*x1))*(cos(2*pi*2*x1) - 1)").band_limited(grid)

    def test_band_limit_check(self):
        grid = tm.Grid(n=1, N=16)
        assert parse_expression("sin(2*pi*4*x1)").band_limited(grid)
        assert not parse_expression("sin(2*pi*5*x1)").band_limited(grid)


def _write_config(tmp_path, **overrides):
    cfg = {"n": 1, "N": 32, "F": "0.1*sin(2*pi*x1)*sin(2*pi*y1)",
           "background": "flat"}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _non_finite_snapshot(tmp_path, value):
    """{"path": ...} of an n=1 N=32 CMAF snapshot with one sample set to value."""
    grid = tm.Grid(n=1, N=32)
    vals = 0.01 * np.sin(2 * np.pi * grid.coordinate(0))
    vals[3, 5] = value
    path = tmp_path / "non_finite.cmaf"
    tm.write_field(path, tm.make_field(grid, vals))
    return {"path": str(path)}


def _complex_snapshot(tmp_path):
    """{"path": ...} of an n=1 N=32 CMAF snapshot of 0.1 sin(2 pi x1) + 5i cos(2 pi x1)."""
    grid = tm.Grid(n=1, N=32)
    x = grid.coordinate(0)
    path = tmp_path / "complex.cmaf"
    vals = 0.1 * np.sin(2 * np.pi * x) + 5j * np.cos(2 * np.pi * x)
    tm.write_field(path, tm.make_field(grid, vals))
    return {"path": str(path)}


def _snapshot_ref(tmp_path, **extra):
    """{"path": ..., **extra} of a valid n=1 N=32 CMAF snapshot of 0.01 sin(2 pi x1)."""
    grid = tm.Grid(n=1, N=32)
    path = tmp_path / "valid.cmaf"
    tm.write_field(path, tm.make_field(grid, 0.01 * np.sin(2 * np.pi * grid.coordinate(0))))
    return {"path": str(path), **extra}


def test_cli_import_loads_numpy_alone():
    # every CLI command starts with this import, so a third-party module behind it
    # adds to each command's setup time; the modules the interpreter's own startup
    # loads are subtracted
    code = ("import sys\n"
            "def tops(): return {m.partition('.')[0] for m in sys.modules}\n"
            "before = tops()\n"
            "import torusma.cli\n"
            "print(' '.join(sorted(m for m in tops() - before if m not in sys.stdlib_module_names)))")
    src = str(Path(tm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["numpy", "torusma"]


class TestCliSolve:
    def test_flat_solve_writes_artifacts(self, tmp_path):
        cfg = _write_config(tmp_path, F="0")
        out = tmp_path / "out"
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        phi = tm.read_field(out / "phi.cmaf")
        assert phi.sup_norm() <= 1e-10
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["converged"] is True
        assert (out / "metric.cmmf").exists()
        assert (out / "trace.json").exists()

    @pytest.mark.parametrize("N,grid_sizes", [(32, [32]), (512, [64, 128, 256, 512])])
    def test_manifest_names_the_grids_of_the_trace(self, tmp_path, N, grid_sizes):
        # at N = 512 the path runs at N = 64 and each finer grid corrects once at t = 1
        cfg = _write_config(tmp_path, N=N)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["grid_sizes"] == grid_sizes and manifest["fell_back"] is False
        ts = [rec["t"] for rec in json.loads((out / "trace.json").read_text())]
        k = len(grid_sizes)  # the path reaches t = 1 once, then one step per finer grid
        assert ts[-k:] == [1.0] * k and 1.0 not in ts[:-k]
        assert tm.read_field(out / "phi.cmaf").grid == tm.Grid(n=1, N=N)

    @pytest.mark.parametrize("background", [
        "flat", {"potential": "0.02*cos(2*pi*x1)*cos(2*pi*y1)"}], ids=["flat", "potential"])
    def test_metric_is_that_of_the_written_potential(self, tmp_path, background):
        # the CLI writes the solver's final g~ instead of re-forming it from phi
        cfg = _write_config(tmp_path, background=background)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        grid = tm.Grid(n=1, N=32)
        g = tm.flat_metric(grid)
        if background != "flat":
            psi = parse_expression(background["potential"]).evaluate(grid)
            g = tm.metric_from_potential(g, tm.mean_zero_project(psi))
        ref = tmp_path / "ref.cmmf"
        tm.write_metric(ref, tm.metric_from_potential(g, tm.read_field(out / "phi.cmaf")))
        assert (out / "metric.cmmf").read_bytes() == ref.read_bytes()

    def test_solve_recovers_oracle(self, tmp_path):
        cfg = _write_config(tmp_path, N=64, F="0.3*sin(2*pi*x1)*sin(2*pi*y1)")
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        phi = tm.read_field(out / "phi.cmaf")
        grid = tm.Grid(n=1, N=64)
        oracle = tm.poisson_oracle_n1(tm.poisson_forcing_n1(grid), tm.flat_metric(grid))
        assert np.max(np.abs(phi.values.real - oracle.values.real)) <= 1e-8

    @pytest.mark.parametrize("overrides", [
        b"{not json",
        b'\xff\xfe{"n": 1}',
        {"n": 3},
        {"N": 7},
        {"n": True},
        {"background": {"potential": "0.2*cos(2*pi*x1)"}},
        {"N": 16, "F": "1e400"},
        {"F": "exp(800)"},
        lambda tmp: {"F": _non_finite_snapshot(tmp, np.nan)},
        lambda tmp: {"F": _non_finite_snapshot(tmp, np.inf)},
        lambda tmp: {"background": {"potential": _non_finite_snapshot(tmp, np.nan)}},
        lambda tmp: {"background": {"potential": _non_finite_snapshot(tmp, -np.inf)}},
        lambda tmp: {"F": _complex_snapshot(tmp)},
        lambda tmp: {"background": {"potential": _complex_snapshot(tmp)}},
        {"n": 2, "N": 1024},
        {"newtn_tol": 1e-3},
        {"newton_max_iter": 50},
        {"newton_tol": True},
        {"newton_tol": float("nan")},
        {"damping_eig_floor": float("inf")},
        {"damping_eig_floor": True},
        {"t_step_initial": "0.5"},
        {"F": "(" * 3000 + "0" + ")" * 3000},
        {"F": "exp(" * 3000 + "0" + ")" * 3000},
        {"N": 16, "F": "0.1*sin(2*pi*4*x1)*sin(2*pi*4*x1)*sin(2*pi*4*x1)"},
        {"background": {"potential": "0.01*cos(2*pi*x1)", "potentail": "0.5*cos(2*pi*y1)"}},
        lambda tmp: {"F": _snapshot_ref(tmp, sha256="deadbeef")},
        lambda tmp: {"background": {"potential": _snapshot_ref(tmp, sha256="deadbeef")}},
    ], ids=["not-json", "not-utf8", "n3", "N7", "n-bool", "non-positive-background", "F-1e400",
            "F-exp-overflow", "F-snapshot-nan", "F-snapshot-inf",
            "background-snapshot-nan", "background-snapshot-inf",
            "F-snapshot-complex", "background-snapshot-complex", "n2-N1024-over-memory",
            "unknown-key", "removed-key", "newton-tol-bool", "newton-tol-nan",
            "damping-floor-inf", "damping-floor-bool", "t-step-string",
            "F-3000-nested-parentheses", "F-3000-nested-exp", "F-aliased-product",
            "background-misspelt-key", "F-path-extra-key", "background-path-extra-key"])
    def test_malformed_config_exits_64(self, tmp_path, capsys, overrides):
        if isinstance(overrides, bytes):
            path = tmp_path / "bad.json"
            path.write_bytes(overrides)
        else:
            if callable(overrides):
                overrides = overrides(tmp_path)
            path = _write_config(tmp_path, **overrides)
        assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_settings_reach_the_solver(self, tmp_path):
        cfg = _write_config(tmp_path, t_step_initial=0.5, newton_tol=1e-9)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        records = json.loads((out / "trace.json").read_text())
        assert records[0]["t"] == 0.5
        assert all(rec["residual_sup"] <= 1e-9 for rec in records)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["t_step_initial"] == 0.5
        assert manifest["config"]["newton_tol"] == 1e-9

    def test_unknown_key_error_names_the_accepted_keys(self, tmp_path, capsys):
        path = _write_config(tmp_path, newtn_tol=1e-3)
        assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 64
        err = capsys.readouterr().err
        assert "'newtn_tol'" in err
        assert err.endswith(
            "accepted: n, N, F, background, newton_tol, t_step_initial, damping_eig_floor\n")

    def test_rejected_config_leaves_no_output_directory(self, tmp_path):
        path = _write_config(tmp_path, background={"potential": "0.2*cos(2*pi*x1)"})
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 64
        assert not out.exists()

    def test_unreachable_damping_floor_exits_64(self, tmp_path, capsys):
        # no g + ddbar phi over the flat background has a smallest eigenvalue
        # above 1; such a floor used to halve t to underflow and exit 2
        path = _write_config(tmp_path, N=16, F="0.1*sin(2*pi*x1)", damping_eig_floor=2)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "damping_eig_floor 2 is above 1," in err and "smallest eigenvalue is 1)" in err, err
        assert not out.exists()

    def test_unclearable_damping_floor_exits_2(self, tmp_path, capsys, monkeypatch):
        # a floor between the background's smallest eigenvalue 0.8026 and the
        # bound 1 passes the up-front check, but no short t-step clears it
        path = _write_config(tmp_path, background={"potential": "0.02*cos(2*pi*x1)"},
                             F="0.1*sin(2*pi*x1)", damping_eig_floor=0.9)
        out = tmp_path / "out"
        # each rejected correction forms the full step's Hessian and that of psi,
        # where forming every dyadic candidate took 40
        hessians = count_calls(monkeypatch, tm.Grid, "hessian")
        per_update = []
        damped_update = solver._damped_update

        def spy(it, psi, floor):
            before = len(hessians)
            try:
                return damped_update(it, psi, floor)
            finally:
                per_update.append(len(hessians) - before)

        monkeypatch.setattr(solver, "_damped_update", spy)
        assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 2
        assert per_update and max(per_update) <= 3, per_update
        err = capsys.readouterr().err
        assert err.startswith("solve failed: continuity step underflow below 0.0001 at t=0.0: ")
        assert err.count("\n") == 1, err
        assert "smallest eigenvalue 0.802608 is below damping_eig_floor 0.9," in err, err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["converged"] is False and manifest["t_reached"] == 0.0
        assert manifest["message"].startswith(err.removeprefix("solve failed: ").rstrip("\n"))

    def test_long_expression_error_is_one_short_line(self, tmp_path, capsys):
        # the message used to quote the whole 18 KB expression
        cfg = _write_config(tmp_path, F="+".join(["0.001"] * 3000) + ")")
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300, err

    def test_3000_term_sum_solves(self, tmp_path):
        # a constant F: the solution is phi = 0
        cfg = _write_config(tmp_path, N=16, F="+".join(["0.001"] * 3000))
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert tm.read_field(out / "phi.cmaf").sup_norm() <= 1e-10

    def test_3000_minus_chain_solves_as_its_plain_expression(self, tmp_path):
        outs = []
        for F in ("-" * 3000 + "0.1*sin(2*pi*x1)", "0.1*sin(2*pi*x1)"):
            outs.append(tmp_path / f"out{len(outs)}")
            cfg = _write_config(tmp_path, N=16, F=F)
            assert cli.main(["solve", "--config", str(cfg), "--out", str(outs[-1])]) == 0
        assert (outs[0] / "phi.cmaf").read_bytes() == (outs[1] / "phi.cmaf").read_bytes()

    def test_over_memory_grid_leaves_no_output_directory(self, tmp_path):
        path = _write_config(tmp_path, n=2, N=1024)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 64
        assert not out.exists()

    def test_memory_estimate_admits_n1_N1024(self):
        # n=1 N=1024 needs about 0.3 GiB; the estimate must not reject it (not solved here)
        cli._check_solve_memory(tm.Grid(n=1, N=1024))

    @pytest.mark.parametrize("unreadable", ["no-sysconf", "no-phys-pages"])
    def test_solves_where_physical_memory_cannot_be_read(self, unreadable, tmp_path, monkeypatch):
        if unreadable == "no-sysconf":
            monkeypatch.delattr(os, "sysconf", raising=False)
        else:
            monkeypatch.setattr(os, "sysconf_names", {}, raising=False)
        cli._check_solve_memory(tm.Grid(n=2, N=1024))  # not rejected: the check is skipped
        cfg = _write_config(tmp_path, N=16)
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_missing_config_exits_64(self, tmp_path):
        assert cli.main(["solve", "--config", str(tmp_path / "no.json"),
                         "--out", str(tmp_path)]) == 64

    def test_over_band_limit_forcing_rejected(self, tmp_path):
        cfg = _write_config(tmp_path, N=16, F="sin(2*pi*7*x1)")
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 64

    def test_forcing_from_snapshot(self, tmp_path):
        grid = tm.Grid(n=1, N=32)
        fpath = tmp_path / "F.cmaf"
        tm.write_field(fpath, tm.make_field(
            grid, 0.1 * np.sin(2 * np.pi * grid.coordinate(0))))
        cfg = _write_config(tmp_path, F={"path": str(fpath)})
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"]["F"]["sha256"] == tm.sha256_file(fpath)


class TestCliVerify:
    def test_unknown_suite_exits_64(self, capsys):
        assert cli.main(["verify", "--suite", "nonsense"]) == 64

    def test_version_exits_0(self, capsys):
        # argparse's own exit 0 passes through main, unlike its usage errors
        with pytest.raises(SystemExit) as info:
            cli.main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out == f"{tm.__version__}\n"

    # --threads was removed; argparse rejects the unknown flag as a usage error
    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "poisson_n1", "--threads", "2"],
        ["solve", "--config", "config.json", "--out", "out", "--threads", "2"],
    ], ids=["verify", "solve"])
    def test_threads_rejected_for_verify(self, argv):
        assert cli.main(argv) == 64

    def test_passing_suite_exits_0(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.main(["verify", "--suite", "poisson_n1", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "pass" in captured.out
        assert json.loads(out.read_text())["passed"] is True

    def test_failing_check_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(tm.verification._SUITES, "identities",
                            lambda: [tm.verification._check("identities.d_squared", 1.0)])
        out = tmp_path / "report.json"
        rc = cli.main(["verify", "--suite", "identities", "--out", str(out)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out
        assert json.loads(out.read_text())["passed"] is False


_TRACE_RECORD = {"t": 1.0, "newton_iters": 3, "residual_sup": 1e-12, "eig_min": 0.9,
                 "eig_max": 1.1, "sup_phi": 0.01, "sup_grad_phi": 0.06, "sup_third": 2.5}


class TestCliReport:
    def _solved_trace(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        return out / "trace.json"

    def test_missing_trace_exits_66(self, tmp_path):
        assert cli.main(["report", str(tmp_path / "none.json")]) == 66

    def test_corrupt_trace_exits_66(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[{]")
        assert cli.main(["report", str(path)]) == 66

    @pytest.mark.parametrize("records", [
        [1],
        [dict(_TRACE_RECORD, t="x")],
        [dict(_TRACE_RECORD, t=None)],
        [dict(_TRACE_RECORD, t=[1])],
        [dict(_TRACE_RECORD, t=True)],
        [dict(_TRACE_RECORD, newton_iters=2.0)],
    ], ids=["not-object", "t-string", "t-null", "t-list", "t-bool", "newton-iters-float"])
    def test_mistyped_trace_exits_66(self, tmp_path, capsys, records):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(records))
        assert cli.main(["report", str(path)]) == 66
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err

    def test_table_and_csv(self, tmp_path, capsys):
        trace_path = self._solved_trace(tmp_path)
        capsys.readouterr()  # drop the solve's own output
        csv_path = tmp_path / "steps.csv"
        assert cli.main(["report", str(trace_path), "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        for name in TRACE_FIELDS:
            assert name in out.split("\n")[0]
        header = csv_path.read_text().splitlines()[0]
        assert header == ",".join(TRACE_FIELDS)

    def test_monotone_t(self, tmp_path):
        trace_path = self._solved_trace(tmp_path)
        trace = tm.read_trace(trace_path)
        ts = [s.t for s in trace]
        assert ts == sorted(ts)
        assert ts[-1] == 1.0
