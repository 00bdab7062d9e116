"""Benchmark of torusma through its public entry point ``torusma.cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BASELINE.md for why each was chosen):
  solve-n2-manufactured  torusma solve, manufactured n=2 N=16 problem
  solve-n1-poisson       torusma solve, n=1 Poisson problem at N=512
  verify-identities      torusma verify --suite identities

Set-up runs several times, each in a fresh process (prepare.py), and
``setup_s`` is its median.  The operations then run one after another in this
single-threaded process for about ``--seconds`` seconds, each checked by the
workload's correctness gate.  With ``--trace 0`` the end-to-end metrics come
from untraced operations.  With ``--trace 1`` one untraced operation is
followed by traced ones whose spans give the per-layer metrics; the spans are
written to .bench_work/spans/.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
MIN_OPERATIONS = 3  # untraced operations per --trace 0 run, whatever --seconds says
MIN_TRACED = 2      # traced operations per --trace 1 run, to compare their counts
SETUP_TIMEOUT_S = 120

# Counts that must repeat exactly between traced operations of one commit.
DETERMINISTIC_COUNTS = (
    "solver.t_steps_accepted", "solver.t_steps_rejected", "solver.newton_iters",
    "solver.residual_evals", "solver.pcg_iters", "grid.fft_calls",
    "geometry.hessian_calls",
)
# Counts measured on the commit that introduced this benchmark.  Later
# commits that cut solver work are expected to differ; the comparison is
# printed, not gated.
BASELINE_COUNTS = {
    "solve-n2-manufactured": {"solver.newton_iters": 21, "solver.pcg_iters": 310,
                              "solver.t_steps_accepted": 6},
    "solve-n1-poisson": {"solver.pcg_iters": 12},
}


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and every metric's name and unit."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read BENCHMARK.json: {exc}") from exc


def declared(metrics: dict, entries: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares, each with its declared unit."""
    names = [e["name"] for e in entries]
    if set(names) != set(metrics):
        raise BenchmarkError(
            f"measured metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(names))}")
    return {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in entries}


def run_setups(workload: str, seed: int, work: Path) -> list[float]:
    """Set up SETUP_REPEATS times in fresh processes; returns their set-up times."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "prepare.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(work / f"setup{i}")]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up failed ({proc.returncode}):\n{proc.stderr}")
        times.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return times


def environment_stamp(np) -> dict:
    fft_backend = "numpy.fft (pocketfft)"
    if "scipy.fft" in sys.modules:
        fft_backend += " + scipy.fft loaded"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": fft_backend,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Runner:
    """Runs and checks operations of one workload."""

    def __init__(self, workload, seed, inputs: Path, work: Path):
        import problems
        from torusma import cli

        self.problems = problems
        self.cli = cli
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.ref = (problems.reference(workload, seed)
                    if workload in problems.SOLVE_PROBLEMS else None)
        self.count = 0

    def run(self, tracer=None) -> dict:
        outdir = self.work / f"op{self.count}"
        outdir.mkdir()
        self.count += 1
        argv = self.problems.operation_argv(self.workload, self.inputs, outdir)
        captured_out, captured_err = io.StringIO(), io.StringIO()
        code = None
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured_out), \
                    contextlib.redirect_stderr(captured_err):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    with tracer.root("cli.main"):
                        code = self.cli.main(argv)
        except Exception:  # an uncaught error is a failed operation, not a crash
            captured_err.write(traceback.format_exc())
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        try:
            passed, readouts = self.problems.check(self.workload, code, outdir, self.ref)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            passed, readouts = False, {"reason": f"unreadable output: {exc!r}"}
        if not passed:
            print(f"operation failed: {readouts}\n{captured_err.getvalue()}",
                  file=sys.stderr)
        shutil.rmtree(outdir, ignore_errors=True)
        return {"wall_s": wall, "cpu_s": cpu, "passed": passed, "readouts": readouts,
                "spans": None if tracer is None else tracer.spans}


def measure(run_one, start: float, seconds: float, minimum: int) -> list[dict]:
    """Run operations until the next one would end after ``seconds``."""
    ops = []
    while True:
        ops.append(run_one())
        typical = statistics.median(o["wall_s"] for o in ops)
        if len(ops) >= minimum and time.perf_counter() - start + typical > seconds:
            return ops


def traced_metrics(workload: str, plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced operations) and the count checks."""
    per_op = []
    for op in traced:
        m = tracing.layer_metrics(op["spans"])
        r = op["readouts"]
        m["solver.residual_max"] = r.get("residual_max", 0.0)
        m["solver.error_sup"] = r.get("error_sup", 0.0)
        m["verification.suite_s"] = r.get("suite_s", 0.0)
        m["verification.worst_ratio"] = r.get("worst_ratio", 0.0)
        per_op.append(m)
    metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    plain_wall = statistics.median(o["wall_s"] for o in plain)
    plain_cpu = statistics.median(o["cpu_s"] for o in plain)
    metrics["proc.cpu_s"] = plain_cpu
    metrics["proc.cpu_util"] = plain_cpu / plain_wall
    metrics["trace.overhead_ratio"] = (
        statistics.median(o["wall_s"] for o in traced) / plain_wall)
    differing = [k for k in DETERMINISTIC_COUNTS if len({m[k] for m in per_op}) > 1]
    metrics["trace.count_mismatches"] = len(differing)
    baseline = {
        k: {"baseline": v, "measured": metrics[k], "match": metrics[k] == v}
        for k, v in BASELINE_COUNTS.get(workload, {}).items()
    }
    checks = {"counts_differing_between_traced_ops": differing,
              "baseline_counts": baseline}
    return metrics, checks


def run(args, spec: dict) -> dict:
    for var in THREAD_VARS:  # before numpy loads: the baseline is single-threaded
        os.environ[var] = "1"
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        start = time.perf_counter()  # set-up counts against --seconds too
        setup_times = run_setups(args.workload, args.seed, work)
        import numpy as np
        import problems

        runner = Runner(args.workload, args.seed, work / "setup0", work)
        if not args.trace:
            plain = measure(runner.run, start, args.seconds, MIN_OPERATIONS)
            traced = []
        else:
            plain = [runner.run()]
            tracer = tracing.Tracer()
            with tracing.instrument(tracer) as missing:
                traced = measure(lambda: runner.run(tracer), start, args.seconds,
                                 MIN_TRACED)
        measured_s = time.perf_counter() - start
        ops = plain + traced
        failed = sum(1 for o in ops if not o["passed"])
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "seed_used": args.workload in problems.SOLVE_PROBLEMS,
            "env": environment_stamp(np),
            "measured_s": measured_s,
            "setup_times_s": setup_times,
            "untraced_wall_s": [o["wall_s"] for o in plain],
            "fail_ratio": failed / len(ops),
        }
        if detail["seed_used"]:
            detail["grid_shift"] = problems.grid_shift(
                problems.problem_grid(args.workload), args.seed)
        else:
            detail["seed_note"] = "unused: the identities suite fixes its own data"
        if args.trace:
            metrics, checks = traced_metrics(args.workload, plain, traced)
            spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.json"
            tracing.write_spans(spans_path, traced)
            detail.update(checks, missing_targets=missing,
                          spans=str(spans_path.relative_to(ROOT)),
                          traced_wall_s=[o["wall_s"] for o in traced])
        else:
            metrics = {
                "wall_s": statistics.median(o["wall_s"] for o in plain),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "success_ratio": (len(ops) - failed) / len(ops),
            }
        result = declared(metrics, spec["per_layer" if args.trace else "end_to_end"])
        for name, m in result.items():
            print(f"{name:<34} {m['value']:<14.6g} {m['unit']}")
        print(f"{'fail_ratio':<34} {detail['fail_ratio']:<14.6g} ({failed}/{len(ops)})")
        print(json.dumps({"detail": detail}))
        return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
                "metrics": result}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    try:
        spec = load_spec()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description="torusma benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "torusma" / "__init__.py").is_file():
        print(f"error: no torusma sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args, spec)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
