"""The benchmark's hooks into torusma still resolve.

perfbench/tracing.py wraps torusma functions by dotted path and
perfbench/problems.py imports torusma names; a rename in src/ would
silently zero a per-layer counter or break the benchmark.  Both files are
read from outside, without importing problems.py (which rearranges
sys.path on import).
"""

import ast
import importlib
import importlib.util
from pathlib import Path

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
