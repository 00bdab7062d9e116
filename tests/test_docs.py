"""The names README.md and CONVENTIONS.md cite still resolve, and README's API
map lists the whole public surface.

Every backticked dotted name of the form ``torusma.<mod>[.<name>...]``,
``Grid.<attr>`` or ``grid.<attr>`` must name something that exists, and so
must every backticked bare constant (ALL_CAPS with an underscore, such as
``KRYLOV_TOL``) and ``_private`` name, in some torusma module, so a rename in
src/ cannot leave the documents pointing at nothing.  Math symbols such as
``A_12`` are not constants.  Fenced code
blocks are shell sessions, not citations, and are skipped, as are file
names such as ``grid.py``.  README's API map and src/torusma/__init__.py
list the same names: every name the package imports opens a backticked span
of the map, and every entry of the map opens with an exported name.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import torusma as tm

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "CONVENTIONS.md")
# a dotted name that starts a chain: the ``grid.n`` of ``phi.grid.n`` is not cited
DOTTED = re.compile(r"(?<![\w.])(?:torusma|Grid|grid)(?:\.\w+)+")
# a bare constant or private name, with the attributes it opens: every word
# of a constant starts with a letter, so A_12 is not one
BARE = re.compile(r"(?<![\w.])(?:_[A-Za-z]\w*|[A-Z][A-Z0-9]*(?:_[A-Z][A-Z0-9]*)+)"
                  r"(?:\.\w+)*(?!\w)")
MODULES = ("cli", "expressions", "fileio", "forms", "geometry", "grid", "solver",
           "verification")


def cited_names(text):
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    names = set()
    for span in re.findall(r"`([^`]+)`", text):
        for pattern in (DOTTED, BARE):
            names.update(m.group(0) for m in pattern.finditer(span))
    return sorted(name for name in names if not name.endswith(".py"))


def resolves(name):
    head, *attrs = name.split(".")
    if head not in ("torusma", "Grid", "grid"):
        # a bare name resolves in the first torusma module that defines it
        owners = [importlib.import_module(f"torusma.{m}") for m in MODULES]
        owner = next((mod for mod in owners if hasattr(mod, head)), None)
        return owner is not None and resolves(".".join([owner.__name__, head, *attrs]))
    if head == "torusma":
        obj, path = tm, "torusma"
        for attr in attrs:
            path += "." + attr
            if not hasattr(obj, attr):
                try:
                    importlib.import_module(path)
                except ImportError:
                    return False
            obj = getattr(obj, attr)
        return True
    # Grid.<attr> and grid.<attr> both name an attribute of a grid; an
    # instance also has the dataclass fields, which the class lacks
    return hasattr(tm.Grid(n=1, N=8), attrs[0])


def test_the_pattern_finds_each_form():
    text = ("`torusma.grid.make_field` and `Grid.along(sym, axis)`, `phi.grid.n`,\n"
            "`grid.py`, ```\n$ python -m torusma.cli\n``` and `u = grid.hessian(v)`,\n"
            "`NEWTON_MAX_ITER = 50`, `T_STEP_MIN`, `_pcg(op)`, `_LinearizedOperator.apply_B`,\n"
            "`solver._pcg`, `A_12 + i B_12`, `BENCH_<k>.json`, `__init__.py` and `F`")
    assert cited_names(text) == [
        "Grid.along", "NEWTON_MAX_ITER", "T_STEP_MIN", "_LinearizedOperator.apply_B", "_pcg",
        "grid.hessian", "torusma.grid.make_field"]
    assert not resolves("Grid.no_such_name") and not resolves("torusma.grid.no_such_name")
    assert resolves("KRYLOV_TOL") and resolves("_LinearizedOperator.apply_B")
    assert not resolves("NO_SUCH_NAME") and not resolves("_no_such_name")
    assert not resolves("_LinearizedOperator.no_such_name")


@pytest.mark.parametrize("doc", DOCS)
def test_cited_names_resolve(doc):
    names = cited_names((ROOT / doc).read_text())
    assert names, f"{doc} cites no torusma name"
    missing = [name for name in names if not resolves(name)]
    assert not missing, missing


def api_map(readme):
    """README's "## API map" section, up to the next heading of its level, less code blocks."""
    section = readme.split("\n## API map\n", 1)[1].split("\n## ", 1)[0]
    return re.sub(r"```.*?```", "", section, flags=re.S)


def exported_names():
    tree = ast.parse((ROOT / "src" / "torusma" / "__init__.py").read_text())
    return sorted(alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def test_api_map_lists_every_export():
    names = exported_names()
    assert "Grid" in names and "continuity_solve" in names
    section = api_map((ROOT / "README.md").read_text())
    listed = {re.match(r"\w*", span).group(0) for span in re.findall(r"`([^`]+)`", section)}
    missing = [name for name in names if name not in listed]
    assert not missing, missing
    # each entry opens with the name it documents, which must still be exported
    stale = [name for name in re.findall(r"^- `(\w+)", section, flags=re.M) if name not in names]
    assert not stale, stale
