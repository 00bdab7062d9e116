"""Each demo runs to completion with numerical and deprecation warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = ["01_spectral_geometry.py", "02_forms_identities.py",
         "03_continuity_solve.py", "04_ricci_flat.py", "05_cli_and_files.py"]

# Demo 04 only: its forcing F = -log det g is not band-limited, so the
# solver's band-limit RuntimeWarning fires on it.  For that demo this one
# warning is ignored and every other RuntimeWarning is still an error; the
# other demos treat every RuntimeWarning as an error.  The filter goes once
# the band-limit check stops flagging resolved fields.  Filters given later
# on the command line take precedence.
BAND_LIMIT_FILTER = "ignore:F carries significant spectral content:RuntimeWarning"


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_0(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         *(["-W", BAND_LIMIT_FILTER] if name == "04_ricci_flat.py" else []),
         str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
