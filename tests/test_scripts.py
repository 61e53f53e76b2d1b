import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# small arguments: each script runs in about a second
SCRIPTS = {
    "disk_cross_validation.py": ["--levels", "1"],
    "weyl_ratio_square.py": ["--h", "0.05", "--lam-max", "1e4", "--points", "6"],
    "full_verification.py": [],
}


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                          *SCRIPTS[script]],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout
