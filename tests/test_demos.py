"""Run the demo scripts end to end in a subprocess; each must exit 0.

Demo 05 trains the full pipeline on a fixed budget (about half a minute)
and is left out; demo 04 runs with a 300-step budget.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args", [
    ("01_static_counts.py", []),
    ("02_pruning_and_rewind.py", []),
    ("03_delta_inference.py", []),
    ("04_train_minibreakout.py", ["300"]),
])
def test_demo_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
