"""Smoke runs of the experiment scripts at tiny sizes."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("front_experiment.py",
     ["--presets", "instance1", "instance2", "--seeds", "101", "--oracle-grid", "5"]),
    ("metaheuristic_experiment.py",
     ["--pop", "10", "--epochs", "5", "--seeds", "1", "2"]),
])
def test_script_writes_summary(tmp_path, script, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script),
         *args, "--out", str(tmp_path)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "summary.csv").is_file()
