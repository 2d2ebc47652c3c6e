"""Every script under demos/ and the README's quickstart run against the current API.

They run with ``python -W error``: pyproject's ``filterwarnings`` covers only
the pytest process, so a warning in a subprocess would otherwise pass.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script, tmp_path):
    # run a copy: run_benchmark.py writes its outputs next to itself
    demos = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", demos)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", str(demos / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.DOTALL)
    assert block and "TrainConfig(epochs=30)" in block[1]
    code = block[1].replace("TrainConfig(epochs=30)", "TrainConfig(epochs=1)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
