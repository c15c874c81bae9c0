"""The README's quick start runs as printed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import ccmin

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    # the child imports the ccmin under test, wherever pytest found it
    paths = [str(Path(ccmin.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("True")
