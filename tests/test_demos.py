"""The demos run end to end, so an API change cannot break one silently.

Demo 07, the slowest (about 12 s on a 2-core x86 host), is the one that walks
train -> checkpoint -> `Runner.load` -> `eval_report` for both a ScaleGMN
model and a baseline.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_demo_set_is_complete():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
