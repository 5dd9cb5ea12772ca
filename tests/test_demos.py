"""The demos run to completion and leave nothing in the temp dir."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import histrepair

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "demo_blame_study.py", "demo_history_context.py", "demo_repair_loop.py",
])
def test_demo_cleans_up_its_work_dir(demo, tmp_path):
    src = str(Path(histrepair.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
