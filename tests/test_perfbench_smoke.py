"""The benchmark harness still runs against the package.

``perfbench/smoke.py`` drives every workload at a tiny load through the
names the harness relies on (the public API, ``cli.main`` and the counted
``lp._pivot``) and checks that every metric is emitted.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
