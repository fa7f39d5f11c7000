"""The benchmark harness's own self-test, as a tier-1 gate.

``benchmarks/harness`` wraps ``src/`` readers and hash families in
delegating proxies; a ``src/`` change that breaks them should fail
here, not in the next benchmark run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "harness" / "run.py"


def test_harness_self_test_passes():
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--self-test"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "self-test ok" in done.stdout
