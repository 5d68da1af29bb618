"""The benchmark's self-test runs against this checkout's sources.

The benchmark imports and wraps public names of ``orientrack`` by name, so a
refactor that drops one fails here, in the unit tests, rather than only when
the benchmark is run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
