"""The host clock module: peak RSS is this process's own."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.perf.clock import peak_rss_bytes

BALLAST_MB = 150

#: a helper that touches ~150 MB, then asks a fresh child for its peak RSS
_HELPER = f"""
import subprocess, sys
ballast = bytearray({BALLAST_MB} * 1024 * 1024)
for i in range(0, len(ballast), 4096):
    ballast[i] = 1
child = "from repro.perf.clock import peak_rss_bytes; print(peak_rss_bytes())"
print(subprocess.run([sys.executable, "-c", child], capture_output=True,
                     text=True, check=True).stdout.strip())
"""


def test_peak_rss_is_positive_and_monotone():
    first = peak_rss_bytes()
    assert first > 0
    assert peak_rss_bytes() >= first


def test_a_child_does_not_report_its_spawners_peak():
    """``ru_maxrss`` folds the spawning process's peak into a child at exec;
    the child of a 150 MB process must still report its own, small peak."""
    src = Path(repro.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _HELPER],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    child_peak = int(proc.stdout)
    assert 0 < child_peak < BALLAST_MB * 1024 * 1024 // 2
