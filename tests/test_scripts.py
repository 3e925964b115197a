"""The peak-RSS gate that CI runs the CLI under."""
import subprocess
import sys
from pathlib import Path

import pytest

PEAK_RSS = Path(__file__).parent.parent / "scripts" / "peak_rss.py"


def _gate(limit_mb, *cmd):
    return subprocess.run([sys.executable, str(PEAK_RSS), str(limit_mb), "--", *cmd],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)


@pytest.mark.parametrize("limit_mb, child_exit, gate_exit", [
    (64, 0, 0),
    (1, 0, 1),  # any interpreter peaks above 1 MB
    (64, 3, 1),
])
def test_peak_rss_gate(limit_mb, child_exit, gate_exit):
    proc = _gate(limit_mb, sys.executable, "-c", f"raise SystemExit({child_exit})")
    assert proc.returncode == gate_exit
    assert proc.stdout.startswith(f"exit {child_exit}, peak RSS ")
