"""The peak-RSS gate that CI runs the CLI under."""
import re
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


def test_peak_rss_gate_reports_the_childs_minor_faults():
    # a child that writes 8 MiB of fresh memory takes at least one minor
    # fault per 4 KiB page of it
    proc = _gate(64, sys.executable, "-c", "b'x' * (8 << 20)")
    assert proc.returncode == 0
    match = re.fullmatch(r"exit 0, peak RSS [0-9.]+ MB, (\d+) minor faults \(limit 64 MB\)\n",
                         proc.stdout)
    assert match, proc.stdout
    assert int(match.group(1)) >= (8 << 20) // 4096
