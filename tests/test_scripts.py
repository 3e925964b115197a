"""The peak-RSS gate that CI runs the CLI under, and the golden generator."""
import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"
PEAK_RSS = SCRIPTS / "peak_rss.py"
GOLDEN_DIR = Path(__file__).parent / "goldens"


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


def test_generate_goldens_rewrites_the_committed_reports(tmp_path, monkeypatch, capsys):
    # run as documented, in a checkout where the package is not installed:
    # the script's child finds it in src/ without a PYTHONPATH of its own
    spec = importlib.util.spec_from_file_location(
        "generate_goldens", SCRIPTS / "generate_goldens.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    jobs = sorted(GOLDEN_DIR.glob("*.job.json"))
    assert len(jobs) == 6
    for job in jobs:
        shutil.copy(job, tmp_path)
    monkeypatch.setattr(script, "GOLDEN_DIR", tmp_path)
    monkeypatch.delenv("PYTHONPATH", raising=False)
    assert script.main() == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    for job in jobs:
        report = job.name.replace(".job.json", ".report.json")
        assert (tmp_path / report).read_bytes() == (GOLDEN_DIR / report).read_bytes(), report
