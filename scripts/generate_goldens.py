"""Regenerate the golden CLI reports (one fixture per Lounesto class).

Run from the repository root after an intentional output-format change:

    python scripts/generate_goldens.py

The committed job documents tests/goldens/<name>.job.json are the fixtures'
inputs and are only read; each report <name>.report.json is rewritten from
its job by a `python -m spinorlab` child that imports the package from this
checkout's src/, so the package need not be installed.  The reports are
compared byte-for-byte by tests/test_cli.py and the acceptance suite.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "goldens"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    return env


def main() -> int:
    for job_path in sorted(GOLDEN_DIR.glob("*.job.json")):
        name = job_path.name.removesuffix(".job.json")
        proc = subprocess.run(
            [sys.executable, "-m", "spinorlab", "--job", str(job_path)],
            stdin=subprocess.DEVNULL, capture_output=True, check=True, env=child_env(),
        )
        (GOLDEN_DIR / f"{name}.report.json").write_bytes(proc.stdout)
        print(f"wrote {name}: {len(proc.stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
