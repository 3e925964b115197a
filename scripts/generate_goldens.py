"""Regenerate the golden CLI reports (one fixture per Lounesto class).

Run from the repository root after an intentional output-format change:

    python scripts/generate_goldens.py

The committed job documents tests/goldens/<name>.job.json are the fixtures'
inputs and are only read; each report <name>.report.json is rewritten from
its job.  The reports are compared byte-for-byte by tests/test_cli.py and
the acceptance suite.
"""
import subprocess
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "goldens"


def main() -> int:
    for job_path in sorted(GOLDEN_DIR.glob("*.job.json")):
        name = job_path.name.removesuffix(".job.json")
        proc = subprocess.run(
            [sys.executable, "-m", "spinorlab", "--job", str(job_path)],
            capture_output=True, check=True,
        )
        (GOLDEN_DIR / f"{name}.report.json").write_bytes(proc.stdout)
        print(f"wrote {name}: {len(proc.stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
