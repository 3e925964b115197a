"""Run the steps of the tier-1 CI workflow on this machine.

    python scripts/run_workflow.py

Each ``run:`` step of .github/workflows/tier1.yml runs in order from the
repository root, as the hosted runner runs it: its script through
``bash --noprofile --norc -eo pipefail``, with the workflow's, the job's and
the step's ``env:`` on top of this process's environment, and RUNNER_TEMP
set to one fresh temporary directory for the whole job.  ``uses:`` steps
(checkout, setup-python) and the step that installs packages with pip are
skipped: the interpreter that runs this script and its packages stand in for
them.  A failing step does not stop the later ones.  The script prints PASS,
FAIL or SKIP for each step and exits 0 only when no step failed.

It reads the workflow with PyYAML, which CI does not install, so it is a
local tool and not part of the tier-1 suite.
"""
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _env(*sections) -> dict:
    env = dict(os.environ)
    for section in sections:
        env.update({key: str(value) for key, value in (section or {}).items()})
    return env


def main() -> int:
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    failed = 0
    with tempfile.TemporaryDirectory(prefix="runner-temp-") as runner_temp:
        for job_name, job in doc["jobs"].items():
            for number, step in enumerate(job["steps"], 1):
                label = f"{job_name} step {number}: {step.get('name', step.get('uses'))}"
                script = step.get("run")
                if script is None or "pip install" in script:
                    print(f"SKIP  {label}", flush=True)
                    continue
                env = _env(doc.get("env"), job.get("env"), step.get("env"))
                env["RUNNER_TEMP"] = runner_temp
                start = time.perf_counter()
                proc = subprocess.run(
                    ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script],
                    cwd=ROOT, env=env, stdin=subprocess.DEVNULL)
                verdict = "PASS" if proc.returncode == 0 else "FAIL"
                failed += proc.returncode != 0
                print(f"{verdict}  {label} ({time.perf_counter() - start:.1f} s, "
                      f"exit {proc.returncode})", flush=True)
    print(f"{failed} step(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
