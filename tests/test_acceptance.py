"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the same
campaigns back the CLI's verify mode.
"""
import json
import subprocess
import sys
import time
from pathlib import Path

from spinorlab import verification

GOLDEN_DIR = Path(__file__).parent / "goldens"
SEED = 20260810


def _report(criterion: int, label: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE criterion {criterion:2d} [{label}]: {status} ({detail})")
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_01_fpk_identities():
    t0 = time.perf_counter()
    res = verification.check_fpk_identities(seed=SEED)
    seconds = time.perf_counter() - t0
    detail = f"max residual {res.worst:.3e} < 1e-10, {seconds:.2f} s"
    _report(1, "FPK scalar identities", res.passed and seconds < 10.0, detail)


def test_criterion_02_constructor_class_table():
    res = verification.check_constructor_class_table(seed=SEED + 1)
    _report(2, "constructor class table",
            res.passed, f"{int(res.worst)} misclassifications; {res.details}")


def test_criterion_03_helicity_dichotomy():
    res = verification.check_helicity_dichotomy(seed=SEED + 2)
    _report(3, "helicity dichotomy",
            res.passed, f"{int(res.worst)} exceptions; {res.details}")


def test_criterion_04_parity_dirac_dynamics():
    res = verification.check_parity_dirac_link(seed=SEED + 3)
    _report(4, "Dirac dynamics from parity link",
            res.passed, f"max residual {res.worst:.3e} < 1e-12 at pmag/m up to 1e3")


def test_criterion_05_dual_helicity_never_dirac_and_flip():
    res = verification.check_dual_helicity_dirac(seed=SEED + 4)
    _report(5, "dual-helicity never-Dirac + flip", res.passed, res.details)


def test_criterion_06_charge_conjugation():
    res = verification.check_charge_conjugation(seed=SEED + 5)
    _report(6, "charge conjugation", res.passed, res.details)


def test_criterion_07_theta_link():
    res = verification.check_theta_link(seed=SEED + 6)
    _report(7, "theta-link identity",
            res.passed, f"max residual {res.worst:.3e} < 1e-12")


def test_criterion_08_klein_gordon():
    res = verification.check_klein_gordon(seed=SEED + 7)
    _report(8, "on-shell Klein-Gordon consistency",
            res.passed, f"max deviation {res.worst:.3e} < 1e-12 * m^2")


def test_criterion_09_cli_determinism_and_goldens(tmp_path):
    ok = True
    details = []
    for i in range(1, 7):
        job = str(GOLDEN_DIR / f"class{i}.job.json")
        expected = (GOLDEN_DIR / f"class{i}.report.json").read_bytes()
        runs = [
            subprocess.run([sys.executable, "-m", "spinorlab", "--job", job],
                           capture_output=True, check=True).stdout
            for _ in range(2)
        ]
        identical = runs[0] == runs[1]
        matches = runs[0] == expected
        ok = ok and identical and matches
        details.append(f"class{i}: {'ok' if identical and matches else 'MISMATCH'}")
        index = json.loads(expected)["lounesto"]["index"]
        ok = ok and index == i
    _report(9, "CLI determinism + golden reports", ok, "; ".join(details))


def test_criterion_10_verify_suite_runtime():
    t0 = time.perf_counter()
    results = verification.run_verification_suite(seed=SEED)
    elapsed = time.perf_counter() - t0
    all_passed = all(r.passed for r in results)
    detail = (f"{sum(r.passed for r in results)}/{len(results)} properties passed "
              f"in {elapsed:.1f} s < 60 s")
    _report(10, "full verify suite", all_passed and elapsed < 60.0, detail)
