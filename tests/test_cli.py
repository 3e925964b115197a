"""Job parsing, report generation, exit codes and golden files."""
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from spinorlab import sampling
from spinorlab.classify import CATEGORY_NAMES, analyze
from spinorlab.cli import _run_sample, main, parse_job, run_job
from spinorlab.errors import JobError
from spinorlab.report import emit_structured
from spinorlab.sampling import DRAW_ROWS, SAMPLE_BLOCK_ROWS
from spinorlab.symmetries import charge_conjugate_batch
from spinorlab.tolerances import EXACT

GOLDEN_DIR = Path(__file__).parent / "goldens"
PEAK_RSS = Path(__file__).parent.parent / "scripts" / "peak_rss.py"
# the `phases` a symmetries report echoes when the job gives none
DEFAULT_PHASES = {"theta1": 0.0, "theta2": 3.141592653589793,
                  "zeta1": 1 + 0j, "zeta2": 1 + 0j}


def run_cli(args=(), stdin_text=None, tmp_path=None, doc=None):
    argv = [sys.executable, "-m", "spinorlab", *args]
    if doc is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv += ["--job", str(path)]
    proc = subprocess.run(argv, input=stdin_text, capture_output=True, text=True)
    return proc


class TestParseJob:
    def test_constructor_form(self):
        job = parse_job({
            "mode": "classify",
            "spinor": {"family": "dual_helicity", "pair": "+-", "a": [1, 0],
                       "c": [1, 0], "theta": 1.5707963, "phi": 0},
        })
        assert job.spinor_spec["family"] == "dual_helicity"
        assert job.spinor_spec["a"] == 1 + 0j

    def test_raw_form(self):
        job = parse_job({
            "mode": "classify",
            "spinor": {"components": [[1, 0], [0, 0], [1, 0], [0, 0]]},
        })
        assert job.spinor_spec == {"components": [1 + 0j, 0j, 1 + 0j, 0j]}

    def test_missing_momentum_in_symmetries_mode(self):
        with pytest.raises(JobError, match="momentum required for Dirac residual"):
            parse_job({
                "mode": "symmetries",
                "spinor": {"components": [[1, 0], [0, 0], [1, 0], [0, 0]]},
            })

    def test_both_input_forms_rejected(self):
        with pytest.raises(JobError, match="exactly one"):
            parse_job({
                "mode": "classify",
                "spinor": {"components": [[1, 0]] * 4, "family": "weyl"},
            })

    def test_out_of_range_angle(self):
        with pytest.raises(JobError, match="polar angle"):
            parse_job({
                "mode": "classify",
                "spinor": {"family": "single_helicity", "pair": "++",
                           "a": [1, 0], "c": [1, 0], "theta": 3.5, "phi": 0},
            })

    def test_unknown_key_rejected(self):
        raw = {"components": [[1, 0], [0, 0], [1, 0], [0, 0]]}
        momentum = {"m": 1.0, "pmag": 0.0, "theta": 0.0, "phi": 0.0}
        # keys that only another mode reads count as unknown, not ignored
        for doc in (
            {"mode": "verify", "bogus": 1},
            {"mode": "sample", "family": "random_raw", "spinor": raw},
            {"mode": "sample", "family": "random_raw", "momentum": momentum},
            {"mode": "sample", "family": "random_raw", "boost": False},
            {"mode": "verify", "spinor": raw},
            {"mode": "verify", "family": "weyl"},
            {"mode": "classify", "spinor": raw, "family": "random_raw"},
            {"mode": "symmetries", "spinor": raw, "momentum": momentum,
             "family": "weyl"},
        ):
            with pytest.raises(JobError, match="unknown key"):
                parse_job(doc)

    def test_common_keys_valid_in_every_mode(self):
        common = {"seed": 3, "count": 5, "format": "human",
                  "tolerances": {"epsilon_class": 1e-9}, "phases": {"theta1": 0.0}}
        raw = {"components": [[1, 0], [0, 0], [1, 0], [0, 0]]}
        for doc in (
            {"mode": "verify"},
            {"mode": "sample", "family": "random_raw"},
            {"mode": "classify", "spinor": raw},
        ):
            assert parse_job({**doc, **common}).seed == 3

    def test_normalized_echo_round_trips(self):
        job = parse_job({
            "mode": "symmetries",
            "spinor": {"family": "self_conjugate", "sign": -1,
                       "c": [0.5, 0.5], "d": [1, 0]},
            "momentum": {"m": 2.0, "pmag": 1.0},
            "seed": 9,
        })
        again = parse_job(json.loads(emit_structured(job.normalized)))
        assert again == job
        assert again.normalized == job.normalized

    def test_threshold_and_unit_phase_bounds(self):
        # a zero helicity threshold is refused as a zero class threshold is,
        # and a phase passes while | |zeta| - 1 | is at most 1e-12
        with pytest.raises(JobError, match="thresholds must be positive"):
            parse_job({"mode": "verify", "tolerances": {"epsilon_helicity": 0}})
        parse_job({"mode": "verify", "phases": {"zeta1": [1 + 0.5e-12, 0]}})
        for name in ("zeta1", "zeta2"):
            with pytest.raises(JobError, match=f"phases.{name}: must be a unit phase"):
                parse_job({"mode": "verify", "phases": {name: [1 + 1.5e-12, 0]}})

    def test_sample_mode_requires_family(self):
        with pytest.raises(JobError, match="family"):
            parse_job({"mode": "sample", "count": 10})

    def test_tolerance_overrides_applied(self):
        job = parse_job({
            "mode": "classify",
            "spinor": {"components": [[1, 0], [0, 0], [1, 0], [0, 0]]},
            "tolerances": {"epsilon_class": 1e-7},
        })
        assert job.tolerances.eps_class == 1e-7

    def test_phase_defaults(self):
        phases = parse_job({"mode": "verify"}).normalized["phases"]
        assert phases["theta1"] == 0.0
        assert phases["theta2"] == math.pi


class TestRunJob:
    def test_classify_pinned_spinor(self):
        job = parse_job({
            "mode": "classify",
            "spinor": {"components": [[1, 0], [0, 0], [1, 0], [0, 0]]},
        })
        report, code = run_job(job)
        assert code == 0
        assert report["lounesto"] == {"index": 2, "annotation": "single-helicity"}
        assert report["bilinears"]["sigma"] == 2.0

    def test_symmetries_massless_raw_skips_the_dirac_and_theta_link_checks(self):
        job = parse_job({
            "mode": "symmetries",
            "spinor": {"components": [[1, 0], [0.5, 0.25], [0, 1], [0, 0]]},
            "momentum": {"m": 0, "pmag": 1, "theta": 0.7, "phi": 0.2},
        })
        report, code = run_job(job)
        assert code == 0
        assert report["findings"] == [
            "helicity not aligned with supplied direction",
            "parity check skipped: parity needs the construction record of the "
            "spinor; raw spinors cannot be rebuilt at the reflected momentum",
            "massless momentum; Dirac diagnostics skipped",
            "massless momentum; theta-link check skipped",
        ]
        assert report["symmetries"] == {
            "parity": {"eigenvalue": None, "residual": None},
            "charge_conjugation": {
                "eigenvalue": None, "residual": 1.065427207806866,
                "involution_residual": 0.0,
                "constraints": {
                    "norm_ad": 0.43243243243243246, "norm_bc": 0.2972972972972973,
                    "phase_ad_plus": 1.0, "phase_bc_plus": 0.45950584109472237,
                    "phase_ad_minus": 1.0, "phase_bc_minus": 1.9464979789354604,
                },
            },
            "dirac": {"residual_plus": None, "residual_minus": None,
                      "flip_residual": None},
            "theta_link_residual": None,
            "phases": DEFAULT_PHASES,
        }

    def test_symmetries_right_weyl_skips_the_theta_link_check(self):
        job = parse_job({
            "mode": "symmetries",
            "spinor": {"family": "weyl", "side": "right",
                       "block": [[0.6, -0.2], [0.1, 0.9]]},
            "momentum": {"m": 1.5, "pmag": 40.0, "theta": 2.1, "phi": 5.0},
        })
        report, code = run_job(job)
        assert code == 0
        assert report["findings"] == [
            "parity check skipped: spinor was not built at a momentum; parity "
            "at pmag > 0 is undefined for it",
            "left block is null; theta-link check skipped",
        ]
        assert report["symmetries"] == {
            "parity": {"eigenvalue": None, "residual": None},
            "charge_conjugation": {
                "eigenvalue": None, "residual": 1.4142135623730951,
                "involution_residual": 0.0,
                "constraints": {
                    "norm_ad": 0.32786885245901637, "norm_bc": 0.6721311475409837,
                    "phase_ad_plus": 1.0, "phase_bc_plus": 1.0,
                    "phase_ad_minus": 1.0, "phase_bc_minus": 1.0,
                },
            },
            "dirac": {"residual_plus": 48.238306176759664,
                      "residual_minus": 48.238306176759664, "flip_residual": None},
            "theta_link_residual": None,
            "phases": DEFAULT_PHASES,
        }

    def test_symmetries_self_conjugate(self):
        job = parse_job({
            "mode": "symmetries",
            "spinor": {"family": "self_conjugate", "sign": 1, "c": [0, 0],
                       "d": [1, 0]},
            "momentum": {"m": 1.0, "pmag": 2.0},
        })
        report, code = run_job(job)
        assert code == 0
        sym = report["symmetries"]
        assert sym["charge_conjugation"]["eigenvalue"] == 1
        assert sym["dirac"]["residual_plus"] > 1.0

    def test_boosted_parity_linked_satisfies_dirac(self):
        job = parse_job({
            "mode": "symmetries",
            "spinor": {"family": "parity_linked", "helicity": 1},
            "momentum": {"m": 1.0, "pmag": 10.0, "theta": 0.7, "phi": 0.2},
        })
        report, _ = run_job(job)
        assert report["symmetries"]["dirac"]["residual_plus"] < 1e-12
        assert report["symmetries"]["parity"]["eigenvalue"] == 1

    def test_sample_reports_aggregates(self):
        job = parse_job({"mode": "sample", "family": "dual_helicity",
                         "seed": 3, "count": 200})
        report, code = run_job(job)
        assert code == 0
        counts = report["sample"]["class_counts"]
        assert counts["4"] + counts["5"] == 200
        assert report["sample"]["helicity_category_counts"]["dual"] == 200

    def test_seed_changes_only_sample_fields(self):
        r1, _ = run_job(parse_job({"mode": "sample", "family": "random_raw",
                                   "seed": 1, "count": 50}))
        r2, _ = run_job(parse_job({"mode": "sample", "family": "random_raw",
                                   "seed": 2, "count": 50}))
        assert r1["conventions"] == r2["conventions"]
        assert r1["job"]["format"] == r2["job"]["format"]
        assert r1["sample"] != r2["sample"]

    def test_class_category_mismatch_is_a_finding(self):
        # a class-2 spinor whose blocks pass as opposite helicities at a
        # loose eps_helicity
        report, code = run_job(parse_job({
            "mode": "classify",
            "spinor": {"components": [[1, 0], [0, 0], [0.3, 0], [1, 0]]},
            "momentum": {"m": 1, "pmag": 0, "theta": 0, "phi": 0},
            "tolerances": {"epsilon_helicity": 0.6},
        }))
        assert code == 0
        assert report["lounesto"]["index"] == 2
        assert report["helicity"]["category"] == "dual"
        assert report["findings"] == [
            "class annotation 'single-helicity' does not match measured "
            "helicity category 'dual'"]

    def test_unclassifiable_is_a_finding(self):
        report, code = run_job(parse_job({
            "mode": "classify",
            "spinor": {"components": [[1, 0], [0, 0], [1, 0], [0, 0]]},
            "tolerances": {"epsilon_class": 10},
        }))
        assert code == 0
        assert report["lounesto"] == {"index": None,
                                      "annotation": "unclassifiable"}
        assert ("all of sigma, omega, K, S test zero with J != 0: numerically "
                "degenerate input") in report["findings"]

    def test_report_embeds_conventions(self):
        report, _ = run_job(parse_job({
            "mode": "classify",
            "spinor": {"components": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        }))
        assert report["conventions"]["metric"] == "+---"
        assert "gamma5" in report["conventions"]


class TestCliProcess:
    def test_stdin_input_and_exit_zero(self):
        doc = json.dumps({
            "mode": "classify",
            "spinor": {"components": [[1, 0], [0, 0], [1, 0], [0, 0]]},
        })
        proc = run_cli(stdin_text=doc)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["lounesto"]["index"] == 2

    def test_verify_does_not_wait_on_an_open_stdin(self, tmp_path):
        # the flags form the whole job, so stdin, never closed, is not read
        with open(tmp_path / "out.json", "w") as out:
            proc = subprocess.Popen(
                [sys.executable, "-m", "spinorlab", "--mode", "verify"],
                stdin=subprocess.PIPE, stdout=out, stderr=subprocess.DEVNULL)
            try:
                code = proc.wait(timeout=60)
            finally:
                proc.kill()
                proc.stdin.close()
                proc.wait()
        assert code == 0
        assert json.loads((tmp_path / "out.json").read_text())["verify"]["all_passed"]

    def test_input_error_exit_2(self, tmp_path):
        proc = run_cli(doc={"mode": "nonsense"}, tmp_path=tmp_path)
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "input"

    def test_malformed_json_reports_position(self):
        proc = run_cli(stdin_text="{not json")
        assert proc.returncode == 2
        assert "line 1" in json.loads(proc.stderr)["error"]["message"]

    def test_domain_error_exit_3(self, tmp_path):
        proc = run_cli(doc={
            "mode": "classify",
            "spinor": {"family": "dual_helicity", "pair": "+-", "a": [1, 0],
                       "c": [1, 0], "theta": 0.0, "phi": 0.0},
        }, tmp_path=tmp_path)
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"]["type"] == "domain"

    def test_zero_spinor_domain_error(self, tmp_path):
        proc = run_cli(doc={
            "mode": "classify",
            "spinor": {"components": [[0, 0], [0, 0], [0, 0], [0, 0]]},
        }, tmp_path=tmp_path)
        assert proc.returncode == 3

    def test_flag_overrides(self, tmp_path):
        doc = {"mode": "sample", "family": "random_raw", "seed": 1, "count": 10}
        proc = run_cli(["--seed", "5", "--count", "20"], doc=doc,
                       tmp_path=tmp_path)
        report = json.loads(proc.stdout)
        assert report["job"]["seed"] == 5
        assert report["sample"]["count"] == 20

    def test_tolerance_and_phase_flags_override_the_document(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "mode": "classify",
            "spinor": {"components": [[1, 0], [0, 0], [0.3, 0], [1, 0]]},
            "momentum": {"m": 1, "pmag": 0, "theta": 0, "phi": 0},
            "tolerances": {"epsilon_class": 1e-7, "epsilon_helicity": 1e-7},
            "phases": {"theta1": 0.5, "theta2": 1.0},
        }), encoding="utf-8")
        code = main(["--job", str(path), "--epsilon-class", "1e-8",
                     "--epsilon-helicity", "0.6", "--theta1", "0.25",
                     "--theta2", "2.5"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["job"]["tolerances"] == {"epsilon_class": 1e-8,
                                               "epsilon_helicity": 0.6}
        assert report["job"]["phases"]["theta1"] == 0.25
        assert report["job"]["phases"]["theta2"] == 2.5
        # the loose eps_helicity reaches the helicity verdict
        assert report["helicity"]["category"] == "dual"

    def test_human_verify_lists_each_property_field(self, capsys):
        assert main(["--mode", "verify", "--format", "human"]) == 0
        out = capsys.readouterr().out
        assert "  properties.0.name: clifford-algebra\n" in out
        assert "{'" not in out

    def test_human_format_contains_annotation(self, tmp_path):
        proc = run_cli(["--format", "human"], doc={
            "mode": "classify",
            "spinor": {"family": "weyl", "side": "right",
                       "block": [[1, 0], [0, 0]]},
        }, tmp_path=tmp_path)
        assert proc.returncode == 0
        assert "Not well defined" in proc.stdout

    def test_sample_determinism_bytes(self, tmp_path):
        doc = {"mode": "sample", "family": "random_raw", "seed": 42,
               "count": 1000}
        out1 = run_cli(doc=doc, tmp_path=tmp_path).stdout
        out2 = run_cli(doc=doc, tmp_path=tmp_path).stdout
        assert out1 == out2
        assert json.loads(out1)["sample"]["count"] == 1000

    def test_main_in_process_matches_subprocess(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        doc = {"mode": "classify",
               "spinor": {"components": [[1, 0], [0, 0], [1, 0], [0, 0]]}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["--job", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        proc = run_cli(doc=doc, tmp_path=tmp_path)
        assert captured.out == proc.stdout

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_exits_1_with_an_empty_stderr(self, unbuffered):
        # the reader of stdout has gone before the report is written
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "spinorlab", "--job",
                 str(GOLDEN_DIR / "class5.job.json")],
                stdin=subprocess.DEVNULL, stdout=write_end, stderr=subprocess.PIPE,
                env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_main_in_process_freezes_no_objects(self, tmp_path, capsys):
        # the in-process API leaves the collector's state as it found it
        doc = {"mode": "sample", "family": "weyl", "seed": 1, "count": 10}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        before = gc.get_freeze_count()
        assert main(["--job", str(path)]) == 0
        assert gc.get_freeze_count() == before
        assert json.loads(capsys.readouterr().out)["sample"]["count"] == 10


def _extreme_scale_jobs():
    """Spinor and momentum magnitudes across the float64 exponent range."""
    direction = {"theta": 0.7, "phi": 0.2}
    for scale in (1e-300, 1e-200, 1e-160, 1e-77, 1e77, 1e160, 1e200, 1e300):
        comps = [[scale, 0.0], [0.5 * scale, 0.25 * scale], [0.3 * scale, 0.0],
                 [0.0, scale]]
        for mode in ("classify", "symmetries"):
            yield f"{mode}-raw-{scale:g}", {
                "mode": mode, "spinor": {"components": comps},
                "momentum": {"m": 1.0, "pmag": 1.0, **direction}}
    # a normal-range spinor whose a and d components are tiny
    yield "symmetries-raw-mixed", {
        "mode": "symmetries",
        "spinor": {"components": [[1e-200, 0], [1, 0], [1, 0], [0, 1e-200]]},
        "momentum": {"m": 1.0, "pmag": 1.0, **direction}}
    for m, pmag in ((1e-300, 1.0), (1.0, 1e-300), (1e300, 1.0), (1.0, 1e300),
                    (1e-300, 1e300), (1e300, 1e-300), (1.0, 1e150),
                    (1e-300, 1e150), (1e-150, 1.0), (1e150, 1e150),
                    (1e-300, 1e-300), (1e300, 1e300)):
        momentum = {"m": m, "pmag": pmag, **direction}
        yield f"dual-m{m:g}-p{pmag:g}", {
            "mode": "symmetries", "boost": True, "momentum": momentum,
            "spinor": {"family": "dual_helicity", "pair": "+-", "a": [1, 0],
                       "c": [0.5, 0.5], **direction}}
        yield f"parity-m{m:g}-p{pmag:g}", {
            "mode": "symmetries", "momentum": momentum,
            "spinor": {"family": "parity_linked", "helicity": 1}}
        yield f"raw-m{m:g}-p{pmag:g}", {
            "mode": "symmetries", "momentum": momentum,
            "spinor": {"components": [[1, 0], [0.5, 0.25], [0, 0], [0, 0]]}}
    # at theta = 0 the rest block has an exact zero component, which an
    # out-of-range boost factor multiplies
    for m, pmag in ((1e-310, 1.0), (1e-300, 1e300)):
        yield f"parity-theta0-m{m:g}-p{pmag:g}", {
            "mode": "classify",
            "momentum": {"m": m, "pmag": pmag, "theta": 0.0, "phi": 0.1},
            "spinor": {"family": "parity_linked", "helicity": 1}}
    # the momentum takes its direction from a constructor that cannot form it
    for name, spinor in (
            ("self-conjugate-1e300", {"family": "self_conjugate", "sign": 1,
                                      "c": [1e300, 0], "d": [1e300, 0]}),
            ("weyl-1e300", {"family": "weyl", "side": "right",
                            "block": [[1e300, 0], [1e300, 0]]}),
            ("singular-c1e-170", {"family": "singular_form", "b": [1, 0],
                                  "c": [1e-170, 0], "d": [1, 0]}),
            ("singular-bd1e300", {"family": "singular_form", "b": [1e300, 0],
                                  "c": [1, 0], "d": [1e300, 0]})):
        yield f"direction-{name}", {"mode": "symmetries", "spinor": spinor,
                                    "momentum": {"m": 1.0, "pmag": 1.0}}
    # ... and one boosted along an explicit direction: the nan direction is
    # the cause, not a mismatch with the boost
    yield "boost-direction-self-conjugate-1e300", {
        "mode": "symmetries", "boost": True,
        "spinor": {"family": "self_conjugate", "sign": 1, "c": [1e300, 0],
                   "d": [1e300, 0]},
        "momentum": {"m": 1.0, "pmag": 1.0, **direction}}
    # at the poles one branch of the Dirac kernel's E -+ pz divides by zero
    for theta in (0.0, math.pi):
        yield f"pole-theta{theta:.4g}-p1e+10", {
            "mode": "symmetries",
            "momentum": {"m": 1.0, "pmag": 1e10, "theta": theta, "phi": 0.0},
            "spinor": {"components": [[1, 0], [0.5, 0.25], [0, 0], [0, 0]]}}


EXTREME_SCALE_JOBS = dict(_extreme_scale_jobs())
# jobs that must end in a report, not a domain error
EXTREME_SCALE_REPORTS = {"symmetries-raw-mixed"}
# domain errors whose message must name the out-of-range magnitudes
EXTREME_SCALE_MESSAGES = {
    "boost-direction-self-conjugate-1e300":
        "the spinor's direction is not representable in float64 at its magnitudes",
}


# the overflow that precedes a domain error is expected and must stay silent:
# a numpy warning on stderr fails the job here
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", EXTREME_SCALE_JOBS)
def test_extreme_scales_end_in_report_or_domain_error(name, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(EXTREME_SCALE_JOBS[name]), encoding="utf-8")
    code = main(["--job", str(path)])
    captured = capsys.readouterr()
    assert code in ((0,) if name in EXTREME_SCALE_REPORTS else (0, 3))
    if code == 0:
        assert "lounesto" in json.loads(captured.out)
    else:
        error = json.loads(captured.err)["error"]
        assert error["type"] == "domain"
        if name in EXTREME_SCALE_MESSAGES:
            assert EXTREME_SCALE_MESSAGES[name] in error["message"]


@pytest.mark.filterwarnings("error")
def test_overflow_before_a_domain_error_stays_silent(tmp_path, capsys):
    # the Dirac residual's norm over m |psi| overflows at pmag = 1.7e308, and
    # c times a helicity fraction above 1 overflows in the constructor; in
    # both a finiteness guard follows and names the failure
    docs = [
        {"mode": "symmetries",
         "spinor": {"family": "self_conjugate", "sign": 1, "c": [1, 0], "d": [0.5, 0.2]},
         "momentum": {"m": 1, "pmag": 1.7e308}},
        {"mode": "symmetries",
         "spinor": {"family": "dual_helicity", "pair": "+-", "a": [1, 0],
                    "c": [1.7e308, 1.7e308], "theta": 0.7, "phi": 2.3},
         "momentum": {"m": 1, "pmag": 1}},
    ]
    path = tmp_path / "job.json"
    for doc in docs:
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--job", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert (error["type"], error["exit_code"]) == ("domain", 3)


_RAW = {"components": [[1, 0], [0, 0], [1, 0], [0, 0]]}
_AXIS = {"m": 1, "pmag": 2, "theta": 0.5, "phi": 0.0}
_SINGLE = {"family": "single_helicity", "pair": "++", "a": [1, 0], "c": [1, 0],
           "theta": 1.0, "phi": 0.0}
_PARITY = {"family": "parity_linked", "helicity": 1}
_SELF_CONJUGATE = {"family": "self_conjugate", "sign": 1, "c": [1, 0], "d": [0.5, 0.5]}
_WEYL = {"family": "weyl", "side": "right", "block": [[1, 0], [0, 0]]}


def _spinor_job(spinor, **rest):
    return {"mode": "classify", "spinor": spinor, **rest}


# one document per input check of the job parser, with the message it gives
JOB_INPUT_ERRORS = {
    "format": ({"mode": "verify", "format": "xml"},
               "format: must be 'structured' or 'human', got 'xml'"),
    "seed-negative": ({"mode": "verify", "seed": -1}, "seed: must be nonnegative"),
    "seed-float": ({"mode": "verify", "seed": 1.5},
                   "seed: expected an integer, got 1.5"),
    "tolerances-list": ({"mode": "verify", "tolerances": [1]},
                        "tolerances: expected an object, got list"),
    "tolerances-zero": ({"mode": "verify", "tolerances": {"epsilon_class": 0}},
                        "tolerances: thresholds must be positive"),
    "tolerances-string": ({"mode": "verify", "tolerances": {"epsilon_helicity": "small"}},
                          "tolerances.epsilon_helicity: expected a number, got 'small'"),
    "zeta1-not-unit": ({"mode": "verify", "phases": {"zeta1": [2, 0]}},
                       "phases.zeta1: must be a unit phase"),
    "zeta1-not-pair": ({"mode": "verify", "phases": {"zeta1": [1]}},
                       "phases.zeta1: expected a complex number as [re, im]"),
    "infinity": ({"mode": "verify", "phases": {"theta1": math.inf}},
                 "phases.theta1: number must be finite"),
    "array-document": ([{"mode": "verify"}], "job document must be a JSON object"),
    "spinor-missing": ({"mode": "classify"}, "spinor: required in classify mode"),
    "boost-not-bool": (_spinor_job(_RAW, boost=1), "boost: must be true or false"),
    "boost-without-momentum": (_spinor_job(_RAW, boost=True),
                               "momentum: required to build a boosted spinor"),
    "boosted-parity-linked": (_spinor_job(_PARITY, boost=True, momentum=_AXIS),
                              "boost: parity_linked spinors are built boosted already"),
    "sample-count-zero": ({"mode": "sample", "family": "weyl", "count": 0},
                          "count: must be at least 1 in sample mode"),
    "sample-unknown-family": ({"mode": "sample", "family": "majorana"},
                              "family: sample mode requires one of random_raw, "
                              "single_helicity, dual_helicity, self_conjugate, weyl, "
                              "got 'majorana'"),
    "sample-no-family": ({"mode": "sample"},
                         "family: sample mode requires one of random_raw, "
                         "single_helicity, dual_helicity, self_conjugate, weyl, got None"),
    "three-components": (_spinor_job({"components": [[1, 0], [0, 0], [1, 0]]}),
                         "spinor.components: expected four [re, im] pairs"),
    "unknown-family": (_spinor_job({"family": "majorana"}),
                       "spinor.family: unknown family 'majorana' (known: single_helicity, "
                       "dual_helicity, self_conjugate, weyl, singular_form, parity_linked)"),
    "single-helicity-missing-phi": (
        _spinor_job({k: v for k, v in _SINGLE.items() if k != "phi"}),
        "spinor: single_helicity requires 'phi'"),
    "self-conjugate-missing-d": (
        _spinor_job({"family": "self_conjugate", "sign": 1, "c": [1, 0]}),
        "spinor: self_conjugate requires 'd'"),
    "singular-form-missing-d": (
        _spinor_job({"family": "singular_form", "b": [1, 0], "c": [0, 0]}),
        "spinor: singular_form requires 'd'"),
    "dual-helicity-pair": (_spinor_job({**_SINGLE, "family": "dual_helicity"}),
                           "spinor.pair: must be one of ('+-', '-+'), got '++'"),
    "sign-two": (_spinor_job({**_SELF_CONJUGATE, "sign": 2}),
                 "spinor.sign: must be 1 or -1, got 2"),
    "sign-bool": ({"mode": "symmetries", "spinor": {**_SELF_CONJUGATE, "sign": True},
                   "momentum": {"m": 1, "pmag": 2}},
                  "spinor.sign: must be 1 or -1, got True"),
    "side": (_spinor_job({**_WEYL, "side": "up"}),
             "spinor.side: must be 'right' or 'left', got 'up'"),
    "one-pair-block": (_spinor_job({**_WEYL, "block": [[1, 0]]}),
                       "spinor.block: expected two [re, im] pairs"),
    "helicity-zero": (_spinor_job({**_PARITY, "helicity": 0}, momentum=_AXIS),
                      "spinor.helicity: must be 1 or -1, got 0"),
    "helicity-bool": (_spinor_job({**_PARITY, "helicity": True}, momentum=_AXIS),
                      "spinor.helicity: must be 1 or -1, got True"),
    "phase-string": (_spinor_job({**_PARITY, "phase": "pi"}, momentum=_AXIS),
                     "spinor.phase: expected a number, got 'pi'"),
    "amplitude-part-string": (_spinor_job({**_SINGLE, "a": [1, "x"]}),
                              "spinor.a[1]: expected a number, got 'x'"),
    "momentum-list": (_spinor_job(_RAW, momentum=[1]),
                      "momentum: expected an object, got list"),
    "mass-missing": (_spinor_job(_RAW, momentum={"pmag": 1, "theta": 0, "phi": 0}),
                     "momentum.m: mass is required"),
    "mass-negative": (_spinor_job(_RAW, momentum={**_AXIS, "m": -1}),
                      "momentum: m and pmag must be nonnegative"),
    "theta-without-phi": (_spinor_job(_SINGLE, momentum={"m": 1, "theta": 0.5}),
                          "momentum: theta and phi must be given together"),
    "no-default-direction": (_spinor_job(_RAW, momentum={"m": 1}),
                             "momentum: theta/phi required: the spinor carries no "
                             "direction to default to"),
}


@pytest.mark.parametrize("name", JOB_INPUT_ERRORS)
def test_job_input_errors_exit_2_with_their_message(name, tmp_path, capsys):
    doc, message = JOB_INPUT_ERRORS[name]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--job", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": {"type": "input", "message": message, "exit_code": 2}}


@pytest.mark.parametrize("doc, flag, message", [
    ({"mode": "verify", "tolerances": [1]}, ["--epsilon-class", "1e-9"],
     "tolerances: expected an object, got list"),
    ({"mode": "verify", "phases": "x"}, ["--theta1", "1"],
     "phases: expected an object, got str"),
])
def test_flag_into_a_section_that_is_not_an_object_is_an_input_error(
        doc, flag, message, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--job", str(path), *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": {"type": "input", "message": message, "exit_code": 2}}


def test_unreadable_job_file_and_non_object_document_are_input_errors(tmp_path, capsys):
    assert main(["--job", str(tmp_path / "missing.json")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "input"
    assert error["message"].startswith("cannot read job file: ")
    with pytest.raises(JobError, match="^expected an object, got list$"):
        parse_job([])


_NOT_UTF8 = b'{"mode": "verify"\xff}'


def test_job_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_bytes(_NOT_UTF8)
    assert main(["--job", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "input"
    assert error["message"].startswith("cannot read job file: ")


class _PipedStdin(io.TextIOWrapper):
    def isatty(self):
        return False


def test_standard_input_that_is_not_utf8_is_an_input_error(monkeypatch, capsys):
    stdin = _PipedStdin(io.BytesIO(_NOT_UTF8), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "input"
    assert error["message"].startswith("cannot read standard input: ")


# texts that get past the JSON decoder's syntax checks but cannot be decoded
UNDECODABLE_TEXTS = {
    "nested-too-deep": "[" * 200_000,
    "seed-of-5000-digits": '{"mode": "verify", "seed": ' + "7" * 5000 + "}",
}


@pytest.mark.parametrize("source", ["job-file", "stdin"])
@pytest.mark.parametrize("name", UNDECODABLE_TEXTS)
def test_undecodable_document_is_an_input_error(name, source, tmp_path, monkeypatch,
                                                capsys):
    text = UNDECODABLE_TEXTS[name]
    if source == "job-file":
        path = tmp_path / "job.json"
        path.write_text(text, encoding="utf-8")
        argv = ["--job", str(path)]
    else:
        monkeypatch.setattr(sys, "stdin", _PipedStdin(io.BytesIO(text.encode()),
                                                      encoding="utf-8"))
        argv = []
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert (error["type"], error["exit_code"]) == ("input", 2)
    assert error["message"].startswith("malformed job document: ")


@pytest.mark.parametrize("spinor_doc", [
    {"mode": "classify", "spinor": {"components": [[1, 0], [0, 0], [1, 0], [0, 0]]}},
    {"mode": "sample", "family": "random_raw", "seed": 3, "count": 1000},
    {"mode": "sample", "family": "dual_helicity", "seed": 3, "count": 1000},
], ids=["classify", "sample-random-raw", "sample-dual-helicity"])
def test_largest_class_threshold_tests_every_bilinear_zero(spinor_doc, tmp_path, capsys):
    # an infinite zero scale is the limit of a large threshold: every finite
    # bilinear tests zero, with the verdicts of any threshold far above 1
    path = tmp_path / "job.json"
    outputs = []
    for eps in (1e308, 10):
        path.write_text(json.dumps({**spinor_doc, "tolerances": {"epsilon_class": eps}}),
                        encoding="utf-8")
        assert main(["--job", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        del report["job"]
        outputs.append(report)
    assert outputs[0] == outputs[1]
    if spinor_doc["mode"] == "classify":
        assert outputs[0]["lounesto"]["annotation"] == "unclassifiable"
    else:
        assert outputs[0]["sample"]["class_counts"]["unclassifiable"] == 1000


@pytest.mark.parametrize("name", [f"class{i}" for i in range(1, 7)])
def test_golden_reports(name):
    job_path = GOLDEN_DIR / f"{name}.job.json"
    expected = (GOLDEN_DIR / f"{name}.report.json").read_bytes()
    proc = subprocess.run(
        [sys.executable, "-m", "spinorlab", "--job", str(job_path)],
        capture_output=True, check=True,
    )
    assert proc.stdout == expected
    assert proc.stderr == b""
    expected_index = int(name[-1])
    assert json.loads(expected)["lounesto"]["index"] == expected_index


# symmetries jobs whose report the tolerances must not move: the class5
# golden, and a raw spinor whose C residual, about 1e-2, would read +1 at a
# threshold of 0.5
TOLERANCE_FREE_JOBS = {
    "class5": json.loads((GOLDEN_DIR / "class5.job.json").read_text()),
    "near-c-eigen": {
        "mode": "symmetries",
        "spinor": {"components": [[0.01, 0], [0, 1], [1, 0], [0, 0]]},
        "momentum": {"m": 1, "pmag": 2, "theta": 0.5, "phi": 0.3},
    },
}


@pytest.mark.parametrize("name", TOLERANCE_FREE_JOBS)
def test_tolerances_stay_out_of_the_symmetries_section(name, tmp_path, capsys):
    # the job's tolerances set the class and helicity verdicts only; the C
    # and parity eigen verdicts use the fixed EXACT
    path = tmp_path / "job.json"
    path.write_text(json.dumps(TOLERANCE_FREE_JOBS[name]), encoding="utf-8")
    sections = []
    for flags in ([], ["--epsilon-class", "0.5", "--epsilon-helicity", "0.5"]):
        assert main(["--job", str(path), *flags]) == 0
        sections.append(json.loads(capsys.readouterr().out)["symmetries"])
    assert sections[0] == sections[1]


# sha256 of the structured `--mode verify` stdout at seed 0: every property's
# worst value and details string reaches the bytes.
VERIFY_BYTES_SHA256 = "0dee2371e0b75c92e86675875723f3a1769651a48ce74852c6a3262e75761e0a"


def test_verify_bytes_pinned(capsys):
    assert main(["--mode", "verify", "--seed", "0"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == VERIFY_BYTES_SHA256
    assert captured.err == ""


# sha256 of the stdout of SYMMETRIES_PIN_JOB in each format.  The spinor is an
# unboosted dual_helicity one, so parity is skipped and the flip residual
# runs, and the phases are not the defaults.
SYMMETRIES_PIN_JOB = {
    "mode": "symmetries",
    "spinor": {"family": "dual_helicity", "pair": "-+", "a": [0.6, -0.2],
               "c": [0.1, 0.9], "theta": 2.1, "phi": 5.0},
    "momentum": {"m": 1.5, "pmag": 40.0},
    "phases": {"theta1": 0.3, "theta2": 1.1, "zeta1": [0.0, 1.0],
               "zeta2": [-0.6, 0.8]},
}
SYMMETRIES_BYTES_SHA256 = {
    "structured": "ff574ec547db8ccd6d78d4f3b1b9429d806c0eabe8d0c84fdad356f079c18cc4",
    "human": "017aa50b4973b5a307af4a9aeb5d0b5041b3cfede8388bc1daf8d4bdac1e9b78",
}


@pytest.mark.parametrize("fmt", SYMMETRIES_BYTES_SHA256)
def test_symmetries_bytes_pinned(fmt, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(SYMMETRIES_PIN_JOB), encoding="utf-8")
    assert main(["--job", str(path), "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == SYMMETRIES_BYTES_SHA256[fmt]
    assert captured.err == ""


# sha256 of the structured stdout of a boosted dual_helicity symmetries job:
# parity at the build momentum and the flip residual run together.
BOOSTED_DUAL_PIN_JOB = {
    "mode": "symmetries", "boost": True,
    "spinor": {"family": "dual_helicity", "pair": "+-", "a": [0.3, 0.7],
               "c": [-0.8, 0.1], "theta": 0.9, "phi": 2.5},
    "momentum": {"m": 2.0, "pmag": 30.0},
}
BOOSTED_DUAL_BYTES_SHA256 = "989a030ea46faf1ac2b9765ae4c6933ad168d47ae3589e01cc99107de2caf552"


def test_boosted_dual_helicity_symmetries_bytes_pinned(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(BOOSTED_DUAL_PIN_JOB), encoding="utf-8")
    assert main(["--job", str(path)]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == BOOSTED_DUAL_BYTES_SHA256
    assert captured.err == ""


# sha256 of the human stdout of a raw-components classify job without a
# momentum.  Its helicity section is null, the one section that is not a
# record or a list, and prints under the section's name.
RAW_HUMAN_PIN_JOB = {
    "mode": "classify", "format": "human",
    "spinor": {"components": [[1, 0], [0, 0.5], [0.3, 0], [0, 0]]},
}
RAW_HUMAN_BYTES_SHA256 = "464baa67d4a8260aaafcd36f541379b43de876b0e5a3ce1653c9804990b4d82c"


def test_raw_classify_human_bytes_pinned(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(RAW_HUMAN_PIN_JOB), encoding="utf-8")
    assert main(["--job", str(path)]) == 0
    captured = capsys.readouterr()
    assert "\n[helicity]\n  helicity: -\n\n[findings]\n" in captured.out
    assert hashlib.sha256(captured.out.encode()).hexdigest() == RAW_HUMAN_BYTES_SHA256
    assert captured.err == ""


# sha256 of the structured stdout of two symmetries jobs at pmag/m = 1e3 and
# theta = 2.5, where pz < 0: the boost diagonals, the boost factors of the
# parity-linked constructor and the Dirac entries E + pz all take their
# cancellation-free branch.
PZ_NEGATIVE_PIN_JOBS = {
    "boosted-single-helicity": {
        "mode": "symmetries", "boost": True,
        "spinor": {"family": "single_helicity", "pair": "++", "a": [0.8, -0.3],
                   "c": [0.2, 0.6], "theta": 2.5, "phi": 1.2},
        "momentum": {"m": 1.0, "pmag": 1000.0},
    },
    "parity-linked": {
        "mode": "symmetries",
        "spinor": {"family": "parity_linked", "helicity": -1},
        "momentum": {"m": 1.0, "pmag": 1000.0, "theta": 2.5, "phi": 0.4},
    },
}
PZ_NEGATIVE_BYTES_SHA256 = {
    "boosted-single-helicity":
        "8f9f5286165e3ad408c845585ce315975516ba5c7afb5a340668914c11836ff3",
    "parity-linked": "f46c5b2c6573c78fe7e2e2b1bb774b7fbb5936cf9462123178a615db20345799",
}


@pytest.mark.parametrize("name", PZ_NEGATIVE_PIN_JOBS)
def test_negative_pz_symmetries_bytes_pinned(name, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(PZ_NEGATIVE_PIN_JOBS[name]), encoding="utf-8")
    assert main(["--job", str(path)]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == PZ_NEGATIVE_BYTES_SHA256[name]
    assert captured.err == ""


def test_weyl_boost_along_the_south_pole_with_any_azimuth(tmp_path, capsys):
    # the block (0, 1) points along theta = pi, whose azimuth is immaterial,
    # so a boost along theta = pi at phi = 1 matches its construction
    # direction
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "mode": "classify", "boost": True,
        "spinor": {"family": "weyl", "side": "right", "block": [[0, 0], [1, 0]]},
        "momentum": {"m": 1, "pmag": 2, "theta": math.pi, "phi": 1.0},
    }), encoding="utf-8")
    assert main(["--job", str(path)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["lounesto"]["index"] == 6
    assert captured.err == ""


def test_goldens_round_trip_their_job_echo():
    for i in range(1, 7):
        report = json.loads((GOLDEN_DIR / f"class{i}.report.json").read_text())
        again, _ = run_job(parse_job(report["job"]))
        assert emit_structured(again["job"]) == emit_structured(report["job"])


# Counts of `sample` at seed 7, count 2000 for every family; the
# self-conjugate C split depends on the order of the RNG calls.  fpk_max is
# left out: it may move by ulps.
_ZERO_CLASSES = {str(i): 0 for i in range(1, 7)} | {"unclassifiable": 0}
_NO_CATEGORIES = {"single": 0, "dual": 0, "not-well-defined": 0, "non-eigen": 0}
SAMPLE_PINS = {
    "random_raw": ({"1": 2000}, None, (0, 0, 2000)),
    "single_helicity": ({"1": 2000}, {"single": 2000}, (0, 0, 2000)),
    "dual_helicity": ({"4": 2000}, {"dual": 2000}, (0, 0, 2000)),
    "self_conjugate": ({"5": 2000}, {"dual": 2000}, (990, 1010, 0)),
    "weyl": ({"6": 2000}, {"not-well-defined": 2000}, (0, 0, 2000)),
}


@pytest.mark.parametrize("family", SAMPLE_PINS)
def test_sample_counts_pinned(family):
    classes, categories, (plus, minus, neither) = SAMPLE_PINS[family]
    report, code = run_job(parse_job({"mode": "sample", "family": family,
                                      "seed": 7, "count": 2000}))
    sample = report["sample"]
    assert code == 0
    assert sample["class_counts"] == _ZERO_CLASSES | classes
    if categories is None:
        assert "helicity_category_counts" not in sample
    else:
        assert sample["helicity_category_counts"] == _NO_CATEGORIES | categories
    cc = sample["charge_conjugation"]
    assert (cc["eigen_plus"], cc["eigen_minus"], cc["not_eigen"]) == (plus, minus, neither)


# sha256 of the structured `sample` stdout at seed 7, count 20000: every drawn
# value reaches the bytes through fpk_max, so a change in the RNG call order,
# the draws or the aggregation shows up here even where the counts do not move.
SAMPLE_BYTES_SHA256 = {
    "random_raw": "aa323af64e2fe2eb1acb97552385e267cde38a016aef84fa70ac36bc565d19b7",
    "single_helicity": "755d3396e92e3bd454f9c833f24ef3e4c89adfa5405faee1b574fbcce7224b81",
    "dual_helicity": "0da7c82df499020ca1c23a19c161757658c5000735cc1385e2cb4e6821df51d2",
    "self_conjugate": "b0a04055f3796a17f5c5a4c99e84af3ecc58874df47ef15f31d23d99a7a927fd",
    "weyl": "583ec6ea53e54516560872184009061450c0c6111c401a6b5b8c060063536c11",
}


@pytest.mark.parametrize("family", SAMPLE_BYTES_SHA256)
def test_sample_bytes_pinned(family, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"mode": "sample", "family": family, "seed": 7,
                                "count": 20000}), encoding="utf-8")
    assert main(["--job", str(path)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SAMPLE_BYTES_SHA256[family]


# sha256 of the structured `sample` stdout at seed 7 and count 262149
# (2 * 131072 + 5).  dual_helicity draws its constructor arguments in nine
# 32768-row chunks, the last one of 5 rows, so its bytes cover the chunk
# boundaries that the count-20000 pins never reach; random_raw draws its rows
# in 33 blocks of 8192, the last one of 5 rows.  The count is a literal:
# random_raw rows do not depend on how the draw is split, so its pin holds at
# any DRAW_ROWS or SAMPLE_BLOCK_ROWS.
MULTI_CHUNK_SAMPLE_BYTES_SHA256 = {
    "random_raw": "a00be9e5ab72c3b4a06d7b2116126d42f6d69ce16bfb11fc0a585f19a91c7764",
    "dual_helicity": "d079381636e09968272ac3f30368c1081d33e57b5c3b804a6cf0a39287538c67",
}


@pytest.mark.parametrize("family", MULTI_CHUNK_SAMPLE_BYTES_SHA256)
def test_multi_chunk_sample_bytes_pinned(family, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"mode": "sample", "family": family, "seed": 7,
                                "count": 262149}), encoding="utf-8")
    assert main(["--job", str(path)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == MULTI_CHUNK_SAMPLE_BYTES_SHA256[family]


def _whole_array_sample(job):
    """The `sample` section computed in one pass: one analyze over every row
    and the charge-conjugation residuals of the whole array."""
    rng = sampling.rng_for(job.seed)
    n = None
    if job.family == "random_raw":
        arr = sampling.random_raw_spinors(rng, job.count)
    else:
        arr, n, *_ = oracles.family_draw(job.family, rng, job.count)
    return _one_pass_sample(job, arr, n)


def _chunkwise_draw_sample(job):
    """The `sample` section computed in one pass over the rows that DRAW_ROWS
    sized draws from the job's generator give, concatenated."""
    rng = sampling.rng_for(job.seed)
    parts = []
    for start in range(0, job.count, DRAW_ROWS):
        rows = min(DRAW_ROWS, job.count - start)
        if job.family == "random_raw":
            parts.append((sampling.random_raw_spinors(rng, rows), None))
        else:
            parts.append(oracles.family_draw(job.family, rng, rows)[:2])
    arr = np.concatenate([part[0] for part in parts])
    n = None if parts[0][1] is None else np.concatenate([part[1] for part in parts],
                                                        axis=1)
    return _one_pass_sample(job, arr, n)


def _one_pass_sample(job, arr, n):
    res = analyze(arr, n, job.tolerances)
    counts = np.bincount(res.classes, minlength=7)
    classes = {str(idx): int(counts[idx]) for idx in range(1, 7)}
    classes["unclassifiable"] = int(counts[0])
    out = {"family": job.family, "seed": job.seed, "count": job.count,
           "class_counts": classes, "fpk_max": [float(x) for x in res.fpk_max]}
    if n is not None:
        counts = np.bincount(res.categories, minlength=len(CATEGORY_NAMES))
        out["helicity_category_counts"] = {
            name: int(counts[code]) for code, name in CATEGORY_NAMES.items()}
    exact = EXACT
    carr = charge_conjugate_batch(arr)
    nrm = np.linalg.norm(arr, axis=1)
    res_plus = np.linalg.norm(carr - arr, axis=1) / nrm
    res_minus = np.linalg.norm(carr + arr, axis=1) / nrm
    out["charge_conjugation"] = {
        "involution_max": float(np.max(np.abs(charge_conjugate_batch(carr) - arr))),
        "eigen_plus": int(np.sum(res_plus <= exact)),
        "eigen_minus": int(np.sum(res_minus <= exact)),
        "not_eigen": int(np.sum((res_plus > exact) & (res_minus > exact))),
    }
    return out


@pytest.mark.parametrize("count", [1, SAMPLE_BLOCK_ROWS - 1, SAMPLE_BLOCK_ROWS,
                                   SAMPLE_BLOCK_ROWS + 1, 3 * SAMPLE_BLOCK_ROWS + 5])
@pytest.mark.parametrize("family", ["random_raw", "single_helicity", "dual_helicity",
                                    "self_conjugate", "weyl"])
def test_blocked_sample_equals_whole_array_pass(family, count):
    job = parse_job({"mode": "sample", "family": family, "seed": 5, "count": count})
    assert _run_sample(job) == _whole_array_sample(job)


@pytest.mark.parametrize("family", ["random_raw", "single_helicity", "dual_helicity",
                                    "self_conjugate", "weyl"])
def test_chunked_sample_equals_one_pass_over_the_chunkwise_draws(family):
    job = parse_job({"mode": "sample", "family": family, "seed": 5,
                     "count": DRAW_ROWS + 5})
    sample = _run_sample(job)
    assert sample == _chunkwise_draw_sample(job)
    if family == "random_raw":
        # uniform draws do not depend on how they are split
        assert sample == _whole_array_sample(job)


def _peak_rss(*args):
    """Peak RSS in bytes and minor page faults of a fresh `spinorlab`
    process with ``args``.
    scripts/peak_rss.py spawns it: a child's ru_maxrss starts at the RSS of
    the process that spawned it, and this test process's RSS can be above
    the CLI's own peak."""
    proc = subprocess.run([sys.executable, str(PEAK_RSS), "inf", "--", sys.executable,
                           "-m", "spinorlab", *args],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    match = re.search(r"peak RSS (\S+) MB, (\d+) minor faults", proc.stdout)
    return float(match.group(1)) * 2**20, int(match.group(2))


def _sample_peak_rss(tmp_path, family, count):
    """Peak RSS and minor faults of a fresh `sample` process."""
    path = tmp_path / f"job-{family}-{count}.json"
    path.write_text(json.dumps({"mode": "sample", "family": family,
                                "seed": 1, "count": count}), encoding="utf-8")
    return _peak_rss("--job", str(path))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is read in KiB, as Linux reports it")
def test_sample_peak_rss_grows_only_with_the_drawn_rows(tmp_path):
    # Nothing is held whole: raw rows are drawn one SAMPLE_BLOCK_ROWS block
    # at a time and a constructor family's arguments in fixed chunks of
    # DRAW_ROWS, and both ends of the range draw several chunks, so peak RSS
    # should not grow.
    # Both families measure 0 to 4 B/row; drawing the whole sample at once
    # took 64 (random_raw) and 84 (dual_helicity) B/row.
    for family, bound in (("random_raw", 16), ("dual_helicity", 16)):
        slope = (_sample_peak_rss(tmp_path, family, 800_000)[0]
                 - _sample_peak_rss(tmp_path, family, 200_000)[0]) / 600_000
        assert slope < bound, f"{family}: peak RSS grows by {slope:.0f} B per sampled row"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is read in KiB, as Linux reports it")
def test_sample_raw_working_set_is_bounded(tmp_path):
    # A 1-row sample peaks at the floor: the interpreter, numpy and
    # numpy.random.  Above it, a 1e6-row random_raw sample holds one block's
    # 512 KiB draw, until it is transposed, and the block's temporaries:
    # 1.4 MB measured, against 3.3 MB when raw rows were drawn in 2 MB
    # chunks of 32768 rows and 9.4 MB in 8 MB chunks of 131072 rows.
    extra = (_sample_peak_rss(tmp_path, "random_raw", 1_000_000)[0]
             - _sample_peak_rss(tmp_path, "random_raw", 1)[0])
    assert extra < 3 * 2**20, f"a 1e6-row sample peaks {extra / 2**20:.1f} MB above the floor"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is read in KiB, as Linux reports it")
def test_sample_constructor_working_set_is_bounded(tmp_path):
    # Above the 1-row floor, a 1e6-row single_helicity sample holds one
    # 1.5 MiB draw chunk of arguments and the blocks' temporaries: 3.3 MB
    # measured, against 9.6 MB when its arguments were drawn 131072 rows
    # (6 MiB) at a time.  glibc keeps them in the heap for reuse once the
    # campaign's first large free has raised its trim threshold: 0.7k
    # minor faults above the floor, against 26k without that free and 15k
    # in chunks of 131072 rows.
    rss, faults = _sample_peak_rss(tmp_path, "single_helicity", 1_000_000)
    floor_rss, floor_faults = _sample_peak_rss(tmp_path, "random_raw", 1)
    extra = rss - floor_rss
    assert extra < 6 * 2**20, f"a 1e6-row sample peaks {extra / 2**20:.1f} MB above the floor"
    assert faults - floor_faults < 4000, f"{faults - floor_faults} minor faults above the floor"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is read in KiB, as Linux reports it")
def test_verify_working_set_is_bounded(tmp_path):
    # Every campaign of the suite runs in blocks: the sampled ones through
    # sampling.campaign, the momentum ones MOMENTUM_BLOCK_ROWS rows at a time.
    # Above the 1-row sample's floor, the suite measured 4.9 MB; with the
    # momentum checks' 10,000 rows taken whole it measured 7.7 MB.
    extra = (_peak_rss("--mode", "verify")[0]
             - _sample_peak_rss(tmp_path, "random_raw", 1)[0])
    assert extra < 6 * 2**20, f"the verify suite peaks {extra / 2**20:.1f} MB above the floor"


def test_dirac_residuals_are_scale_free_at_extreme_magnitudes():
    # homogeneous of degree 0 in (m, pmag): 1e-300 and 1e300 read as 1 does
    def residuals(scale):
        report, code = run_job(parse_job({
            "mode": "symmetries",
            "spinor": {"components": [[1, 0], [0.5, 0.25], [0.3, 0], [0, 1]]},
            "momentum": {"m": scale, "pmag": scale, "theta": 0.7, "phi": 0.2}}))
        assert code == 0
        dirac = report["symmetries"]["dirac"]
        return dirac["residual_plus"], dirac["residual_minus"]

    unit = residuals(1.0)
    assert unit[0] > 0.5 and unit[1] > 0.5
    for scale in (1e-300, 1e300):
        for got, want in zip(residuals(scale), unit):
            assert abs(got - want) <= 1e-14 * want
