"""Job parsing, report generation, exit codes and golden files."""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from spinorlab.cli import main, parse_job, run_job
from spinorlab.errors import JobError
from spinorlab.report import emit_structured

GOLDEN_DIR = Path(__file__).parent / "goldens"


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
        assert job.spinor_spec["a"] == [1.0, 0.0]

    def test_raw_form(self):
        job = parse_job({
            "mode": "classify",
            "spinor": {"components": [[1, 0], [0, 0], [1, 0], [0, 0]]},
        })
        assert job.spinor_spec == {
            "components": [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
        }

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
        again = parse_job(json.loads(json.dumps(job.normalized)))
        assert again == job
        assert again.normalized == job.normalized

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
        job = parse_job({"mode": "verify"})
        assert job.theta1 == 0.0
        assert job.theta2 == math.pi


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


EXTREME_SCALE_JOBS = dict(_extreme_scale_jobs())


# numpy warns on the overflow or underflow that precedes the domain error
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", EXTREME_SCALE_JOBS)
def test_extreme_scales_end_in_report_or_domain_error(name, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(EXTREME_SCALE_JOBS[name]), encoding="utf-8")
    code = main(["--job", str(path)])
    captured = capsys.readouterr()
    assert code in (0, 3)
    if code == 0:
        assert "lounesto" in json.loads(captured.out)
    else:
        assert json.loads(captured.err)["error"]["type"] == "domain"


@pytest.mark.parametrize("name", [f"class{i}" for i in range(1, 7)])
def test_golden_reports(name):
    job_path = GOLDEN_DIR / f"{name}.job.json"
    expected = (GOLDEN_DIR / f"{name}.report.json").read_bytes()
    proc = subprocess.run(
        [sys.executable, "-m", "spinorlab", "--job", str(job_path)],
        capture_output=True, check=True,
    )
    assert proc.stdout == expected
    expected_index = int(name[-1])
    assert json.loads(expected)["lounesto"]["index"] == expected_index


def test_goldens_round_trip_their_job_echo():
    for i in range(1, 7):
        report = json.loads((GOLDEN_DIR / f"class{i}.report.json").read_text())
        again, _ = run_job(parse_job(report["job"]))
        assert emit_structured(again["job"]) == emit_structured(report["job"])
