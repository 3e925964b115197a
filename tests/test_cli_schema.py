"""The worked examples of docs/cli_schema.md run and report what it says."""
import json
import re
from pathlib import Path

import pytest

from spinorlab.cli import FAMILIES, main
from spinorlab.sampling import FAMILY_PARAMS
from test_cli import BOOSTED_DUAL_PIN_JOB, GOLDEN_DIR, SYMMETRIES_PIN_JOB

SCHEMA = Path(__file__).parent.parent / "docs" / "cli_schema.md"
SAMPLE_FAMILIES = ("random_raw", *FAMILY_PARAMS)


def _worked_examples():
    text = SCHEMA.read_text(encoding="utf-8").split("## Worked examples", 1)[1]
    return [json.loads(block) for block in re.findall(r"^```json\n(.*?)^```", text,
                                                      flags=re.S | re.M)]


def _example_1(report):
    helicity = report["helicity"]
    assert report["lounesto"] == {"index": 2, "annotation": "single-helicity"}
    assert (helicity["right"], helicity["left"], helicity["category"]) == (
        "plus", "plus", "single")


def _example_2(report):
    conjugation = report["symmetries"]["charge_conjugation"]
    dirac = report["symmetries"]["dirac"]
    assert report["lounesto"] == {"index": 5, "annotation": "dual-helicity"}
    assert (conjugation["eigenvalue"], conjugation["residual"]) == (1, 0)
    assert conjugation["involution_residual"] == 0
    assert dirac["residual_plus"] > 1 and dirac["residual_minus"] > 1


def _example_3(report):
    sample = report["sample"]
    classes = sample["class_counts"]
    assert sample["count"] == 10_000
    assert classes["4"] + classes["5"] == 10_000
    assert sample["helicity_category_counts"]["dual"] == 10_000


@pytest.mark.parametrize("index, check", enumerate([_example_1, _example_2, _example_3]))
def test_worked_examples_report_what_the_schema_says(index, check, tmp_path, capsys):
    examples = _worked_examples()
    assert len(examples) == 3
    path = tmp_path / "job.json"
    path.write_text(json.dumps(examples[index]), encoding="utf-8")
    assert main(["--job", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    check(json.loads(captured.out))


def _documented_spinor_forms():
    """(family, field keys in order) of each constructor row of the
    "Spinor forms" table; the raw row has no family."""
    section = SCHEMA.read_text(encoding="utf-8").split("## Spinor forms", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, flags=re.M)
    return [(family, tuple(re.findall(r'`"(\w+)"', fields))) for family, fields in rows]


def test_spinor_forms_table_mirrors_the_family_table():
    assert _documented_spinor_forms() == [
        (family, tuple(key for key, _, _ in form.fields))
        for family, form in FAMILIES.items()]


def _documented_report_fields():
    """The key paths of the "Report fields" table, in order."""
    section = SCHEMA.read_text(encoding="utf-8").split("## Report fields", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)


def _leaf_paths(value, prefix):
    # a dict's keys and a list of dicts' entries ("[]") are followed down;
    # anything else, a list of numbers included, is a leaf
    if isinstance(value, dict):
        return {path for key, item in value.items()
                for path in _leaf_paths(item, f"{prefix}.{key}")}
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        return {path for item in value for path in _leaf_paths(item, prefix + "[]")}
    return {prefix}


def _report_paths(report):
    # the keys of a job's spinor form are the "Spinor forms" table's, so
    # the Report fields table names them as one path
    return {"job.spinor" if path.startswith("job.spinor.") else path
            for key, value in report.items() for path in _leaf_paths(value, key)}


def _report(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return json.loads(captured.out)


# classify jobs beyond the goldens: raw components with no momentum, whose
# helicity is null, and the two forms that no golden builds
RAW_CLASSIFY_JOB = {"mode": "classify",
                    "spinor": {"components": [[1, 0], [0.5, 0], [0, 0.2], [0, 0]]}}
PARITY_LINKED_JOB = {"mode": "classify", "spinor": {"family": "parity_linked",
                                                    "helicity": -1},
                     "momentum": {"m": 1.0, "pmag": 3.0, "theta": 0.7, "phi": 0.3}}
SINGULAR_FORM_JOB = {"mode": "classify", "spinor": {"family": "singular_form",
                                                    "b": [0.5, 0.1], "c": [1, 0],
                                                    "d": [0.2, -0.3]}}


def test_report_fields_table_mirrors_the_sample_and_verify_reports(tmp_path, capsys):
    # every section of a report of every mode, the job echo included
    documented = _documented_report_fields()
    assert len(documented) == len(set(documented))
    seen = set()
    path = tmp_path / "job.json"
    for family in SAMPLE_FAMILIES:
        path.write_text(json.dumps({"mode": "sample", "family": family, "count": 20}),
                        encoding="utf-8")
        report = _report(["--job", str(path)], capsys)
        seen |= _report_paths(report)
        sample = report["sample"]
        # each group of counts adds up to the rows drawn, as the doc says
        conjugation = dict(sample["charge_conjugation"])
        del conjugation["involution_max"]
        for group in (sample["class_counts"], conjugation,
                      sample.get("helicity_category_counts", {"none": 20})):
            assert sum(group.values()) == 20, (family, group)
    seen |= _report_paths(_report(["--mode", "verify"], capsys))
    reports = {}
    for name, job in [*((f"class{i}", None) for i in range(1, 7)),
                      ("symmetries-pin", SYMMETRIES_PIN_JOB),
                      ("boosted-dual", BOOSTED_DUAL_PIN_JOB), ("raw", RAW_CLASSIFY_JOB),
                      ("parity-linked", PARITY_LINKED_JOB),
                      ("singular-form", SINGULAR_FORM_JOB)]:
        if job is None:
            job_path = GOLDEN_DIR / f"{name}.job.json"
        else:
            job_path = tmp_path / f"{name}.json"
            job_path.write_text(json.dumps(job), encoding="utf-8")
        reports[name] = _report(["--job", str(job_path)], capsys)
        seen |= _report_paths(reports[name])
    # the class5 golden has no flip residual and no parity; the boosted
    # dual-helicity spinor has both
    symmetries = reports["boosted-dual"]["symmetries"]
    assert None not in (symmetries["dirac"]["flip_residual"],
                        symmetries["parity"]["residual"])
    assert reports["raw"]["helicity"] is None
    assert reports["parity-linked"]["job"]["spinor"]["phase"] == 3.141592653589793
    assert sorted(seen - set(documented)) == [], "in a report but not documented"
    assert sorted(set(documented) - seen) == [], "documented but in no report"
