"""Tests of the benchmark itself: python3 -m pytest perfbench"""
import json
import sys
import time

import pytest

import run
import tracing


def _ok(result):
    return result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", ["sample-raw", "sample-constructors", "cold-jobs"])
def test_smoke_end_to_end(workload, capsys):
    result = run.run_workload(workload, seed=3, seconds=0, trace=False, scale=1e-3)
    assert _ok(result)
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    json.loads(json.dumps(result))
    assert "n=" in capsys.readouterr().out


def test_smoke_traced_layers():
    raw = run.run_workload("sample-raw", seed=3, seconds=0, trace=True, scale=1e-3)
    built = run.run_workload("sample-constructors", seed=3, seconds=0, trace=True,
                             scale=1e-3)
    names = {name for name, _ in tracing.PER_LAYER_METRICS}
    for result in (raw, built):
        assert _ok(result)
        assert set(result["metrics"]) == names
        assert result["metrics"]["trace.absent_names"]["value"] == 0
    raw, built = raw["metrics"], built["metrics"]
    assert raw["factory.calls"]["value"] == 0
    assert raw["kernels.rows"]["value"] >= 1000
    assert built["factory.calls"]["value"] == 4 * 100
    assert built["factory.self_s"]["value"] > 0
    assert 0 < built["sampling.accept_ratio"]["value"] <= 1


def test_tracer_restores_and_reports_absent_names(monkeypatch):
    run.import_spinorlab()
    from spinorlab import sampling

    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (
        ("gone", ("spinorlab.no_such_module",), ("f",)),))
    monkeypatch.setattr(tracing, "REQUIRED", tracing.REQUIRED + (
        ("gone", "f"), ("cli", "no_such_function")))
    before = dict(sampling.FAMILY_DRAWS)
    with tracing.Tracer() as tracer:
        assert sampling.FAMILY_DRAWS["weyl"] is not before["weyl"]
    assert sampling.FAMILY_DRAWS == before
    assert tracer.absent == ["gone.f", "cli.no_such_function"]
    assert tracer.metrics()["trace.absent_names"] == 2


def _python(code):
    return (sys.executable, "-c", code)


def test_tampered_report_counts_as_failure():
    golden = run.GOLDENS / "class1.report.json"
    tampered = golden.read_text().replace('"index": 1', '"index": 2')
    assert tampered != golden.read_text()
    job = run.Job("class1", {}, run.check_golden(golden),
                  argv=_python(f"import sys; sys.stdout.write({tampered!r})"))
    tally = run.Tally()
    out = run.run_process_job(job, tally, time.perf_counter() + 60)
    assert out.error.startswith("output check")
    assert len(tally.failed) == 1


def test_wrong_exit_code_and_traceback_count_as_failures():
    golden = run.GOLDENS / "class1.report.json"
    echo = f"import sys; sys.stdout.write(open({str(golden)!r}).read())"
    tally = run.Tally()
    deadline = time.perf_counter() + 60
    good = run.run_process_job(run.Job("g", {}, run.check_golden(golden),
                                       argv=_python(echo)), tally, deadline)
    assert not good.error
    code = run.run_process_job(run.Job("g", {}, run.check_golden(golden),
                                       argv=_python(echo + "; sys.exit(3)")),
                               tally, deadline)
    assert code.error == "exit code 3, expected 0"
    crash = run.run_process_job(run.Job("g", {}, run.check_golden(golden),
                                        argv=_python(echo + "; sys.stderr.write("
                                                     "'Traceback (most recent call last)')")),
                                tally, deadline)
    assert crash.error == "traceback on stderr"
    assert [o.error != "" for o in tally.outcomes] == [False, True, True]


def test_changed_bytes_and_timeout_count_as_failures():
    tally = run.Tally()
    job = run.Job("j", {}, lambda stdout: 1)
    tally.judge(job, run.Outcome("j", 0.1), 0, b"first")
    tally.judge(job, run.Outcome("j", 0.1), 0, b"second")
    assert tally.outcomes[1].error.startswith("stdout differs")
    hang = run.run_process_job(run.Job("h", {}, lambda stdout: 1,
                                       argv=_python("import time; time.sleep(30)")),
                               tally, time.perf_counter() + 1)
    assert hang.error.startswith("timed out") and hang.wall < 10
    assert len(tally.failed) == 2


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cold-jobs", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
