"""The peak-RSS gate that CI runs the CLI under, the golden generator and
the mutant generator."""
import ast
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


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    script = _script("generate_goldens")
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


MUTANT_SOURCE = '''def f(x: int | None, y=2.0) -> float | None:
    if x < 1 and x == y:
        return -x * 3.0 + (y & 0.0)
    return x / y


class C:
    def g(self):
        return 1 - 0.5
'''


def _changed_nodes(before, after):
    # nodes of two same-shaped trees that differ in type or constant value
    def key(node):
        return type(node), node.value if isinstance(node, ast.Constant) else None

    return [(a, b) for a, b in zip(ast.walk(ast.parse(before)), ast.walk(ast.parse(after)))
            if key(a) != key(b)]


def test_mutant_generator_makes_one_change_per_mutant(monkeypatch):
    mutants = _script("mutants")

    def no_process(*args, **kwargs):
        raise AssertionError("the mutant generator started a process")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    made = list(mutants.mutants(MUTANT_SOURCE))
    # the annotations' | is left alone, and so is the constant 0.0
    assert [(m.line, m.function, m.change) for m, _ in made] == [
        (1, "f", "2.0 -> 1.0"), (2, "f", "< -> <="), (2, "f", "== -> !="),
        (3, "f", "* -> /"), (3, "f", "+ -> -"), (3, "f", "-x -> +x"),
        (3, "f", "3.0 -> 6.0"), (3, "f", "& -> |"), (4, "f", "/ -> *"),
        (9, "C.g", "- -> +"), (9, "C.g", "0.5 -> 1.0")]
    for mutant, source in made:
        assert len(_changed_nodes(MUTANT_SOURCE, source)) == 1, mutant
    assert [m.change for m, _ in mutants.mutants(MUTANT_SOURCE, ["C.g"])] == [
        "- -> +", "0.5 -> 1.0"]
    assert len(list(mutants.mutants(MUTANT_SOURCE, ["C"]))) == 2
    assert list(mutants.mutants(MUTANT_SOURCE, ["g"])) == []
