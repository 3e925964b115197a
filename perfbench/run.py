"""End-to-end benchmark of the spinorlab CLI, with a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sample-raw --seed 1 --seconds 20 --trace 0

With ``--trace 0`` every job runs as a fresh ``python -m spinorlab`` process,
one at a time (a closed loop with one client), with stdin set to /dev/null
and a timeout.  Each child is reaped with ``os.wait4`` so that its own peak
RSS and CPU time are read, never a running maximum over earlier children.
With ``--trace 1`` the same jobs run in this process through
``cli.parse_job`` -> ``cli.run_job`` -> ``report.emit_structured`` with the
layers wrapped by :mod:`tracing`, alternating with untraced passes so that
the tracing overhead is measured too.

Every output is checked.  A job fails when it times out, exits with an
unexpected code, fails its output check, or prints stdout bytes that differ
from an earlier run of the same job.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give each metric with its unit and sample count, the
environment, and the stderr tail of each failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable, Optional

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "tests" / "goldens"
WORK = Path(__file__).resolve().parent / ".work"

CHILD_TIMEOUT_S = 60.0
HARD_LIMIT_S = 100.0  # past --seconds, no child may run longer than this
SETUP_REPEATS = 9
STDERR_TAIL = 800

# Why each workload exists, and which layer it stresses.
WORKLOADS = {
    "sample-raw": "random_raw at 1e6: kernels, classify and aggregation; "
                  "bypasses factory; the high-memory job",
    "sample-constructors": "four constructor families at 1e5: per-spinor "
                           "factory construction dominates",
    "verify": "the property suite: scalar per-momentum loops, boosts, "
              "partners and the Dirac kernel",
    "cold-jobs": "the six golden jobs as fresh processes: import, parsing, "
                 "the N=1 scalar path and report emission",
}
RAW_COUNT = 1_000_000
CONSTRUCTOR_COUNT = 100_000
CONSTRUCTOR_FAMILIES = ("single_helicity", "dual_helicity", "self_conjugate", "weyl")

FAMILY_CLASSES = {
    "random_raw": {1, 2, 3, 4, 5, 6},
    "single_helicity": {1, 2, 3},
    "dual_helicity": {4, 5},
    "self_conjugate": {5},
    "weyl": {6},
}
FAMILY_CATEGORY = {
    "single_helicity": "single",
    "dual_helicity": "dual",
    "self_conjugate": "dual",
    "weyl": "not-well-defined",
}

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("spinors_per_s", "1/s"),
    ("job_latency_s.p50", "s"),
    ("job_latency_s.p90", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class CheckError(Exception):
    """An output check failed."""


@dataclass(frozen=True)
class Job:
    """One CLI invocation and how to judge it.

    ``doc`` is the job document (written to a file for the process run, fed
    to ``cli.parse_job`` for the traced run).  ``check`` returns the number
    of spinors the job analysed, or raises :class:`CheckError`.
    """

    name: str
    doc: dict
    check: Callable[[bytes], int]
    argv: Optional[tuple] = None  # default: spinorlab on ``doc`` written to a file


@dataclass
class Outcome:
    job: str
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    spinors: int = 0
    error: str = ""
    stderr: str = ""


@dataclass
class Tally:
    """Outcomes of one workload run, with the byte-determinism record."""

    outcomes: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def judge(self, job: Job, out: Outcome, code, stdout: bytes) -> Outcome:
        if not out.error:
            out.error = _judge(job, code, stdout, out)
        if not out.error:
            digest = hashlib.sha256(stdout).hexdigest()
            if self.digests.setdefault(job.name, digest) != digest:
                out.error = "stdout differs from an earlier run of the same job"
        self.outcomes.append(out)
        return out

    @property
    def failed(self) -> list:
        return [o for o in self.outcomes if o.error]


def _judge(job: Job, code, stdout: bytes, out: Outcome) -> str:
    if code != 0:
        return f"exit code {code}, expected 0"
    if "Traceback (most recent call last)" in out.stderr:
        return "traceback on stderr"
    try:
        out.spinors = job.check(stdout)
    except CheckError as exc:
        return f"output check: {exc}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"output check: unreadable report ({exc!r})"
    return ""


# -- output checks ----------------------------------------------------------

def check_sample(family: str, count: int) -> Callable[[bytes], int]:
    def check(stdout: bytes) -> int:
        s = json.loads(stdout)["sample"]
        classes = s["class_counts"]
        if sum(classes.values()) != count:
            raise CheckError(f"class counts sum to {sum(classes.values())}, not {count}")
        stray = sorted(k for k, v in classes.items()
                       if v and not (k.isdigit() and int(k) in FAMILY_CLASSES[family]))
        if stray:
            raise CheckError(f"{family} has counts in classes {stray}")
        if not max(s["fpk_max"]) < 1e-10:
            raise CheckError(f"fpk_max {s['fpk_max']} not below 1e-10")
        cc = s["charge_conjugation"]
        if cc["eigen_plus"] + cc["eigen_minus"] + cc["not_eigen"] != count:
            raise CheckError("charge-conjugation counts do not sum to count")
        if family in FAMILY_CATEGORY:
            cats = s["helicity_category_counts"]
            if cats.get(FAMILY_CATEGORY[family]) != count:
                raise CheckError(f"helicity categories {cats} disagree with "
                                 f"classes {classes}")
        return count
    return check


def check_verify(stdout: bytes) -> int:
    v = json.loads(stdout)["verify"]
    bad = [p["name"] for p in v["properties"] if p["passed"] is not True]
    if v["all_passed"] is not True or bad or not v["properties"]:
        raise CheckError(f"properties failed: {bad}")
    return sum(p["count"] for p in v["properties"])


def check_golden(path: Path) -> Callable[[bytes], int]:
    def check(stdout: bytes) -> int:
        if stdout != path.read_bytes():
            raise CheckError(f"stdout differs from {path.name}")
        return 1
    return check


# -- workloads ----------------------------------------------------------------

def workload_jobs(name: str, seed: int, scale: float = 1.0) -> list[Job]:
    """The jobs of one workload pass; inputs derive from ``seed`` alone.

    ``scale`` shrinks the sample counts (for the benchmark's own tests).
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "sample-raw":
        families, count = ("random_raw",), max(1, int(RAW_COUNT * scale))
    elif name == "sample-constructors":
        families, count = CONSTRUCTOR_FAMILIES, max(1, int(CONSTRUCTOR_COUNT * scale))
    elif name == "verify":
        doc = {"mode": "verify", "seed": rng.randrange(2**31)}
        return [Job("verify", doc, check_verify)]
    elif name == "cold-jobs":
        paths = sorted(GOLDENS.glob("*.job.json"))
        rng.shuffle(paths)
        return [Job(p.name.split(".")[0], json.loads(p.read_text()),
                    check_golden(p.with_name(p.name.replace(".job.", ".report."))),
                    argv=(sys.executable, "-m", "spinorlab", "--job", str(p)))
                for p in paths]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return [Job(f"sample:{f}", {"mode": "sample", "family": f, "count": count,
                                "seed": rng.randrange(2**31)},
                check_sample(f, count))
            for f in families]


# -- process runs ---------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, timeout: float):
    """Run ``argv`` with stdin=/dev/null; returns (code, stdout, stderr, wall, rusage).

    ``code`` is None when the child was killed at its timeout.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, env=child_env())
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for f in (proc.stdout, proc.stderr):
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            left = t0 + timeout - time.perf_counter()
            if left <= 0 and not timed_out:
                timed_out = True
                proc.kill()
            for key, _ in sel.select(timeout=max(left, 0.05)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(v) for v in chunks.values())
    return (None if timed_out else proc.returncode), out, err, wall, usage


def run_process_job(job: Job, tally: Tally, deadline: float) -> Outcome:
    WORK.mkdir(exist_ok=True)
    argv = job.argv
    if argv is None:
        path = WORK / (hashlib.sha256(json.dumps(job.doc, sort_keys=True).encode())
                       .hexdigest()[:16] + ".job.json")
        if not path.exists():
            path.write_text(json.dumps(job.doc))
        argv = (sys.executable, "-m", "spinorlab", "--job", str(path))
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.perf_counter()))
    code, stdout, stderr, wall, usage = spawn(list(argv), timeout)
    out = Outcome(job.name, wall, cpu=usage.ru_utime + usage.ru_stime,
                  rss_mb=usage.ru_maxrss / 1024.0,
                  stderr=stderr.decode("utf-8", "replace")[-STDERR_TAIL:])
    if code is None:
        out.error = f"timed out after {timeout:.0f} s"
    return tally.judge(job, out, code, stdout)


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of fresh interpreters that only ``import spinorlab.cli``."""
    walls = []
    for _ in range(repeats):
        code, _, err, wall, _ = spawn([sys.executable, "-c", "import spinorlab.cli"],
                                      CHILD_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"import spinorlab.cli failed: {err.decode()[-STDERR_TAIL:]}")
        walls.append(wall)
    return walls


def run_end_to_end(jobs: list[Job], seconds: float) -> tuple[dict, dict, Tally]:
    """Repeat the workload's jobs back to back for ``seconds``."""
    setup = measure_setup()
    tally = Tally()
    start = time.perf_counter()
    deadline = start + seconds + HARD_LIMIT_S
    passes = []  # (wall, cpu, spinors) per pass over the jobs
    while not passes or fits(start, seconds, [p[0] for p in passes]):
        t0 = time.perf_counter()
        outs = [run_process_job(job, tally, deadline) for job in jobs]
        passes.append((time.perf_counter() - t0, sum(o.cpu for o in outs),
                       sum(o.spinors for o in outs)))
        if time.perf_counter() > deadline:
            break
    latencies = [o.wall for o in tally.outcomes]
    metrics = {
        "wall_s": statistics.median(p[0] for p in passes),
        "cpu_s": statistics.median(p[1] for p in passes),
        "spinors_per_s": statistics.median(p[2] / p[0] for p in passes),
        "job_latency_s.p50": statistics.median(latencies),
        "job_latency_s.p90": percentile(latencies, 0.9),
        "peak_rss_mb": max(o.rss_mb for o in tally.outcomes),
        "setup_s": statistics.median(setup),
    }
    counts = {"wall_s": len(passes), "cpu_s": len(passes), "spinors_per_s": len(passes),
              "job_latency_s.p50": len(latencies), "job_latency_s.p90": len(latencies),
              "peak_rss_mb": len(latencies), "setup_s": len(setup)}
    return metrics, counts, tally


def fits(start: float, seconds: float, walls: list) -> bool:
    """Whether one more pass, as long as the median pass so far, ends in time."""
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


# -- traced in-process runs --------------------------------------------------------

def import_spinorlab():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from spinorlab import cli, report  # noqa: F401  (also loads every layer)
    return cli, report


def run_in_process(jobs: list[Job], tally: Tally) -> float:
    """One pass over ``jobs`` as cli.parse_job -> cli.run_job -> emit; returns wall."""
    cli, report = import_spinorlab()
    t0 = time.perf_counter()
    for job in jobs:
        j0 = time.perf_counter()
        out = Outcome(job.name, 0.0)
        code, stdout = None, b""
        try:
            spec = cli.parse_job(dict(job.doc))
            rep, code = cli.run_job(spec)
            emit = report.emit_structured if spec.fmt == "structured" else report.emit_human
            stdout = emit(rep).encode()
        except Exception:  # a crash is a failed operation, not a benchmark crash
            out.error = "exception"
            out.stderr = traceback.format_exc()[-STDERR_TAIL:]
        out.wall = time.perf_counter() - j0
        tally.judge(job, out, code, stdout)
    return time.perf_counter() - t0


def run_traced(jobs: list[Job], seconds: float) -> tuple[dict, dict, Tally]:
    """Alternate untraced and traced in-process passes for ``seconds``."""
    tally = Tally()
    run_in_process(jobs, tally)  # warm-up: lazy imports and first allocations
    plain, traced, layer_runs, absent = [], [], [], []
    start = time.perf_counter()
    while not traced or fits(start, seconds, [a + b for a, b in zip(plain, traced)]):
        plain.append(run_in_process(jobs, tally))
        with tracing.Tracer() as tracer:
            traced.append(run_in_process(jobs, tally))
        layer_runs.append(tracer.metrics())
        absent = tracer.absent
    metrics = {name: statistics.median(run[name] for run in layer_runs)
               for name in layer_runs[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    counts = {name: len(layer_runs) for name in metrics}
    if absent:
        print("absent at this commit: " + ", ".join(absent))
    return metrics, counts, tally


# -- environment and output ------------------------------------------------------------

def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": None,
        "source_sha256": _source_digest(),
        "backend": None,
    }
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdin=subprocess.DEVNULL, capture_output=True, text=True)
        env["git_commit"] = res.stdout.strip() or None
    probe = ("import importlib\n"
             "try:\n    b = importlib.import_module('spinorlab.backend')\n"
             "except ImportError:\n    b = None\n"
             "print(getattr(b, 'BACKEND', ''))")
    code, out, _, _, _ = spawn([sys.executable, "-c", probe], CHILD_TIMEOUT_S)
    if code == 0 and out.strip():
        env["backend"] = out.decode().strip()
    return env


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "spinorlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> dict:
    jobs = workload_jobs(name, seed, scale)
    env = environment()
    if trace:
        metrics, counts, tally = run_traced(jobs, seconds)
        units = dict(tracing.PER_LAYER_METRICS)
    else:
        metrics, counts, tally = run_end_to_end(jobs, seconds)
        units = dict(END_TO_END)
    attempted, failed = len(tally.outcomes), len(tally.failed)
    print(f"workload {name} (seed {seed}, {seconds:g} s, trace {int(trace)}): "
          f"{WORKLOADS[name]}")
    print("env " + json.dumps(env, sort_keys=True))
    for key in units:
        print(f"  {key:40s} {metrics[key]:>16.6g} {units[key]:6s} n={counts[key]}")
    print(f"  {'error_rate':40s} {failed / attempted:>16.6g} {'1':6s} n={attempted}")
    for job in jobs:
        runs = [o for o in tally.outcomes if o.job == job.name]
        print(f"  job {job.name}: median {statistics.median(o.wall for o in runs):.4g} s, "
              f"peak RSS {max(o.rss_mb for o in runs):.4g} MB, n={len(runs)}")
    for o in tally.failed[:10]:
        print(f"FAILED {o.job}: {o.error}\n  stderr tail: {o.stderr.strip()[-STDERR_TAIL:]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinorlab" / "cli.py").is_file() or not GOLDENS.is_dir():
        print(f"spinorlab sources not found under {ROOT}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
