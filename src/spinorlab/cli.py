"""Command-line front-end.

Reads a JSON job document from --job or, unless the flags alone form the
job, from standard input; applies flag overrides, runs the requested
analysis and writes a deterministic report to standard output.  Exit codes:
0 success, 1 standard output closed (process entry :func:`run` only), 2
input error, 3 domain precondition error, 4 property-suite failure.  The
document schema with worked examples lives in docs/cli_schema.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, NoReturn, Optional

# OpenBLAS starts a worker thread per extra CPU when numpy loads, and each
# spins for about 0.1 s of CPU; spinorlab's only BLAS calls are 2x2 and 4x4
# products, far below its threading threshold, so a CLI process runs on one
# BLAS thread.  This must run before numpy loads, so the package __init__
# imports nothing eagerly; a value the user sets wins.  Library importers of
# the package keep their own BLAS settings.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .algebra import FourMomentum
from .classify import CATEGORY_NAMES, classify_report
from .errors import JobError, SpinorError
from .factory import (
    DEFAULT_PHASE_MINUS,
    DEFAULT_PHASE_PLUS,
    BiSpinor,
    _require_finite_direction,
    boost_bispinor,
    build_dual_helicity,
    build_parity_linked,
    build_self_conjugate,
    build_single_helicity,
    build_singular_form,
    build_weyl,
)
from .report import (
    CONVENTIONS,
    classify_to_dict,
    emit_human,
    emit_structured,
    symmetry_to_dict,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

# Keys a job may carry in each mode.  The common ones are valid everywhere
# because flags (--seed, --count, ...) and the normalized echo set them in
# any mode; a key that only another mode reads is rejected, not ignored.
_COMMON_KEYS = {"mode", "format", "seed", "count", "tolerances", "phases"}
_SPINOR_KEYS = _COMMON_KEYS | {"spinor", "momentum", "boost"}
MODE_KEYS = {
    "classify": _SPINOR_KEYS,
    "symmetries": _SPINOR_KEYS,
    "sample": _COMMON_KEYS | {"family"},
    "verify": _COMMON_KEYS,
}
MODES = tuple(MODE_KEYS)


@dataclass
class JobSpec:
    mode: str
    fmt: str
    seed: int
    count: int
    family: Optional[str]
    spinor_spec: Optional[dict]
    momentum: Optional[dict]
    boost: bool
    tolerances: Tolerances
    normalized: dict = field(default_factory=dict)

    def __eq__(self, other):
        return isinstance(other, JobSpec) and self.normalized == other.normalized


def _fail(path: str, message: str):
    raise JobError(f"{path}: {message}" if path else message)


def _expect_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        _fail(path, "number must be finite")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _complex_pair(value, path: str) -> complex:
    if (not isinstance(value, (list, tuple))) or len(value) != 2:
        _fail(path, "expected a complex number as [re, im]")
    return complex(_number(value[0], path + "[0]"), _number(value[1], path + "[1]"))


def _polar_angle(value, path: str) -> float:
    x = _number(value, path)
    if not 0.0 <= x <= math.pi:
        _fail(path, f"polar angle must lie in [0, pi], got {x}")
    return x


def _check_keys(doc: dict, allowed, path: str):
    for key in doc:
        if key not in allowed:
            _fail(path, f"unknown key {key!r} (allowed: {', '.join(sorted(allowed))})")


def _complex_list(count: int, word: str):
    def parse(value, path: str) -> list:
        if not isinstance(value, (list, tuple)) or len(value) != count:
            _fail(path, f"expected {word} [re, im] pairs")
        return [_complex_pair(z, f"{path}[{i}]") for i, z in enumerate(value)]
    return parse


def _one_of(valid: tuple, text: Optional[str] = None):
    """Parser that passes only the values in ``valid``, never a boolean."""
    text = text or " or ".join(map(repr, valid))

    def parse(value, path: str):
        if isinstance(value, bool) or value not in valid:
            _fail(path, f"must be {text}, got {value!r}")
        return value
    return parse


class Family(NamedTuple):
    """A constructor form of ``spinor``: its (key, parse, default) fields in
    echo order and its build_* wrapper.  parse(value, path) gives the parsed
    value, which the echo holds as is: an [re, im] pair becomes a complex.
    A missing key is an error when its default is REQUIRED, else parse reads
    default(the fields so far, the job's phases).  build takes the parsed
    values, and the momentum last when ``boosted``: the spinor is built at
    it and carries no direction of its own."""
    fields: tuple
    build: Callable[..., BiSpinor]
    boosted: bool = False


REQUIRED = None
_SIGN = _one_of((1, -1))


def _absent(fields, phases):  # the parser rejects the None of a missing key
    return None


def _rest_phase(fields, phases):  # theta1 for helicity 1, else theta2
    return phases[0] if fields["helicity"] == 1 else phases[1]


def _helicity_fields(pairs: tuple) -> tuple:
    return (("pair", _one_of(pairs, f"one of {pairs}"), REQUIRED),
            ("a", _complex_pair, REQUIRED), ("c", _complex_pair, REQUIRED),
            ("theta", _polar_angle, REQUIRED), ("phi", _number, REQUIRED))


FAMILIES = {
    "single_helicity": Family(_helicity_fields(("++", "--")), build_single_helicity),
    "dual_helicity": Family(_helicity_fields(("+-", "-+")), build_dual_helicity),
    "self_conjugate": Family((("sign", _SIGN, _absent), ("c", _complex_pair, REQUIRED),
                              ("d", _complex_pair, REQUIRED)), build_self_conjugate),
    "weyl": Family((("side", _one_of(("right", "left")), _absent),
                    ("block", _complex_list(2, "two"), _absent)), build_weyl),
    "singular_form": Family(tuple((key, _complex_pair, REQUIRED) for key in "bcd"),
                            build_singular_form),
    "parity_linked": Family(
        (("helicity", _SIGN, _absent), ("phase", _number, _rest_phase)),
        lambda helicity, phase, p: build_parity_linked(helicity, p, phase), boosted=True),
}
CONSTRUCTOR_FAMILIES = tuple(FAMILIES)


def _parse_spinor(spec, phases) -> dict:
    spec = _expect_dict(spec, "spinor")
    if ("components" in spec) == ("family" in spec):
        _fail("spinor", "exactly one of 'components' or 'family' is required")
    if "components" in spec:
        _check_keys(spec, {"components"}, "spinor")
        return {"components": _complex_list(4, "four")(spec["components"],
                                                       "spinor.components")}
    family = spec["family"]
    if family not in CONSTRUCTOR_FAMILIES:
        _fail("spinor.family",
              f"unknown family {family!r} (known: {', '.join(CONSTRUCTOR_FAMILIES)})")
    fields = FAMILIES[family].fields
    _check_keys(spec, {"family", *(key for key, _, _ in fields)}, "spinor")
    out = {"family": family}
    for key, parse, default in fields:
        if key not in spec and default is REQUIRED:
            _fail("spinor", f"{family} requires {key!r}")
        value = spec[key] if key in spec else default(out, phases)
        out[key] = parse(value, f"spinor.{key}")
    return out


def _boosted(spinor_spec: dict) -> bool:
    return "family" in spinor_spec and FAMILIES[spinor_spec["family"]].boosted


def _spinor_direction(spinor_spec: dict) -> Optional[tuple]:
    """Construction direction of a parsed spinor spec, or None.

    A family without theta and phi fields derives its direction from its
    block structure, so it is built once to read it off; raw components and
    boosted families carry none at this stage.
    """
    if "components" in spinor_spec or _boosted(spinor_spec):
        return None
    if "theta" in spinor_spec:
        return (spinor_spec["theta"], spinor_spec["phi"])
    return _construct(spinor_spec, None).provenance.direction


def parse_job(doc: dict) -> JobSpec:
    """Validate a job document, apply defaults and normalize it."""
    doc = _expect_dict(doc, "")
    mode = doc.get("mode")
    if mode not in MODES:
        _fail("mode", f"must be one of {', '.join(MODES)}, got {mode!r}")
    _check_keys(doc, MODE_KEYS[mode], "")
    fmt = doc.get("format", "structured")
    if fmt not in ("structured", "human"):
        _fail("format", f"must be 'structured' or 'human', got {fmt!r}")
    seed = _integer(doc.get("seed", 0), "seed")
    if seed < 0:
        _fail("seed", "must be nonnegative")

    tol_doc = _expect_dict(doc.get("tolerances", {}), "tolerances")
    _check_keys(tol_doc, {"epsilon_class", "epsilon_helicity"}, "tolerances")
    eps_class = _number(tol_doc.get("epsilon_class", DEFAULT_TOLERANCES.eps_class),
                        "tolerances.epsilon_class")
    eps_hel = _number(tol_doc.get("epsilon_helicity", DEFAULT_TOLERANCES.eps_helicity),
                      "tolerances.epsilon_helicity")
    if eps_class <= 0 or eps_hel <= 0:
        _fail("tolerances", "thresholds must be positive")
    tol = Tolerances(eps_class=eps_class, eps_helicity=eps_hel)

    ph_doc = _expect_dict(doc.get("phases", {}), "phases")
    _check_keys(ph_doc, {"theta1", "theta2", "zeta1", "zeta2"}, "phases")
    theta1 = _number(ph_doc.get("theta1", DEFAULT_PHASE_PLUS), "phases.theta1")
    theta2 = _number(ph_doc.get("theta2", DEFAULT_PHASE_MINUS), "phases.theta2")
    zeta1 = _complex_pair(ph_doc.get("zeta1", [1.0, 0.0]), "phases.zeta1")
    zeta2 = _complex_pair(ph_doc.get("zeta2", [1.0, 0.0]), "phases.zeta2")
    for name, z in (("zeta1", zeta1), ("zeta2", zeta2)):
        if abs(abs(z) - 1.0) > 1e-12:
            _fail(f"phases.{name}", "must be a unit phase")

    spinor_spec = momentum = family = None
    boost = False
    count = _integer(doc.get("count", 1000), "count")

    if mode in ("classify", "symmetries"):
        if "spinor" not in doc:
            _fail("spinor", f"required in {mode} mode")
        spinor_spec = _parse_spinor(doc["spinor"], (theta1, theta2))
        boost = doc.get("boost", False)
        if not isinstance(boost, bool):
            _fail("boost", "must be true or false")
        if "momentum" in doc:
            momentum = _parse_momentum(doc["momentum"], spinor_spec)
        if mode == "symmetries" and momentum is None:
            _fail("momentum", "momentum required for Dirac residual")
        if (boost or _boosted(spinor_spec)) and momentum is None:
            _fail("momentum", "required to build a boosted spinor")
        if boost and _boosted(spinor_spec):
            _fail("boost", f"{spinor_spec['family']} spinors are built boosted already")
        if mode == "symmetries":
            from . import symmetries  # noqa: F401  (loaded with the job, as sampling)
    elif mode == "sample":
        # loaded with the job, never in the block loop: an import there moved
        # the allocation order and a 1e6-row sample's peak by 0.6 MB
        from . import sampling
        families = ("random_raw", *sampling.FAMILY_PARAMS)
        family = doc.get("family")
        if family not in families:
            _fail("family",
                  f"sample mode requires one of {', '.join(families)}, got {family!r}")
        if count < 1:
            _fail("count", "must be at least 1 in sample mode")

    normalized: dict = {
        "mode": mode,
        "format": fmt,
        "seed": seed,
        "tolerances": {"epsilon_class": eps_class, "epsilon_helicity": eps_hel},
        "phases": {"theta1": theta1, "theta2": theta2,
                   "zeta1": zeta1, "zeta2": zeta2},
    }
    if spinor_spec is not None:
        normalized["spinor"] = spinor_spec
        normalized["boost"] = boost
    if momentum is not None:
        normalized["momentum"] = momentum
    if mode == "sample":
        normalized["family"] = family
        normalized["count"] = count

    return JobSpec(mode=mode, fmt=fmt, seed=seed, count=count, family=family,
                   spinor_spec=spinor_spec, momentum=momentum, boost=boost,
                   tolerances=tol, normalized=normalized)


def _parse_momentum(doc, spinor_spec: dict) -> dict:
    doc = _expect_dict(doc, "momentum")
    _check_keys(doc, {"m", "pmag", "theta", "phi"}, "momentum")
    if "m" not in doc:
        _fail("momentum.m", "mass is required")
    m = _number(doc["m"], "momentum.m")
    pmag = _number(doc.get("pmag", 0.0), "momentum.pmag")
    if m < 0 or pmag < 0:
        _fail("momentum", "m and pmag must be nonnegative")
    if "theta" in doc or "phi" in doc:
        if "theta" not in doc or "phi" not in doc:
            _fail("momentum", "theta and phi must be given together")
        theta = _polar_angle(doc["theta"], "momentum.theta")
        phi = _number(doc["phi"], "momentum.phi")
    else:
        direction = _spinor_direction(spinor_spec)
        if direction is None:
            _fail("momentum",
                  "theta/phi required: the spinor carries no direction to "
                  "default to")
        theta, phi = direction
        _require_finite_direction(theta, phi)
    return {"m": m, "pmag": pmag, "theta": theta, "phi": phi}


def _construct(spec: dict, p: Optional[FourMomentum]) -> BiSpinor:
    if "components" in spec:
        return BiSpinor(*spec["components"])
    family = FAMILIES[spec["family"]]
    args = [spec[key] for key, _, _ in family.fields]
    return family.build(*args, p) if family.boosted else family.build(*args)


def run_job(job: JobSpec) -> tuple[dict, int]:
    """Execute a validated job; returns (report, exit_code)."""
    report: dict = {"job": job.normalized, "conventions": dict(CONVENTIONS)}
    if job.mode == "verify":
        # imported here, so that only verify jobs load and compile the suite
        from .verification import run_verification_suite

        results = run_verification_suite(job.seed, job.tolerances)
        keys = ("name", "passed", "worst", "threshold", "count", "details")
        report["verify"] = {
            "properties": [{k: getattr(r, k) for k in keys} for r in results],
            "all_passed": all(r.passed for r in results),
        }
        return report, 0 if report["verify"]["all_passed"] else 4

    if job.mode == "sample":
        report["sample"] = _run_sample(job)
        return report, 0

    p = None if job.momentum is None else FourMomentum(**job.momentum)
    psi = _construct(job.spinor_spec, p)
    if job.boost and p is not None:
        psi = boost_bispinor(psi, p)
    direction = None
    if psi.provenance is None and p is not None:
        direction = (p.theta, p.phi)
    crep = classify_report(psi, direction, job.tolerances)
    report.update(classify_to_dict(crep))
    findings = list(crep.findings)
    if job.mode == "symmetries":
        from .symmetries import symmetry_report
        srep = symmetry_report(psi, p, job.normalized["phases"]["zeta1"])
        sym = symmetry_to_dict(srep)
        findings.extend(srep.findings)
        sym["phases"] = job.normalized["phases"]
        report["symmetries"] = sym
    report["findings"] = findings
    return report, 0


def _run_sample(job: JobSpec) -> dict:
    """The `sample` section of the job's campaign."""
    from . import sampling  # loaded by parse_job
    result = sampling.campaign(job.family, sampling.rng_for(job.seed), job.count,
                               job.tolerances)
    class_counts = result.joint.sum(axis=(1, 2))
    classes = {str(idx): int(class_counts[idx]) for idx in range(1, 7)}
    classes["unclassifiable"] = int(class_counts[0])
    out: dict = {
        "family": job.family,
        "seed": job.seed,
        "count": job.count,
        "class_counts": classes,
        "fpk_max": [float(x) for x in result.fpk_max],
    }
    if job.family != "random_raw":
        category_counts = result.joint.sum(axis=(0, 2))
        out["helicity_category_counts"] = {
            name: int(category_counts[code]) for code, name in CATEGORY_NAMES.items()
        }
    eigen_plus, eigen_minus, not_eigen = (int(n) for n in result.joint.sum(axis=(0, 1)))
    # C is a signed reversal of the float view, so C(C psi) = psi exactly
    # for the finite rows a campaign draws; the field stays in the schema
    out["charge_conjugation"] = {
        "involution_max": 0.0,
        "eigen_plus": eigen_plus,
        "eigen_minus": eigen_minus,
        "not_eigen": not_eigen,
    }
    return out


def _emit_error(kind: str, message: str, code: int) -> int:
    record = {"error": {"type": kind, "message": message, "exit_code": code}}
    sys.stderr.write(emit_structured(record))
    return code


def _load_document(args) -> dict:
    """The job document from --job, else from standard input when the flags
    alone cannot form the job.  Only ``--mode verify`` needs no document, so
    it never waits on a standard input that is left open."""
    if args.job is not None:
        try:
            with open(args.job, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise JobError(f"cannot read job file: {exc}") from exc
    elif args.mode != "verify" and not sys.stdin.isatty():
        try:
            text = sys.stdin.read()
        except UnicodeDecodeError as exc:
            raise JobError(f"cannot read standard input: {exc}") from exc
    else:
        text = ""
    if not text.strip():
        return {}
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers an integer past the int digit limit, and
        # RecursionError an array or object nested too deep to decode
        raise JobError(f"malformed job document: {exc}") from exc
    if not isinstance(doc, dict):
        raise JobError("job document must be a JSON object")
    return doc


def _apply_overrides(doc: dict, args) -> dict:
    """Write each given flag over its key of the document.  An object the
    key belongs in that is not an object stays as it is, for the parser to
    reject."""
    for section, keys in (("", ("mode", "seed", "count", "format")),
                          ("tolerances", ("epsilon_class", "epsilon_helicity")),
                          ("phases", ("theta1", "theta2"))):
        for key in keys:
            if getattr(args, key) is None:
                continue
            target = doc.setdefault(section, {}) if section else doc
            if isinstance(target, dict):
                target[key] = getattr(args, key)
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinorlab",
        description="Classify bispinors, check discrete symmetries, run "
                    "seeded sampling campaigns and the property suite.",
    )
    parser.add_argument("--job", help="path to a JSON job document "
                                      "(default: standard input)")
    parser.add_argument("--mode", choices=MODES, help="override the job mode")
    parser.add_argument("--seed", type=int, help="override the random seed")
    parser.add_argument("--count", type=int, help="override the sample count")
    parser.add_argument("--format", choices=("structured", "human"),
                        help="output format")
    parser.add_argument("--epsilon-class", type=float, dest="epsilon_class",
                        help="relative zero threshold for bilinears")
    parser.add_argument("--epsilon-helicity", type=float, dest="epsilon_helicity",
                        help="relative eigen-residual threshold")
    parser.add_argument("--theta1", type=float,
                        help="scalar phase of positive-helicity rest spinors")
    parser.add_argument("--theta2", type=float,
                        help="scalar phase of negative-helicity rest spinors")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _apply_overrides(_load_document(args), args)
        job = parse_job(doc)
        report, code = run_job(job)
    except JobError as exc:
        return _emit_error("input", str(exc), 2)
    except SpinorError as exc:
        return _emit_error("domain", str(exc), 3)
    text = emit_structured(report) if job.fmt == "structured" else emit_human(report)
    sys.stdout.write(text)
    return code


def run(argv=None) -> NoReturn:
    """Process entry point of ``python -m spinorlab`` and the ``spinorlab``
    script: :func:`main`, then exit with its code.

    Both streams are flushed, then ``os._exit`` ends the process without
    the interpreter's teardown, which would only free what numpy and
    spinorlab loaded.  A closed standard output (a reader that has gone
    away) ends in exit 1 with nothing on stderr: nothing flushes stdout
    again at exit.

    No job hashes, yet ``numpy.random`` imports ``secrets``, whose ``hmac``
    would map OpenSSL through ``_hashlib`` (3.3 MB resident): with ``_hashlib``
    blocked, hashlib and hmac use CPython's built-in hashes.  One already
    loaded is kept.
    """
    sys.modules.setdefault("_hashlib", None)
    try:
        code = main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        code = 1
    sys.stderr.flush()
    os._exit(code)
