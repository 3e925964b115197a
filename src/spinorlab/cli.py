"""Command-line front-end.

Reads a JSON job document from --job or, unless the flags alone form the
job, from standard input; applies flag overrides, runs the requested
analysis and writes a deterministic report to standard output.  Exit codes: 0 success, 2 input error, 3 domain
precondition error, 4 property-suite failure.  The document schema with
worked examples lives in docs/cli_schema.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

# OpenBLAS starts a worker thread per extra CPU when numpy loads, and each
# spins for about 0.1 s of CPU; spinorlab's only BLAS calls are 2x2 and 4x4
# products, far below its threading threshold, so a CLI process runs on one
# BLAS thread.  This must run before numpy loads, so the package __init__
# imports nothing eagerly; a value the user sets wins.  Library importers of
# the package keep their own BLAS settings.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import sampling
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
from .symmetries import symmetry_report
from .tolerances import DEFAULT_TOLERANCES, Tolerances
from .verification import run_verification_suite

SAMPLE_FAMILIES = ("random_raw", *sampling.FAMILY_PARAMS)
CONSTRUCTOR_FAMILIES = ("single_helicity", "dual_helicity", "self_conjugate",
                        "weyl", "singular_form", "parity_linked")

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
    zeta1: complex
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


def _angle(value, path: str, polar: bool) -> float:
    x = _number(value, path)
    if polar and not 0.0 <= x <= math.pi:
        _fail(path, f"polar angle must lie in [0, pi], got {x}")
    return x


def _check_keys(doc: dict, allowed, path: str):
    for key in doc:
        if key not in allowed:
            _fail(path, f"unknown key {key!r} (allowed: {', '.join(sorted(allowed))})")


def _parse_spinor(spec, phases) -> dict:
    spec = _expect_dict(spec, "spinor")
    if ("components" in spec) == ("family" in spec):
        _fail("spinor", "exactly one of 'components' or 'family' is required")
    if "components" in spec:
        _check_keys(spec, {"components"}, "spinor")
        comps = spec["components"]
        if not isinstance(comps, (list, tuple)) or len(comps) != 4:
            _fail("spinor.components", "expected four [re, im] pairs")
        pairs = [_complex_pair(c, f"spinor.components[{i}]") for i, c in enumerate(comps)]
        return {"components": [[z.real, z.imag] for z in pairs]}

    family = spec["family"]
    if family not in CONSTRUCTOR_FAMILIES:
        _fail("spinor.family",
              f"unknown family {family!r} (known: {', '.join(CONSTRUCTOR_FAMILIES)})")
    out = {"family": family}
    if family in ("single_helicity", "dual_helicity"):
        _check_keys(spec, {"family", "pair", "a", "c", "theta", "phi"}, "spinor")
        valid = ("++", "--") if family == "single_helicity" else ("+-", "-+")
        for key in ("pair", "a", "c", "theta", "phi"):
            if key not in spec:
                _fail("spinor", f"{family} requires {key!r}")
        if spec["pair"] not in valid:
            _fail("spinor.pair", f"must be one of {valid}, got {spec['pair']!r}")
        out["pair"] = spec["pair"]
        out["a"] = _as_pair(_complex_pair(spec["a"], "spinor.a"))
        out["c"] = _as_pair(_complex_pair(spec["c"], "spinor.c"))
        out["theta"] = _angle(spec["theta"], "spinor.theta", polar=True)
        out["phi"] = _angle(spec["phi"], "spinor.phi", polar=False)
    elif family == "self_conjugate":
        _check_keys(spec, {"family", "sign", "c", "d"}, "spinor")
        sign = spec.get("sign")
        if isinstance(sign, bool) or sign not in (1, -1):
            _fail("spinor.sign", f"must be 1 or -1, got {sign!r}")
        for key in ("c", "d"):
            if key not in spec:
                _fail("spinor", f"self_conjugate requires {key!r}")
        out["sign"] = sign
        out["c"] = _as_pair(_complex_pair(spec["c"], "spinor.c"))
        out["d"] = _as_pair(_complex_pair(spec["d"], "spinor.d"))
    elif family == "weyl":
        _check_keys(spec, {"family", "side", "block"}, "spinor")
        side = spec.get("side")
        if side not in ("right", "left"):
            _fail("spinor.side", f"must be 'right' or 'left', got {side!r}")
        block = spec.get("block")
        if not isinstance(block, (list, tuple)) or len(block) != 2:
            _fail("spinor.block", "expected two [re, im] pairs")
        out["side"] = side
        out["block"] = [
            _as_pair(_complex_pair(block[0], "spinor.block[0]")),
            _as_pair(_complex_pair(block[1], "spinor.block[1]")),
        ]
    elif family == "singular_form":
        _check_keys(spec, {"family", "b", "c", "d"}, "spinor")
        for key in ("b", "c", "d"):
            if key not in spec:
                _fail("spinor", f"singular_form requires {key!r}")
            out[key] = _as_pair(_complex_pair(spec[key], f"spinor.{key}"))
    else:  # parity_linked
        _check_keys(spec, {"family", "helicity", "phase"}, "spinor")
        hel = spec.get("helicity")
        if isinstance(hel, bool) or hel not in (1, -1):
            _fail("spinor.helicity", f"must be 1 or -1, got {hel!r}")
        out["helicity"] = hel
        if "phase" in spec:
            out["phase"] = _number(spec["phase"], "spinor.phase")
        else:
            out["phase"] = phases[0] if hel == 1 else phases[1]
    return out


def _as_pair(z: complex) -> list:
    return [z.real, z.imag]


def _spinor_direction(spinor_spec: Optional[dict]) -> Optional[tuple]:
    """Construction direction of a parsed spinor spec, or None.

    Families whose direction is derived from their block structure
    (self_conjugate, weyl, singular_form) are built once to read it off;
    raw components and parity_linked spinors carry none at this stage.
    """
    if spinor_spec is None or spinor_spec.get("family") in (None, "parity_linked"):
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

    spinor_spec = None
    momentum = None
    boost = False
    family = None
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
        needs_p = spinor_spec.get("family") == "parity_linked" or boost
        if needs_p and momentum is None:
            _fail("momentum", "required to build a boosted spinor")
        if spinor_spec.get("family") == "parity_linked" and boost:
            _fail("boost", "parity_linked spinors are built boosted already")
    elif mode == "sample":
        family = doc.get("family")
        if family not in SAMPLE_FAMILIES:
            _fail("family",
                  f"sample mode requires one of {', '.join(SAMPLE_FAMILIES)}, "
                  f"got {family!r}")
        if count < 1:
            _fail("count", "must be at least 1 in sample mode")

    normalized: dict = {
        "mode": mode,
        "format": fmt,
        "seed": seed,
        "tolerances": {"epsilon_class": eps_class, "epsilon_helicity": eps_hel},
        "phases": {"theta1": theta1, "theta2": theta2,
                   "zeta1": _as_pair(zeta1), "zeta2": _as_pair(zeta2)},
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
                   tolerances=tol, zeta1=zeta1, normalized=normalized)


def _parse_momentum(doc, spinor_spec: Optional[dict]) -> dict:
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
        theta = _angle(doc["theta"], "momentum.theta", polar=True)
        phi = _angle(doc["phi"], "momentum.phi", polar=False)
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
        return BiSpinor(*(complex(re, im) for re, im in spec["components"]))
    family = spec["family"]
    if family in ("single_helicity", "dual_helicity"):
        build = build_single_helicity if family == "single_helicity" else build_dual_helicity
        return build(spec["pair"], complex(*spec["a"]), complex(*spec["c"]),
                     spec["theta"], spec["phi"])
    if family == "self_conjugate":
        return build_self_conjugate(spec["sign"], complex(*spec["c"]),
                                    complex(*spec["d"]))
    if family == "weyl":
        return build_weyl(spec["side"],
                          (complex(*spec["block"][0]), complex(*spec["block"][1])))
    if family == "singular_form":
        return build_singular_form(complex(*spec["b"]), complex(*spec["c"]),
                                   complex(*spec["d"]))
    assert family == "parity_linked"
    return build_parity_linked(spec["helicity"], p, spec["phase"])


def _momentum_of(job: JobSpec) -> Optional[FourMomentum]:
    if job.momentum is None:
        return None
    return FourMomentum(job.momentum["m"], job.momentum["pmag"],
                        job.momentum["theta"], job.momentum["phi"])


def run_job(job: JobSpec) -> tuple[dict, int]:
    """Execute a validated job; returns (report, exit_code)."""
    report: dict = {"job": job.normalized, "conventions": dict(CONVENTIONS)}
    if job.mode == "verify":
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

    p = _momentum_of(job)
    psi = _construct(job.spinor_spec, p)
    if job.boost and p is not None:
        psi = boost_bispinor(psi, p)
    direction = None
    if psi.provenance is None and p is not None:
        direction = (p.theta, p.phi)
    crep = classify_report(psi, direction, job.tolerances)
    section = classify_to_dict(crep)
    findings = list(section.pop("findings"))
    report.update(section)
    if job.mode == "symmetries":
        sym = symmetry_to_dict(symmetry_report(psi, p, job.tolerances, job.zeta1))
        findings.extend(sym.pop("findings"))
        sym["phases"] = job.normalized["phases"]
        report["symmetries"] = sym
    report["findings"] = findings
    return report, 0


def _run_sample(job: JobSpec) -> dict:
    """The `sample` section of the job's campaign."""
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
    except json.JSONDecodeError as exc:
        raise JobError(f"malformed job document: {exc}") from exc
    if not isinstance(doc, dict):
        raise JobError("job document must be a JSON object")
    return doc


def _apply_overrides(doc: dict, args) -> dict:
    if args.mode is not None:
        doc["mode"] = args.mode
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.count is not None:
        doc["count"] = args.count
    if args.format is not None:
        doc["format"] = args.format
    if args.epsilon_class is not None or args.epsilon_helicity is not None:
        tols = doc.setdefault("tolerances", {})
        if args.epsilon_class is not None:
            tols["epsilon_class"] = args.epsilon_class
        if args.epsilon_helicity is not None:
            tols["epsilon_helicity"] = args.epsilon_helicity
    if args.theta1 is not None or args.theta2 is not None:
        phases = doc.setdefault("phases", {})
        if args.theta1 is not None:
            phases["theta1"] = args.theta1
        if args.theta2 is not None:
            phases["theta2"] = args.theta2
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


if __name__ == "__main__":
    sys.exit(main())
