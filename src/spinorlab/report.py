"""Report assembly and deterministic emission.

The structured format is JSON with sorted keys, two-space indentation, and
every float printed with 17 significant digits so that values round-trip
exactly and identical inputs give byte-identical documents.  Each report
embeds the convention block so results are self-describing.
"""
from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

from .classify import ClassifyReport

if TYPE_CHECKING:  # symmetries jobs alone load the module
    from .symmetries import SymmetryReport

CONVENTIONS = {
    "metric": "+---",
    "basis": "chiral, right-handed block on top",
    "gamma0": "offdiag(I, I)",
    "gamma5": "i*g0*g1*g2*g3 = diag(+1, +1, -1, -1)",
    "pseudoscalar": "omega = i * psibar * gamma5 * psi",
    "axial_vector": "K^mu = psibar * gamma^mu * gamma5 * psi",
    "spin_tensor": "S^{mu nu} = i * psibar * gamma^mu * gamma^nu * psi, mu < nu, "
                   "order (01, 02, 03, 12, 13, 23)",
    "charge_conjugation": "blockwise (i*Theta*conj(lower), -i*Theta*conj(upper))",
    "parity": "gamma0 composed with momentum reflection, intrinsic phase +1",
}


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite value cannot appear in a report")
    return format(float(x), ".17g")


def emit_structured(obj) -> str:
    return _emit(obj, 0) + "\n"


def _emit(obj, depth: int) -> str:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, complex):
        return _emit([obj.real, obj.imag], depth)
    if isinstance(obj, np.ndarray):
        return _emit(list(obj), depth)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {_emit(obj[key], depth + 1)}"
            for key in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_emit(item, depth + 1)}" for item in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def classify_to_dict(rep: ClassifyReport) -> dict:
    out = {
        "bilinears": {
            "sigma": rep.bilinears.sigma,
            "omega": rep.bilinears.omega,
            "j": [float(x) for x in rep.bilinears.j],
            "k": [float(x) for x in rep.bilinears.k],
            "s": [float(x) for x in rep.bilinears.s],
            "norm": rep.bilinears.norm,
        },
        "fpk_residuals": {
            "jj_minus_sigma2_omega2": float(rep.fpk[0]),
            "j_dot_k": float(rep.fpk[1]),
            "jj_plus_kk": float(rep.fpk[2]),
        },
        "lounesto": {
            "index": rep.lounesto.index,
            "annotation": rep.lounesto.annotation,
        },
        "helicity": None,
    }
    if rep.helicity is not None:
        res_r = rep.helicity.right_residual
        res_l = rep.helicity.left_residual
        out["helicity"] = {
            "right": rep.helicity.right,
            "left": rep.helicity.left,
            "category": rep.helicity.category,
            "right_residual": None if math.isnan(res_r) else res_r,
            "left_residual": None if math.isnan(res_l) else res_l,
            "direction": [rep.direction[0], rep.direction[1]],
        }
    return out


def symmetry_to_dict(rep: SymmetryReport) -> dict:
    return {
        "parity": {
            "eigenvalue": rep.parity_eigenvalue,
            "residual": rep.parity_residual,
        },
        "charge_conjugation": {
            "eigenvalue": rep.c_eigenvalue,
            "residual": rep.c_residual,
            "involution_residual": rep.c_involution_residual,
            "constraints": {k: float(v) for k, v in rep.c_constraints.items()},
        },
        "dirac": {
            "residual_plus": rep.dirac_residual_plus,
            "residual_minus": rep.dirac_residual_minus,
            "flip_residual": rep.dirac_flip_residual,
        },
        "theta_link_residual": rep.theta_link_residual,
    }


_HUMAN_ORDER = ("job", "conventions", "bilinears", "fpk_residuals", "lounesto",
                "helicity", "symmetries", "sample", "verify", "findings")


def emit_human(report: dict) -> str:
    lines = ["spinorlab report", "================"]
    for section in _HUMAN_ORDER:
        if section not in report:
            continue
        lines.append("")
        lines.append(f"[{section}]")
        body = report[section]  # a bare value (a null helicity) takes the section's name
        lines.extend(_human_lines(body if isinstance(body, (dict, list, tuple))
                                  else {section: body}, ""))
    return "\n".join(lines) + "\n"


def _human_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_human_value(v) for v in value) + "]"
    return str(value)


def _human_lines(obj, prefix: str) -> list:
    if isinstance(obj, dict):
        lines = []
        for key in sorted(obj, key=str):
            value = obj[key]
            label = f"{prefix}{key}"
            if isinstance(value, dict) or (
                    isinstance(value, (list, tuple))
                    and any(isinstance(v, dict) for v in value)):
                lines.extend(_human_lines(value, label + "."))
            else:
                lines.append(f"  {label}: {_human_value(value)}")
        return lines
    if not obj:
        return [f"  {prefix.rstrip('.')}: (none)"]
    lines = []
    for idx, value in enumerate(obj):
        if isinstance(value, dict):
            lines.extend(_human_lines(value, f"{prefix}{idx}."))
        else:
            lines.append(f"  {prefix}{idx}: {_human_value(value)}")
    return lines
