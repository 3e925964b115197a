"""Momentum-space spin-1/2 workbench.

Builds bispinor families (helicity eigenstates, dual-helicity and
charge-conjugation eigenspinors, single-block spinors), computes their
bilinear covariants, assigns Lounesto classes with a helicity annotation,
and verifies parity, charge-conjugation and Dirac-operator behavior
numerically.

Each public name is imported from its submodule on first use (PEP 562), so
``import spinorlab`` alone loads no numpy.  That lets the command line set
its BLAS defaults before numpy loads (see :mod:`spinorlab.cli`).
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": ("FourMomentum", "gamma", "gamma5", "theta_conjugate"),
    "bilinears": ("BilinearSet", "bilinear_set", "fpk_residuals"),
    "classify": ("ClassifyReport", "HelicityProfile", "LounestoClass",
                 "classify_report", "helicity_profile", "lounesto_class"),
    "errors": ("DirectionMismatchError", "JobError", "MasslessError",
               "ProvenanceError", "ScaleError", "SingularAngleError",
               "SpinorError", "ZeroSpinorError"),
    "factory": ("BiSpinor", "Provenance", "boost_bispinor", "build_dual_helicity",
                "build_parity_linked", "build_self_conjugate", "build_single_helicity",
                "build_singular_form", "build_weyl", "rest_spinor"),
    "symmetries": ("CEigenCheck", "SymmetryReport", "c_eigen_check", "charge_conjugate",
                   "dirac_flip_residual", "dirac_matrix", "dirac_residual",
                   "parity_apply", "parity_eigen_check", "symmetry_report",
                   "theta_link_check"),
    "tolerances": ("DEFAULT_TOLERANCES", "Tolerances"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
