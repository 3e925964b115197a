"""Centralized floating-point comparison thresholds.

:class:`Tolerances` holds the two thresholds a job can set, for the class
and the helicity verdicts.  All zero tests on bilinear quantities are
relative to psi^dag psi (they are homogeneous of degree two in the spinor),
so these thresholds are scale-free.  The charge-conjugation and parity
eigen verdicts compare normalized residuals with the fixed :data:`EXACT`.
"""
from __future__ import annotations

from dataclasses import dataclass

#: threshold of the exact-algebra eigen verdicts (C and parity residuals)
EXACT = 1e-12


@dataclass(frozen=True)
class Tolerances:
    #: a bilinear quantity q counts as zero iff |q| <= eps_class * (psi^dag psi);
    #: vectors and tensors use the max-norm of their components
    eps_class: float = 1e-9
    #: relative eigen-residual below which a block counts as a helicity eigenvector
    eps_helicity: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()
