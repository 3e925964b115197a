"""Momentum-space spin-1/2 workbench.

Builds bispinor families (helicity eigenstates, dual-helicity and
charge-conjugation eigenspinors, single-block spinors), computes their
bilinear covariants, assigns Lounesto classes with a helicity annotation,
and verifies parity, charge-conjugation and Dirac-operator behavior
numerically.
"""

from .algebra import (
    FourMomentum,
    boost_block,
    gamma,
    gamma5,
    theta_conjugate,
)
from .bilinears import (
    BilinearSet,
    bilinear_set,
    fpk_residuals,
)
from .classify import (
    ClassifyReport,
    HelicityProfile,
    LounestoClass,
    classify_report,
    helicity_profile,
    lounesto_class,
)
from .errors import (
    DirectionMismatchError,
    JobError,
    MasslessError,
    ProvenanceError,
    ScaleError,
    SingularAngleError,
    SpinorError,
    ZeroSpinorError,
)
from .factory import (
    BiSpinor,
    Provenance,
    RestSpinorSpec,
    boost_bispinor,
    build_dual_helicity,
    build_parity_linked,
    build_self_conjugate,
    build_single_helicity,
    build_singular_form,
    build_weyl,
    bispinor_from_blocks,
    dual_helicity_partner,
    rest_spinor,
)
from .symmetries import (
    CEigenCheck,
    SymmetryReport,
    c_eigen_check,
    charge_conjugate,
    dirac_flip_residual,
    dirac_matrix,
    dirac_residual,
    parity_apply,
    parity_eigen_check,
    symmetry_report,
    theta_link_check,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__version__ = "0.1.0"
