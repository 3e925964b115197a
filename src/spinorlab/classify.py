"""Lounesto class assignment and per-block helicity profiling.

The six classes are decided by which of sigma, omega, K, S vanish.  The
annotation column is ``CLASS_ANNOTATIONS`` and the helicity category each
class predicts is ``CLASS_CATEGORIES``, both indexed by class (0 =
unclassifiable):

====== ======== ======== ====== ====== =====================
class  sigma    omega    K      S      annotation
====== ======== ======== ====== ====== =====================
1      nonzero  nonzero  any    any    single-helicity
2      nonzero  0        any    any    single-helicity
3      0        nonzero  any    any    single-helicity
4      0        0        != 0   != 0   dual-helicity
5      0        0        0      != 0   dual-helicity
6      0        0        != 0   0      Not well defined
====== ======== ======== ====== ====== =====================

sigma and omega alone decide a regular row (classes 1-3), so the batch path
evaluates K's and S's zero tests, and S itself, only for the rows where both
vanish (see :func:`lounesto_classes` and :func:`analyze`).

sigma = omega = K = S = 0 with J != 0 is algebraically impossible for a true
spinor, so that pattern is reported as unclassifiable together with the
measured bilinears for diagnosis rather than raised as an error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import kernels
from .algebra import unit_vectors
from .bilinears import BilinearSet, bilinear_set, fpk_columns, fpk_residuals
from .errors import ZeroSpinorError
from .factory import BiSpinor
from .symmetries import c_eigen_residuals, eigen_states
from .tolerances import DEFAULT_TOLERANCES, Tolerances

CATEGORY_SINGLE = "single"
CATEGORY_DUAL = "dual"
CATEGORY_NOT_WELL_DEFINED = "not-well-defined"
CATEGORY_NON_EIGEN = "non-eigen"

#: integer category codes used by the batch helpers
CAT_SINGLE, CAT_DUAL, CAT_NOT_WELL_DEFINED, CAT_NON_EIGEN = 0, 1, 2, 3
CATEGORY_NAMES = {
    CAT_SINGLE: CATEGORY_SINGLE,
    CAT_DUAL: CATEGORY_DUAL,
    CAT_NOT_WELL_DEFINED: CATEGORY_NOT_WELL_DEFINED,
    CAT_NON_EIGEN: CATEGORY_NON_EIGEN,
}

#: annotation of each class index; 0 = unclassifiable
CLASS_ANNOTATIONS = ("unclassifiable", "single-helicity", "single-helicity",
                     "single-helicity", "dual-helicity", "dual-helicity",
                     "Not well defined")
#: CAT_* code each class index predicts; -1 for 0, which predicts none
CLASS_CATEGORIES = np.array([-1, CAT_SINGLE, CAT_SINGLE, CAT_SINGLE, CAT_DUAL,
                             CAT_DUAL, CAT_NOT_WELL_DEFINED], dtype=np.int8)
CLASS_CATEGORIES.flags.writeable = False


@dataclass(frozen=True)
class LounestoClass:
    """Class index 1..6, or None when the zero pattern matches no class."""

    index: Optional[int]

    @property
    def annotation(self) -> str:
        return CLASS_ANNOTATIONS[self.index or 0]


def lounesto_classes(sigma, omega, j, k, s,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Vectorized decision tree over the (N,) columns j, k of J and K (as
    :func:`kernels.bilinears` returns them, or an array's ``.T``); returns
    (N,) int8, 0 = unclassifiable.

    sigma and omega decide every regular row, so K and S are read only for
    the rows where both test zero: all rows when every row is singular,
    those gathered by index when some are.  ``s`` is a function that returns
    S's six columns for such a row selection.
    """
    with np.errstate(over="ignore"):  # inf at a huge threshold: all test zero
        scale = tol.eps_class * j[0]
    sig0 = np.abs(sigma) <= scale
    om0 = np.abs(omega) <= scale
    out = np.zeros(len(sigma), dtype=np.int8)
    out[~sig0 & ~om0] = 1
    out[~sig0 & om0] = 2
    out[sig0 & ~om0] = 3
    singular = sig0 & om0
    if singular.all():
        rows = slice(None)
    elif singular.any():
        rows = np.flatnonzero(singular)
    else:
        return out
    scale = scale[rows]
    k0 = kernels._row_max_abs([c[rows] for c in k]) <= scale
    s0 = kernels._row_max_abs(s(rows)) <= scale
    verdict = np.zeros(len(scale), dtype=np.int8)
    verdict[~k0 & ~s0] = 4
    verdict[k0 & ~s0] = 5
    verdict[~k0 & s0] = 6
    out[rows] = verdict
    return out


def lounesto_class(bset: BilinearSet,
                   tol: Tolerances = DEFAULT_TOLERANCES) -> LounestoClass:
    """Class of one spinor's bilinear set; total and deterministic."""
    idx = lounesto_classes(
        np.array([bset.sigma]),
        np.array([bset.omega]),
        bset.j[:, None],
        bset.k[:, None],
        lambda rows: bset.s[:, None][:, rows],
        tol,
    )[0]
    return LounestoClass(int(idx) if idx != 0 else None)


@dataclass(frozen=True)
class HelicityProfile:
    """Helicity verdict of each chiral block along a supplied direction.

    A block is a null block when its squared norm is below
    eps_class * psi^dag psi; otherwise it is plus/minus when the relative
    eigen-residual against sigma.n is below eps_helicity, else not-eigen.
    Residuals are NaN for null blocks.  ``category`` is the name of the
    :func:`helicity_categories` code of the two blocks.  For a class-6
    spinor the nonzero block's helicity is still reported per block even
    though the category stays not-well-defined.
    """

    right: str
    left: str
    right_residual: float
    left_residual: float
    category: str


def helicity_profiles(cols, n, tol: Tolerances = DEFAULT_TOLERANCES):
    """Vectorized block verdicts, from the rows' :func:`kernels.columns`,
    along each row's unit vectors n = (nx, ny, nz), as the batch
    constructors or :func:`algebra.unit_vectors` give them.

    Returns (right_state, left_state, right_rel, left_rel).  States are int8
    codes: 0 null, +1 plus, -1 minus, 2 not-eigen.  Each ``*_rel`` is the
    block's (rel_plus, rel_minus) pair of eigen-residuals relative to its
    norm; they mean nothing for a null block.
    """
    nx, ny, nz = n
    rp, rm, rn, lp, lm, ln = kernels.helicity_residuals(cols, nz, nx, ny)
    total = rn**2 + ln**2
    with np.errstate(over="ignore"):  # as in lounesto_classes
        null_scale = np.sqrt(tol.eps_class * total)

    def _block(res_p, res_m, nrm):
        null = nrm <= null_scale
        with np.errstate(invalid="ignore", divide="ignore"):
            rel_p = res_p / nrm
            rel_m = res_m / nrm
        state = np.full(len(nrm), 2, dtype=np.int8)
        state[null] = 0
        state[(rel_p < tol.eps_helicity) & ~null] = 1
        state[(rel_m < tol.eps_helicity) & ~null] = -1
        return state, (rel_p, rel_m)

    rstate, rrel = _block(rp, rm, rn)
    lstate, lrel = _block(lp, lm, ln)
    return rstate, lstate, rrel, lrel


def helicity_categories(rstate, lstate) -> np.ndarray:
    """Category codes from block states: single or dual when both blocks
    are eigen with equal or opposite helicity, not-well-defined when
    exactly one block is null, else non-eigen."""
    rstate = np.asarray(rstate)
    lstate = np.asarray(lstate)
    out = np.full(len(rstate), CAT_NON_EIGEN, dtype=np.int8)
    eigen_r = np.abs(rstate) == 1
    eigen_l = np.abs(lstate) == 1
    both = eigen_r & eigen_l
    out[both & (rstate == lstate)] = CAT_SINGLE
    out[both & (rstate != lstate)] = CAT_DUAL
    out[(rstate == 0) ^ (lstate == 0)] = CAT_NOT_WELL_DEFINED
    return out


class Analysis(NamedTuple):
    """Per-row verdicts of :func:`analyze` for an (N, 4) spinor array."""
    classes: np.ndarray               # (N,) int8 class index, 0 = unclassifiable
    categories: Optional[np.ndarray]  # (N,) int8 CAT_* code; None without a direction
    fpk_max: np.ndarray               # (3,) worst constraint residuals
    c_states: np.ndarray              # (N,) C state code of symmetries.eigen_states


def analyze(psis: np.ndarray, n=None,
            tol: Tolerances = DEFAULT_TOLERANCES) -> Analysis:
    """Lounesto classes, C eigen states and, along the unit vectors n of
    :func:`helicity_profiles`, helicity categories of every row: the one
    pass that turns a block into per-row verdicts.

    Every verdict reads the block's :func:`kernels.columns`, transposed
    once.  sigma, omega, J and K are evaluated for every row; S only for
    the rows whose sigma and omega both test zero (see
    :func:`lounesto_classes`).  The bilinears are freed before the helicity
    pass.  The C states cost about a sixth of the pass on a raw block (0.18
    of 1.07 ms per 8192 rows, one core of a 2-CPU Xeon).
    """
    cols = kernels.columns(psis)
    sigma, omega, j, k = kernels.bilinears(cols)
    classes = lounesto_classes(
        sigma, omega, j, k, lambda rows: kernels.tensor([c[rows] for c in cols]), tol)
    # one column at a time, as in kernels._row_max_abs
    fpk_max = np.array([c.max() for c in fpk_columns(sigma, omega, j, k)])
    del sigma, omega, j, k
    categories = None
    if n is not None:
        rstate, lstate, _, _ = helicity_profiles(cols, n, tol)
        categories = helicity_categories(rstate, lstate)
    return Analysis(classes, categories, fpk_max,
                    eigen_states(*c_eigen_residuals(psis, cols)))


_STATE_NAME = {0: "null-block", 1: "plus", -1: "minus", 2: "not-eigen"}


def _block_residual(state, rel_plus, rel_minus) -> float:
    """The residual a profile reports for one block in ``state``."""
    if state == 0:
        return float("nan")
    if state == 1:
        return float(rel_plus)
    if state == -1:
        return float(rel_minus)
    return float(np.minimum(rel_plus, rel_minus))


def helicity_profile(psi: BiSpinor, theta: float, phi: float,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> HelicityProfile:
    """Helicity profile of one spinor along (theta, phi)."""
    if psi.is_zero():
        raise ZeroSpinorError("helicity profile of the zero spinor is undefined")
    rs, ls, (rp, rm), (lp, lm) = helicity_profiles(
        kernels.columns(psi.array[None, :]), unit_vectors(theta, phi), tol)
    return HelicityProfile(
        _STATE_NAME[int(rs[0])], _STATE_NAME[int(ls[0])],
        _block_residual(rs[0], rp[0], rm[0]), _block_residual(ls[0], lp[0], lm[0]),
        CATEGORY_NAMES[int(helicity_categories(rs, ls)[0])],
    )


@dataclass(frozen=True, eq=False)
class ClassifyReport:
    """Bilinears, constraint residuals, class and helicity in one record."""

    bilinears: BilinearSet
    fpk: np.ndarray
    lounesto: LounestoClass
    helicity: Optional[HelicityProfile]
    direction: Optional[tuple[float, float]]
    findings: tuple = field(default_factory=tuple)


def classify_report(psi: BiSpinor,
                    direction: Optional[tuple[float, float]] = None,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> ClassifyReport:
    """Full classification record for one spinor.

    The helicity direction defaults to the constructor's; raw spinors with
    no supplied direction get no helicity profile (a direction will not be
    guessed) and the omission is recorded as a finding.  A mismatch between
    the class annotation and the measured helicity category is likewise a
    flagged finding, never an error: an arbitrary regular spinor need not be
    an eigenstate along any particular axis.
    """
    if psi.is_zero():
        raise ZeroSpinorError("cannot classify the zero spinor")
    findings: list[str] = []
    if direction is None and psi.provenance is not None:
        direction = psi.provenance.direction
    bset = bilinear_set(psi)
    fpk = fpk_residuals(bset)
    cls = lounesto_class(bset, tol)
    profile = None
    if direction is None:
        findings.append("no direction supplied; helicity profile skipped")
    else:
        profile = helicity_profile(psi, direction[0], direction[1], tol)
        expected = int(CLASS_CATEGORIES[cls.index or 0])
        if profile.category == CATEGORY_NON_EIGEN:
            findings.append("helicity not aligned with supplied direction")
        elif expected >= 0 and profile.category != CATEGORY_NAMES[expected]:
            findings.append(
                f"class annotation '{cls.annotation}' does not match measured "
                f"helicity category '{profile.category}'"
            )
    if cls.index is None:
        findings.append(
            "all of sigma, omega, K, S test zero with J != 0: numerically "
            "degenerate input"
        )
    return ClassifyReport(bset, fpk, cls, profile, direction, tuple(findings))
