"""Discrete-symmetry operations and Dirac-operator diagnostics.

Charge conjugation acts blockwise as (i Theta conj(lower), -i Theta
conj(upper)) and is an exact involution.  Parity is realized at the spinor
level as gamma0 composed with momentum reflection (intrinsic phase +1).
Boosting at -p swaps the handedness of the block boosts, B_R(-p) = B_L(p),
so gamma0 B(-p) psi_rest = B(p) gamma0 psi_rest: parity is the boost, at
the build momentum, of the rest blocks with the two blocks exchanged
(:func:`parity_batch`).  Parity and the theta-link apply the chiral boosts
only through :func:`factory.boost_bispinor_batch` and its N=1 form
:func:`factory.boost_bispinor`.  For every spinor boosted from rest,
gamma_mu p^mu psi = m P psi.  Two consequences follow: the Dirac operator
maps a dual-helicity spinor onto its parity image, the spinor with the
flipped helicity pair and swapped amplitudes, so the flip defect
vanishes; and the Dirac equation holds exactly for P-even spinors, with
-m for P-odd ones.

The batch forms take a block's momenta as one :class:`algebra.Frame`, built
once per block (N=1 forms: :meth:`FourMomentum.frame`).  Dirac residuals
are normalized by m ||psi||, so one threshold covers every scale.  Being
homogeneous of degree 0 in the spinor and in (m, pmag), the parity, Dirac,
flip and theta-link residuals read the frame's scaled (m, pmag), and the
N=1 forms scale their spinor near 1 by an exact power of two, so nothing
under- or overflows at any magnitude.  The batch residuals take their rows
as given: their components and squared norms must lie inside the float64
range, as every row of the `verify` suite does, and there scaling a row by
a power of two leaves each residual's bits unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernels
from .algebra import FourMomentum, angles_match, theta_conjugate
from .classify import eigen_states
from .errors import MasslessError, ProvenanceError, ScaleError, ZeroSpinorError
from .factory import BiSpinor, boost_bispinor, boost_bispinor_batch
from .kernels import c_eigen_residuals
from .tolerances import EXACT


def _finite(value: float, name: str) -> float:
    """A residual that is not finite means float64 ran out of range at the
    input's scale, raised as :class:`ScaleError`."""
    if not math.isfinite(value):
        raise ScaleError(f"{name} is not representable in float64 at the "
                         "magnitudes of this spinor and momentum")
    return value


_C_SIGNS = np.array([-1.0, -1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0])


def charge_conjugate_batch(psis: np.ndarray) -> np.ndarray:
    """Charge conjugation of an (N, 4) component array, (-i conj(d), i conj(c),
    i conj(b), -i conj(a)): each row of the (N, 8) float view reversed, times
    _C_SIGNS.  Applying it twice returns the input exactly."""
    x = np.ascontiguousarray(psis, dtype=complex).view(np.float64)
    return (x[:, ::-1] * _C_SIGNS).view(complex)


def c_involution_max(psis: np.ndarray) -> float:
    """Worst |C(C psi) - psi| component over an (N, 4) array, N >= 1; NaN
    when any row holds a NaN or an infinity."""
    return float(np.max(np.abs(charge_conjugate_batch(charge_conjugate_batch(psis)) - psis)))


_EIGENVALUES = (1, -1, None)  # eigenvalue of each eigen_states code


@dataclass(frozen=True)
class CEigenCheck:
    """Outcome of testing C psi = +-psi, with per-constraint residuals.

    ``constraints`` maps constraint names to normalized residuals:

    * ``norm_ad`` / ``norm_bc``  -- | |x|^2 - |y|^2 | / psi^dag psi for the
      component-norm conditions |a| = |d| and |b| = |c|
    * ``phase_ad_plus`` etc.     -- alignment of the component phases with
      the +1 or -1 eigenspinor pattern, magnitudes factored out

    A flag-dipole-style spinor typically satisfies the phase pattern of one
    branch while violating the norm conditions; ``violated`` names the
    offenders.
    """

    eigenvalue: Optional[int]
    residual_plus: float
    residual_minus: float
    constraints: dict

    @property
    def residual(self) -> float:
        return min(self.residual_plus, self.residual_minus)

    def violated(self) -> tuple:
        return tuple(
            name for name, value in sorted(self.constraints.items())
            if value > EXACT
        )


def charge_conjugate(psi: BiSpinor) -> BiSpinor:
    """N=1 form of :func:`charge_conjugate_batch`."""
    return BiSpinor.from_array(charge_conjugate_batch(psi.array[None, :])[0])


def _phase_alignment(x: complex, y: complex) -> float:
    # 0 when x and y share a phase (magnitudes ignored); in [0, 2]
    if x == 0 and y == 0:
        return 0.0
    if x == 0 or y == 0:
        return 1.0
    # each scaled near 1 by its own power of two (exact), so that ax * ay
    # lies in [0.25, 2) and the ratio keeps its bits
    x, y = (complex(z) for z in _pow2_scaled([[x], [y]])[:, 0])
    ax, ay = abs(x), abs(y)
    return abs(x * ay - y * ax) / (ax * ay)


def c_eigen_check(psi: BiSpinor) -> CEigenCheck:
    """N=1 form of :func:`c_eigen_residuals`, with the eigenvalue verdict.

    On top of the eigen-residuals, the component constraints behind the
    eigenspinor structure are measured individually so a failure can name
    which condition broke.  Both are homogeneous of degree 0, so they are
    evaluated on psi scaled near 1 by a power of two and do not depend on
    its magnitude.  Raises :class:`ScaleError` when a component is not
    finite.
    """
    if psi.is_zero():
        raise ZeroSpinorError("conjugacy of the zero spinor is undefined")
    arr = _pow2_scaled(psi.array[None, :])
    x = arr.view(np.float64)
    # a component of inf or nan leaves a residual nan, which _finite reports
    with np.errstate(invalid="ignore"):
        res_plus, res_minus = (
            _finite(float(res[0]), "C residual")
            for res in c_eigen_residuals(x.T, np.einsum("ij,ij->i", x, x)))
    eigenvalue = _EIGENVALUES[int(eigen_states(res_plus, res_minus))]
    scaled = BiSpinor.from_array(arr[0])
    a, b, c, d = scaled.a, scaled.b, scaled.c, scaled.d
    n2 = scaled.norm_sq
    constraints = {
        "norm_ad": abs(abs(a) ** 2 - abs(d) ** 2) / n2,
        "norm_bc": abs(abs(b) ** 2 - abs(c) ** 2) / n2,
        "phase_ad_plus": _phase_alignment(a, -1j * d.conjugate()),
        "phase_bc_plus": _phase_alignment(b, 1j * c.conjugate()),
        "phase_ad_minus": _phase_alignment(a, 1j * d.conjugate()),
        "phase_bc_minus": _phase_alignment(b, -1j * c.conjugate()),
    }
    return CEigenCheck(eigenvalue, res_plus, res_minus, constraints)


def parity_batch(rest, frame) -> np.ndarray:
    """Parity images of (..., N, 4) rest rows, boosted at their build momenta,
    a row of ``frame``: the two blocks of each row exchanged (gamma0), then
    boosted with :func:`factory.boost_bispinor_batch`, which equals boosting
    each block with the opposite-handed factor at the reflected momentum.
    Every row needs m > 0."""
    rest = np.asarray(rest, dtype=complex)
    return boost_bispinor_batch(rest[..., [2, 3, 0, 1]], frame)


def parity_apply(psi: BiSpinor, p: Optional[FourMomentum] = None) -> BiSpinor:
    """N=1 form of :func:`parity_batch`, on the rest blocks and build
    momentum stored in the spinor's provenance: the exchanged rest blocks
    boosted by :func:`factory.boost_bispinor`, whose guards reject a zero
    spinor and m = 0.

    Raw spinors without provenance are rejected, and a supplied momentum
    must be the one the spinor was built at (or rest).  An unboosted spinor
    gets its exchanged rest blocks back unboosted.
    """
    prov = psi.provenance
    if prov is None or prov.rest_right is None or prov.rest_left is None:
        raise ProvenanceError(
            "parity needs the construction record of the spinor; raw spinors "
            "cannot be rebuilt at the reflected momentum"
        )
    built_at = prov.momentum
    if p is not None:
        if built_at is None:
            if p.pmag != 0.0:
                raise ProvenanceError(
                    "spinor was not built at a momentum; parity at pmag > 0 "
                    "is undefined for it"
                )
        elif not (
            math.isclose(built_at.m, p.m, rel_tol=1e-12)
            and math.isclose(built_at.pmag, p.pmag, rel_tol=1e-12, abs_tol=1e-300)
            and angles_match(built_at.theta, built_at.phi, p.theta, p.phi)
        ):
            raise ProvenanceError("supplied momentum differs from the build momentum")
    swapped = BiSpinor(*prov.rest_left, *prov.rest_right)
    if built_at is None:
        return swapped  # unboosted: the rest blocks are the components
    return boost_bispinor(swapped, built_at)


def parity_eigen_check(psi: BiSpinor, p: Optional[FourMomentum] = None):
    """(eigenvalue or None, residual) of psi under the parity operation."""
    if psi.is_zero():
        raise ZeroSpinorError("parity eigencheck of the zero spinor is undefined")
    par = parity_apply(psi, p).array
    par, arr = _pow2_scaled(np.concatenate([par, psi.array])[None, :])[0].reshape(2, 4)
    nrm = float(np.linalg.norm(arr))
    res_plus = float(np.linalg.norm(par - arr)) / nrm
    res_minus = float(np.linalg.norm(par + arr)) / nrm
    state = int(eigen_states(res_plus, res_minus))
    return _EIGENVALUES[state], (res_plus, res_minus, min(res_plus, res_minus))[state]


def dirac_matrix_batch(frame) -> np.ndarray:
    """(N, 4, 4) matrices gamma_mu p^mu at the momenta of ``frame``, read
    off :func:`kernels.dirac_apply_shift`: column j is its image of the j-th
    basis spinor, so each matrix has the kernel's cancellation-free
    E +- pz entries, times 2**exp: the matrix is of degree one in (m, pmag)."""
    mats = np.stack([kernels.dirac_apply_shift(np.broadcast_to(basis, (len(frame.e), 4)),
                                               frame, 0.0)
                     for basis in np.eye(4, dtype=complex)], axis=-1)
    return np.ldexp(mats.view(np.float64), frame.exp[:, None, None]).view(complex)


def dirac_matrix(p: FourMomentum) -> np.ndarray:
    """N=1 form of :func:`dirac_matrix_batch`."""
    return dirac_matrix_batch(p.frame())[0]


def _pow2_scaled(x) -> np.ndarray:
    """Each row of x, as complex, times the power of two that puts its
    largest real or imaginary part in [0.5, 1); exact for normal entries."""
    flat = np.ascontiguousarray(x, dtype=complex).view(np.float64)
    exp = np.frexp(kernels._row_max_abs(flat.T)[..., None])[1]
    return np.ldexp(flat, -exp).view(complex)


def dirac_residuals(psis, frame, sign=1) -> np.ndarray:
    """|| gamma_mu p^mu psi - sign m psi || / (m ||psi||) for each (N, 4) row
    at its own momentum, a row of ``frame``.

    Zero for spinors obeying the Dirac dynamics with the chosen mass branch;
    at least one for dual-helicity spinors, whose Dirac image is orthogonal
    to them.  Every row needs m > 0, and its components and squared norm
    inside the float64 range.
    """
    out = kernels.dirac_apply_shift(psis, frame, sign * frame.m)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.linalg.norm(out, axis=1) / (frame.m * np.linalg.norm(psis, axis=1))


def dirac_residual(psi: BiSpinor, p: FourMomentum, sign: int = 1) -> float:
    """N=1 form of :func:`dirac_residuals`."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if p.m <= 0.0:
        raise MasslessError("Dirac residual requires m > 0")
    if psi.is_zero():
        raise ZeroSpinorError("Dirac residual of the zero spinor is undefined")
    res = dirac_residuals(_pow2_scaled(psi.array[None, :]), p.frame(), sign)
    return _finite(float(res[0]), "Dirac residual")


def dirac_flip_residuals(src, dst, frame) -> np.ndarray:
    """Collinearity defects of gamma_mu p^mu src against dst, row by row.

    || v - proj_w v || / ||v|| with v the Dirac image of a row of src and
    w the same row of dst; near zero confirms that the Dirac operator
    carries src onto the line spanned by dst.  The Dirac operator maps each
    spinor boosted from rest onto m times its parity image, so for a
    dual-helicity spinor and its :func:`parity_batch` image this vanishes in
    both directions.  Every row needs its components and squared norm
    inside the float64 range.
    """
    v = kernels.dirac_apply_shift(src, frame, 0.0)
    coeff = np.sum(np.conj(dst) * v, axis=1) / np.sum(np.conj(dst) * dst, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.linalg.norm(v - coeff[:, None] * dst, axis=1)
                / np.linalg.norm(v, axis=1))


def dirac_flip_residual(psi_from: BiSpinor, psi_onto: BiSpinor,
                        p: FourMomentum) -> float:
    """N=1 form of :func:`dirac_flip_residuals`."""
    if psi_from.is_zero() or psi_onto.is_zero():
        raise ZeroSpinorError("flip residual needs two nonzero spinors")
    if p.m <= 0.0:
        raise MasslessError("flip residual requires m > 0 (the image vanishes "
                            "on the light cone)")
    src, dst = _pow2_scaled([psi_from.array, psi_onto.array])[:, None]
    res = dirac_flip_residuals(src, dst, p.frame())
    return _finite(float(res[0]), "flip residual")


def theta_link_residuals(blocks, zeta, frame) -> np.ndarray:
    """Residuals of the Theta-conjugation route between the chiral spaces.

    Boosting a left-handed block and Theta-conjugating must equal
    Theta-conjugating first and boosting with the right-handed factor:
    zeta Theta conj(B_left block) = B_right (zeta Theta conj(block)).  Both
    sides come from one :func:`factory.boost_bispinor_batch` call on the
    rest rows (zeta Theta conj(block), block): lhs is zeta Theta conj of
    the boosted lower block, rhs the boosted upper one.  One (N, 2) block,
    unit phase and ``frame`` row per row; each residual is
    || lhs - rhs || / || lhs ||.  Every row needs m > 0, and its components
    and squared norm inside the float64 range.
    """
    zeta = np.asarray(zeta, dtype=complex)[..., None]
    rest = np.concatenate([zeta * theta_conjugate(blocks), blocks], axis=-1)
    boosted = boost_bispinor_batch(rest, frame)
    lhs = zeta * theta_conjugate(boosted[:, 2:])
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.linalg.norm(lhs - boosted[:, :2], axis=-1)
                / np.linalg.norm(lhs, axis=-1))


def theta_link_check(phi_left_rest, p: FourMomentum, zeta: complex = 1.0) -> float:
    """N=1 form of :func:`theta_link_residuals`.

    The unit phase zeta passes through both sides and cannot change the
    residual.
    """
    block = np.asarray(phi_left_rest, dtype=complex)
    if block.shape != (2,):
        raise ValueError("block must have two components")
    if block[0] == 0 and block[1] == 0:
        raise ZeroSpinorError("theta-link check needs a nonzero block")
    if abs(abs(complex(zeta)) - 1.0) > 1e-12:
        raise ValueError("zeta must be a unit phase")
    if p.m <= 0.0:
        raise MasslessError("boost requires m > 0")
    res = theta_link_residuals(_pow2_scaled(block[None, :]), [complex(zeta)], p.frame())
    return _finite(float(res[0]), "theta-link residual")


@dataclass(frozen=True, eq=False)
class SymmetryReport:
    """Residuals and verdicts for the discrete-symmetry diagnostics.

    Eigenvalues are reported only when the matching residual is within
    :data:`tolerances.EXACT`; otherwise they are None and the residual still
    records how far the spinor is from the nearest eigenspinor.
    """

    parity_eigenvalue: Optional[int]
    parity_residual: Optional[float]
    c_eigenvalue: Optional[int]
    c_residual: float
    c_constraints: dict
    c_involution_residual: float
    dirac_residual_plus: Optional[float]
    dirac_residual_minus: Optional[float]
    dirac_flip_residual: Optional[float]
    theta_link_residual: Optional[float]
    findings: tuple = field(default_factory=tuple)


def symmetry_report(psi: BiSpinor, p: Optional[FourMomentum] = None,
                    zeta: complex = 1.0) -> SymmetryReport:
    """Run every applicable symmetry diagnostic on one spinor; ``zeta`` is
    the unit phase of the theta-link check.

    Checks that need information the input does not carry (parity without
    provenance, Dirac residuals without a momentum) are skipped with a
    finding rather than raised.
    """
    if psi.is_zero():
        raise ZeroSpinorError("symmetry report of the zero spinor is undefined")
    findings: list[str] = []

    cres = c_eigen_check(psi)
    involution = c_involution_max(psi.array[None, :])

    parity_eigenvalue = parity_residual = None
    try:
        parity_eigenvalue, parity_residual = parity_eigen_check(psi, p)
    except ProvenanceError as exc:
        findings.append(f"parity check skipped: {exc}")

    dplus = dminus = flip = theta_link = None
    if p is None or p.m <= 0.0:
        why = "no momentum supplied" if p is None else "massless momentum"
        findings.append(f"{why}; Dirac diagnostics skipped")
        findings.append(f"{why}; theta-link check skipped")
    else:
        dplus = dirac_residual(psi, p, 1)
        dminus = dirac_residual(psi, p, -1)
        prov = psi.provenance
        if prov is not None and prov.family == "dual_helicity":
            flip = dirac_flip_residual(psi, parity_apply(psi), p)
        if psi.c == 0 and psi.d == 0:
            findings.append("left block is null; theta-link check skipped")
        else:
            theta_link = theta_link_check(psi.left, p, zeta)

    return SymmetryReport(parity_eigenvalue, parity_residual, cres.eigenvalue,
                          cres.residual, cres.constraints, involution, dplus,
                          dminus, flip, theta_link, tuple(findings))
