"""Discrete-symmetry operations and Dirac-operator diagnostics.

Charge conjugation acts blockwise as (i Theta conj(lower), -i Theta
conj(upper)) and is an exact involution.  Parity is realized at the spinor
level as gamma0 composed with momentum reflection (intrinsic phase +1).
Boosting at -p swaps the handedness of the block boosts, B_R(-p) = B_L(p),
so gamma0 B(-p) psi_rest = B(p) gamma0 psi_rest: parity is the boost, at
the build momentum, of the rest blocks recorded in a spinor's provenance
with the two blocks exchanged.  All Dirac-operator residuals are
normalized by m ||psi|| so that one threshold covers every momentum scale.
Being homogeneous of degree 0 in the spinor and in (m, pmag), the Dirac,
flip and theta-link residuals are evaluated on inputs scaled near 1 by
exact powers of two, so nothing under- or overflows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernels
from .algebra import (
    FourMomentum,
    angles_match,
    boost_block_batch,
    momentum_components,
    theta_conjugate,
)
from .errors import MasslessError, ProvenanceError, ScaleError, ZeroSpinorError
from .factory import BiSpinor, boost_bispinor_batch, dual_helicity_partner
from .tolerances import DEFAULT_TOLERANCES, Tolerances


def _finite(value: float, name: str) -> float:
    """A residual that is not finite means float64 ran out of range at the
    input's scale, raised as :class:`ScaleError`."""
    if not math.isfinite(value):
        raise ScaleError(f"{name} is not representable in float64 at the "
                         "magnitudes of this spinor and momentum")
    return value


def _ratio(num: float, den: float, name: str) -> float:
    # normalized residual whose den is the norm of a nonzero vector
    return _finite(num / den if 0.0 < den < math.inf else math.nan, name)


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


def eigen_states(res_plus, res_minus, tol: Tolerances):
    """Codes of the +-1 eigen verdict from the residuals of both branches:
    0 for +1 when ``res_plus <= tol.exact`` (+1 wins a tie), else 1 for -1
    when ``res_minus <= tol.exact``, else 2 for neither (NaN included)."""
    return np.where(res_plus <= tol.exact, 0, np.where(res_minus <= tol.exact, 1, 2))


_EIGENVALUES = (1, -1, None)  # eigenvalue of each eigen_states code


def c_eigen_residuals(psis: np.ndarray, cols=None) -> tuple[np.ndarray, np.ndarray]:
    """(res_plus, res_minus): ||C psi -+ psi|| / ||psi|| for each nonzero
    (N, 4) row; ``cols`` are its :func:`kernels.columns` when the caller
    holds them already.

    Computed in real arithmetic on the (N, 8) float view, with no complex
    temporaries.  Components 0 and 3 of C psi -+ psi have equal moduli, and
    so do components 1 and 2, so
    ||C psi -+ psi||^2 = 2 [(a_r +- d_i)^2 + (a_i +- d_r)^2
                            + (b_r -+ c_i)^2 + (b_i -+ c_r)^2].
    A row built as an eigenspinor of either sign reads exactly 0 on its
    branch.
    """
    x = np.ascontiguousarray(psis, dtype=complex).view(np.float64)
    ar, ai, br, bi, cr, ci, dr, di = x.T if cols is None else cols
    norm_sq = np.einsum("ij,ij->i", x, x)

    def residual(ad, bc):
        total = np.square(ad(ar, di))
        total += np.square(ad(ai, dr))
        total += np.square(bc(br, ci))
        total += np.square(bc(bi, cr))
        total *= 2.0
        total /= norm_sq
        return np.sqrt(total, out=total)

    return residual(np.add, np.subtract), residual(np.subtract, np.add)


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

    def violated(self, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple:
        return tuple(
            name for name, value in sorted(self.constraints.items())
            if value > tol.exact
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
    # each scaled near 1 by its own power of two, so that ax * ay cannot
    # underflow; exact, so an in-range ratio keeps its bits
    x, y = (complex(z) for z in _pow2_scaled([[x], [y]])[:, 0])
    ax, ay = abs(x), abs(y)
    return _ratio(abs(x * ay - y * ax), ax * ay, "C phase alignment")


def c_eigen_check(psi: BiSpinor,
                  tol: Tolerances = DEFAULT_TOLERANCES) -> CEigenCheck:
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
    # a component of inf or nan leaves a residual nan, which _finite reports
    with np.errstate(invalid="ignore"):
        res_plus, res_minus = (_finite(float(res[0]), "C residual")
                               for res in c_eigen_residuals(arr))
    eigenvalue = _EIGENVALUES[int(eigen_states(res_plus, res_minus, tol))]
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


def parity_apply(psi: BiSpinor, p: Optional[FourMomentum] = None) -> BiSpinor:
    """gamma0 composed with momentum reflection.

    Exchanges the rest blocks stored in the spinor's provenance (gamma0) and
    boosts them at the build momentum, which equals boosting each block with
    the opposite-handed factor at the reflected momentum.  Raw spinors
    without provenance are rejected, and a supplied momentum must be the one
    the spinor was built at (or rest).
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
    if built_at.m <= 0.0:
        raise MasslessError("boost requires m > 0")
    arr = boost_bispinor_batch(swapped.array[None, :], *(
        np.array([x]) for x in (built_at.m, built_at.pmag, built_at.theta, built_at.phi)))
    return BiSpinor.from_array(arr[0])


def parity_eigen_check(psi: BiSpinor, p: Optional[FourMomentum] = None,
                       tol: Tolerances = DEFAULT_TOLERANCES):
    """(eigenvalue or None, residual) of psi under the parity operation."""
    par = parity_apply(psi, p).array
    arr = psi.array
    nrm = float(np.linalg.norm(arr))
    if nrm == 0.0:
        raise ZeroSpinorError("parity eigencheck of the zero spinor is undefined")
    res_plus = float(np.linalg.norm(par - arr)) / nrm
    res_minus = float(np.linalg.norm(par + arr)) / nrm
    state = int(eigen_states(res_plus, res_minus, tol))
    return _EIGENVALUES[state], (res_plus, res_minus, min(res_plus, res_minus))[state]


def dirac_matrix_batch(m, pmag, theta, phi) -> np.ndarray:
    """(N, 4, 4) matrices gamma_mu p^mu, with the Dirac kernel's
    cancellation-free E +- pz entries."""
    e, px, py, pz = momentum_components(m, pmag, theta, phi)
    ezp, ezm = kernels._e_plus_minus_pz(e, m, px, py, pz)
    pm = px - 1j * py
    out = np.zeros(np.shape(e) + (4, 4), dtype=complex)
    out[..., 0, 2], out[..., 0, 3] = ezp, pm
    out[..., 1, 2], out[..., 1, 3] = np.conj(pm), ezm
    out[..., 2, 0], out[..., 2, 1] = ezm, -pm
    out[..., 3, 0], out[..., 3, 1] = -np.conj(pm), ezp
    return out


def dirac_matrix(p: FourMomentum) -> np.ndarray:
    """gamma_mu p^mu as an explicit 4x4 matrix."""
    return dirac_matrix_batch(p.m, p.pmag, p.theta, p.phi)


def _pow2_scaled(x, dtype=complex) -> np.ndarray:
    """Each row of x, as ``dtype``, times the power of two that puts its
    largest real or imaginary part in [0.5, 1); exact for normal entries."""
    flat = np.ascontiguousarray(x, dtype=dtype).view(np.float64)
    exp = np.frexp(kernels._row_max_abs(flat.T)[..., None])[1]
    return np.ldexp(flat, -exp).view(dtype)


def _pow2_mass(m, pmag):
    # each row's (m, pmag) times one common power of two
    mp = _pow2_scaled(np.stack([m, pmag], axis=-1), float)
    return mp[..., 0], mp[..., 1]


def dirac_residuals(psis, m, pmag, theta, phi, sign=1) -> np.ndarray:
    """|| gamma_mu p^mu psi - sign m psi || / (m ||psi||) for each (N, 4) row
    at its own momentum.

    Zero for spinors obeying the Dirac dynamics with the chosen mass branch;
    at least one for dual-helicity spinors, whose Dirac image is orthogonal
    to them.  Every row needs m > 0.
    """
    arr = _pow2_scaled(psis)
    m, pmag = _pow2_mass(m, pmag)
    e, px, py, pz = momentum_components(m, pmag, theta, phi)
    out = kernels.dirac_apply_shift(arr, e, m, px, py, pz, sign * m)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.linalg.norm(out, axis=1) / (m * np.linalg.norm(arr, axis=1))


def dirac_residual(psi: BiSpinor, p: FourMomentum, sign: int = 1) -> float:
    """N=1 form of :func:`dirac_residuals`."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if p.m <= 0.0:
        raise MasslessError("Dirac residual requires m > 0")
    if psi.is_zero():
        raise ZeroSpinorError("Dirac residual of the zero spinor is undefined")
    res = dirac_residuals(psi.array[None, :], p.m, p.pmag, p.theta, p.phi, sign)
    return _finite(float(res[0]), "Dirac residual")


def dirac_flip_residuals(src, dst, m, pmag, theta, phi) -> np.ndarray:
    """Collinearity defects of gamma_mu p^mu src against dst, row by row.

    || v - proj_w v || / ||v|| with v the Dirac image of a row of src and
    w the same row of dst; near zero confirms that the Dirac operator
    carries src onto the line spanned by dst.  For a dual-helicity spinor
    the partner with flipped helicity pair and swapped amplitudes makes this
    vanish in both directions (see :func:`factory.dual_helicity_partner`).
    """
    m, pmag = _pow2_mass(m, pmag)
    e, px, py, pz = momentum_components(m, pmag, theta, phi)
    v = kernels.dirac_apply_shift(_pow2_scaled(src), e, m, px, py, pz, 0.0)
    w = _pow2_scaled(dst)
    coeff = np.sum(np.conj(w) * v, axis=1) / np.sum(np.conj(w) * w, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.linalg.norm(v - coeff[:, None] * w, axis=1)
                / np.linalg.norm(v, axis=1))


def dirac_flip_residual(psi_from: BiSpinor, psi_onto: BiSpinor,
                        p: FourMomentum) -> float:
    """N=1 form of :func:`dirac_flip_residuals`."""
    if psi_from.is_zero() or psi_onto.is_zero():
        raise ZeroSpinorError("flip residual needs two nonzero spinors")
    if p.m <= 0.0:
        raise MasslessError("flip residual requires m > 0 (the image vanishes "
                            "on the light cone)")
    res = dirac_flip_residuals(psi_from.array[None, :], psi_onto.array[None, :],
                               p.m, p.pmag, p.theta, p.phi)
    return _finite(float(res[0]), "flip residual")


def theta_link_residuals(blocks, zeta, m, pmag, theta, phi) -> np.ndarray:
    """Residuals of the Theta-conjugation route between the chiral spaces.

    Boosting a left-handed block and Theta-conjugating must equal
    Theta-conjugating first and boosting with the right-handed factor:
    zeta Theta conj(B_left block) = B_right (zeta Theta conj(block)).
    One (N, 2) block, unit phase and momentum per row; each residual is
    || lhs - rhs || / || lhs ||.  Every row needs m > 0.
    """
    blocks = _pow2_scaled(blocks)
    m, pmag = _pow2_mass(m, pmag)
    zeta = np.asarray(zeta, dtype=complex)[..., None]
    left = boost_block_batch(-1, m, pmag, theta, phi) @ blocks[..., None]
    lhs = zeta * theta_conjugate(left[..., 0])
    rhs = boost_block_batch(1, m, pmag, theta, phi) @ (
        zeta * theta_conjugate(blocks))[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.linalg.norm(lhs - rhs[..., 0], axis=-1)
                / np.linalg.norm(lhs, axis=-1))


def theta_link_check(phi_left_rest, p: FourMomentum, zeta: complex = 1.0) -> float:
    """N=1 form of :func:`theta_link_residuals`.

    The unit phase zeta passes through both sides and cannot change the
    residual.
    """
    block = np.asarray(phi_left_rest, dtype=complex)
    if block[0] == 0 and block[1] == 0:
        raise ZeroSpinorError("theta-link check needs a nonzero block")
    if abs(abs(complex(zeta)) - 1.0) > 1e-12:
        raise ValueError("zeta must be a unit phase")
    if p.m <= 0.0:
        raise MasslessError("boost requires m > 0")
    res = theta_link_residuals(block[None, :], [complex(zeta)], *(
        np.array([x]) for x in (p.m, p.pmag, p.theta, p.phi)))
    return _finite(float(res[0]), "theta-link residual")


@dataclass(frozen=True, eq=False)
class SymmetryReport:
    """Residuals and verdicts for the discrete-symmetry diagnostics.

    Eigenvalues are reported only when the matching residual is below the
    exact-algebra tolerance; otherwise they are None and the residual still
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
                    tol: Tolerances = DEFAULT_TOLERANCES,
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

    cres = c_eigen_check(psi, tol)
    cc = charge_conjugate(charge_conjugate(psi)).array
    involution = _ratio(float(np.linalg.norm(cc - psi.array)),
                        float(np.linalg.norm(psi.array)), "C involution residual")

    parity_eigenvalue = None
    parity_residual = None
    try:
        parity_eigenvalue, parity_residual = parity_eigen_check(psi, p, tol)
    except ProvenanceError as exc:
        findings.append(f"parity check skipped: {exc}")

    dplus = dminus = None
    flip = None
    if p is None:
        findings.append("no momentum supplied; Dirac diagnostics skipped")
    elif p.m <= 0.0:
        findings.append("massless momentum; Dirac diagnostics skipped")
    else:
        dplus = dirac_residual(psi, p, 1)
        dminus = dirac_residual(psi, p, -1)
        prov = psi.provenance
        if prov is not None and prov.family == "dual_helicity":
            partner = dual_helicity_partner(psi)
            flip = dirac_flip_residual(psi, partner, p)

    theta_link = None
    if p is None:
        findings.append("no momentum supplied; theta-link check skipped")
    elif p.m <= 0.0:
        findings.append("massless momentum; theta-link check skipped")
    elif psi.c == 0 and psi.d == 0:
        findings.append("left block is null; theta-link check skipped")
    else:
        theta_link = theta_link_check(psi.left, p, zeta)

    return SymmetryReport(
        parity_eigenvalue=parity_eigenvalue,
        parity_residual=parity_residual,
        c_eigenvalue=cres.eigenvalue,
        c_residual=cres.residual,
        c_constraints=cres.constraints,
        c_involution_residual=involution,
        dirac_residual_plus=dplus,
        dirac_residual_minus=dminus,
        dirac_flip_residual=flip,
        theta_link_residual=theta_link,
        findings=tuple(findings),
    )
