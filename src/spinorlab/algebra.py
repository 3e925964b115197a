"""Fixed-size complex linear algebra for chiral bispinors.

Constant operators (Pauli and gamma matrices), Theta conjugation of
two-component blocks, on-shell momenta, the chiral boost blocks and the
Bloch direction of a block.  Conventions used throughout the package:

* metric signature (+, -, -, -)
* chiral ordering with the right-handed block on top
* gamma0 = offdiag(I, I), gamma^k = [[0, -sigma_k], [sigma_k, 0]]
* gamma5 = i gamma0 gamma1 gamma2 gamma3 = diag(+1, +1, -1, -1)

Boost entries are evaluated through cancellation-free forms (``E - p`` is
rewritten as ``m^2 / (E + p)`` and friends) so that boosted spinors stay
accurate up to momentum/mass ratios of order 1e3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MasslessError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA = (SIGMA_X, SIGMA_Y, SIGMA_Z)

_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)

_GAMMA = (
    np.block([[_Z2, _I2], [_I2, _Z2]]),
    np.block([[_Z2, -SIGMA_X], [SIGMA_X, _Z2]]),
    np.block([[_Z2, -SIGMA_Y], [SIGMA_Y, _Z2]]),
    np.block([[_Z2, -SIGMA_Z], [SIGMA_Z, _Z2]]),
)
_GAMMA5 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)


def gamma(mu: int) -> np.ndarray:
    """Gamma matrix with index mu in {0, 1, 2, 3}, chiral basis."""
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"gamma index must be in 0..3, got {mu!r}")
    return _GAMMA[mu].copy()


def gamma5() -> np.ndarray:
    """Chirality operator, +1 on the right-handed (top) block."""
    return _GAMMA5.copy()


def theta_conjugate(block: np.ndarray) -> np.ndarray:
    """Theta . conj(block); flips the helicity of any sigma.n eigenvector.

    Acts on the last axis, so an (N, 2) array of blocks maps row by row.
    """
    b = np.asarray(block, dtype=complex)
    return np.stack([-np.conj(b[..., 1]), np.conj(b[..., 0])], axis=-1)


@dataclass(frozen=True)
class FourMomentum:
    """On-shell momentum (m, |p|, theta, phi) with E = sqrt(m^2 + |p|^2).

    The direction angles are retained even at pmag = 0, matching the
    rest-limit momentum used to label rest-frame spinors.
    """

    m: float
    pmag: float
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not (self.m >= 0.0 and math.isfinite(self.m)):
            raise ValueError(f"mass must be finite and >= 0, got {self.m!r}")
        if not (self.pmag >= 0.0 and math.isfinite(self.pmag)):
            raise ValueError(f"pmag must be finite and >= 0, got {self.pmag!r}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")

    @property
    def energy(self) -> float:
        return float(np.hypot(self.m, self.pmag))

    @property
    def direction(self) -> tuple[float, float]:
        return (self.theta, self.phi)

    @property
    def vector(self) -> np.ndarray:
        """Spatial momentum (px, py, pz)."""
        return np.array(momentum_components(self.m, self.pmag, self.theta, self.phi)[1:])

    @property
    def four_vector(self) -> np.ndarray:
        return np.concatenate([[self.energy], self.vector])

    def reflected(self) -> "FourMomentum":
        """Same energy and magnitude, spatial direction reversed."""
        return FourMomentum(self.m, self.pmag, math.pi - self.theta,
                            math.remainder(self.phi + math.pi, math.tau))


def unit_vectors(theta, phi):
    """(nx, ny, nz) = (sin theta cos phi, sin theta sin phi, cos theta) of
    directions given as (N,) arrays or scalars."""
    st = np.sin(theta)
    return st * np.cos(phi), st * np.sin(phi), np.cos(theta)


def momentum_components(m, pmag, theta, phi):
    """(E, px, py, pz) of on-shell momenta given as (N,) arrays or scalars."""
    nx, ny, nz = unit_vectors(theta, phi)
    return np.hypot(m, pmag), pmag * nx, pmag * ny, pmag * nz


def _diag_entry(q, e, m, pxy2):
    # 1 + q/(E+m) for q in [-pmag, pmag]; for negative q the naive form
    # cancels at high boost, so use (E + m + q)/(E + m) with
    # E + q = (m^2 + pxy2)/(E - q), pxy2 = pmag^2 - q^2.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(q >= 0.0, 1.0 + q / (e + m),
                        (m + (m * m + pxy2) / (e - q)) / (e + m))


def boost_block_batch(sign, m, pmag, theta, phi) -> np.ndarray:
    """(N, 2, 2) chiral block boosts; sign is +1 (right) or -1 (left).

    sqrt((E+m)/2m) (I + sign sigma.p/(E+m)), with the diagonal entries in
    cancellation-free form.  Every row needs m > 0.  Entries that leave the
    float64 range come out inf or nan without a warning; the bilinear and
    residual guards downstream turn them into a ScaleError.
    """
    e, px, py, pz = momentum_components(m, pmag, theta, phi)
    out = np.empty(np.shape(e) + (2, 2), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        pxy2 = px * px + py * py
        pref = np.sqrt((e + m) / (2.0 * m))
        ox = pref * (sign * px / (e + m))
        oy = pref * (sign * py / (e + m))
        out[..., 0, 0] = pref * _diag_entry(sign * pz, e, m, pxy2)
        out[..., 0, 1] = ox - 1j * oy
        out[..., 1, 0] = ox + 1j * oy
        out[..., 1, 1] = pref * _diag_entry(-sign * pz, e, m, pxy2)
    return out


def boost_block(handedness: str, p: FourMomentum) -> np.ndarray:
    """Pure boost acting on one chiral block.

    sqrt((E+m)/2m) (I + sigma.p/(E+m)) for the right-handed block and the
    sign-flipped generator for the left-handed one.  Right and left boosts
    at the same momentum are exact inverses of each other.
    """
    if handedness not in ("right", "left"):
        raise ValueError(f"handedness must be 'right' or 'left', got {handedness!r}")
    if p.m <= 0.0:
        raise MasslessError("boost requires m > 0")
    return boost_block_batch(1 if handedness == "right" else -1, p.m, p.pmag,
                             p.theta, p.phi)


def boost_factor_batch(sign, helicity, m, pmag) -> np.ndarray:
    """Scalars by which the boosts multiply helicity eigenblocks.

    For a block with sigma.p eigenvalue ``helicity * pmag`` the boost acts as
    multiplication by sqrt((E+m)/2m) (1 +- helicity pmag/(E+m)).  Like
    :func:`boost_block_batch`, it returns inf or nan out of range silently.
    """
    e = np.hypot(m, pmag)
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.sqrt((e + m) / (2.0 * m))
                * _diag_entry(sign * helicity * pmag, e, m, 0.0))


def bloch_direction_batch(b0, b1):
    """(theta, phi) along which each 2-spinor (b0, b1) has helicity +1.

    A block whose squared entries leave the float64 range gets a nan
    direction without a warning, for the caller's guard to report.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        nx = 2.0 * (b0.real * b1.real + b0.imag * b1.imag)
        ny = 2.0 * (b0.real * b1.imag - b0.imag * b1.real)
        nz = (b0.real ** 2 + b0.imag ** 2) - (b1.real ** 2 + b1.imag ** 2)
        return np.arctan2(np.hypot(nx, ny), nz), np.arctan2(ny, nx) % math.tau


def angles_match(t1: float, p1: float, t2: float, p2: float) -> bool:
    """Whether two directions coincide to 1e-12 (phi compared modulo 2 pi)."""
    tol = 1e-12
    if abs(t1 - t2) > tol:
        return False
    if min(t1, t2) <= tol or max(t1, t2) >= math.pi - tol:
        return True  # at a pole the azimuth is immaterial
    return abs(math.remainder(p1 - p2, math.tau)) <= tol
