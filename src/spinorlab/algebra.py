"""Fixed-size complex linear algebra for chiral bispinors.

Constant operators (Pauli and gamma matrices), Theta conjugation of
two-component blocks, on-shell momenta, the chiral boost blocks and the
Bloch direction of a block.  Conventions used throughout the package:

* metric signature (+, -, -, -)
* chiral ordering with the right-handed block on top
* gamma0 = offdiag(I, I), gamma^k = [[0, -sigma_k], [sigma_k, 0]]
* gamma5 = i gamma0 gamma1 gamma2 gamma3 = diag(+1, +1, -1, -1)

A block's momenta become one :class:`Frame` (:func:`momentum_frame`), which
every boost and Dirac operand reads.  Its E +- pz, the boost diagonals and
factors take E + q from one cancellation-free form, :func:`e_plus` (E - p as
m^2 / (E + p)), so boosted spinors stay accurate up to pmag/m of order 1e3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    """On-shell momentum (m, |p|, theta, phi) with E = sqrt(m^2 + |p|^2);
    :meth:`frame` gives its one-row :class:`Frame`.

    The four fields are stored as floats once validated, so an integer mass
    cannot reach the boost entries as an int64 whose square wraps.  The
    direction angles are retained even at pmag = 0, matching the rest-limit
    momentum used to label rest-frame spinors.
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
        for name in ("m", "pmag", "theta", "phi"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def frame(self) -> Frame:
        return momentum_frame(*np.array([[self.m], [self.pmag], [self.theta], [self.phi]]))


def unit_vectors(theta, phi):
    """(nx, ny, nz) = (sin theta cos phi, sin theta sin phi, cos theta) of
    directions given as (N,) arrays or scalars."""
    st = np.sin(theta)
    return st * np.cos(phi), st * np.sin(phi), np.cos(theta)


class Frame(NamedTuple):
    """A block's momenta as the boosts and the Dirac kernel read them: each
    row's (m, pmag) times the power of two 2**-exp that puts the larger in
    [0.5, 1), exact and moving nothing of degree 0; n from (theta, phi); the
    scaled (e, px, py, pz); and (ezp, ezm), E +- pz by :func:`e_plus`."""

    m: np.ndarray
    pmag: np.ndarray
    exp: np.ndarray
    n: tuple
    e: np.ndarray
    px: np.ndarray
    py: np.ndarray
    pz: np.ndarray
    ezp: np.ndarray
    ezm: np.ndarray


def momentum_frame(m, pmag, theta, phi) -> Frame:
    """The :class:`Frame` of on-shell momenta given as (N,) arrays."""
    exp = np.frexp(np.maximum(m, pmag))[1]
    m, pmag = np.ldexp(m, -exp), np.ldexp(pmag, -exp)
    n = unit_vectors(theta, phi)
    e, px, py, pz = np.hypot(m, pmag), pmag * n[0], pmag * n[1], pmag * n[2]
    mt2 = m * m + (px * px + py * py)
    return Frame(m, pmag, exp, n, e, px, py, pz, e_plus(e, pz, mt2), e_plus(e, -pz, mt2))


def e_plus(e, q, mt2):
    """E + q for |q| <= pmag, as mt2/(E - q), mt2 = E^2 - q^2, where the sum
    would cancel (q < 0); the discarded branch may divide by zero, silently."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(q >= 0.0, e + q, mt2 / (e - q))


def _diag_entry(q, e, m, e_plus_q):
    # 1 + q/(E+m), |q| <= pmag, which cancels for q < 0: there (m + E + q)/(E+m)
    return np.where(q >= 0.0, 1.0 + q / (e + m), (m + e_plus_q) / (e + m))


def boost_block_batch(sign, frame: Frame) -> np.ndarray:
    """(N, 2, 2) chiral block boosts at the momenta of ``frame``; sign is +1
    (right) or -1 (left).

    sqrt((E+m)/2m) (I + sign sigma.p/(E+m)), with the diagonal entries in
    cancellation-free form.  Every row needs m > 0.  Entries that leave the
    float64 range (as where a scaled m underflows) come out inf or nan
    without a warning; the guards downstream turn them into a ScaleError.
    """
    m, e, px, py, pz = frame.m, frame.e, frame.px, frame.py, frame.pz
    ezq = (frame.ezp, frame.ezm)[::sign]  # E + sign pz, E - sign pz
    out = np.empty(np.shape(e) + (2, 2), dtype=complex)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pref = np.sqrt((e + m) / (2.0 * m))
        ox = pref * (sign * px / (e + m))
        oy = pref * (sign * py / (e + m))
        out[..., 0, 0] = pref * _diag_entry(sign * pz, e, m, ezq[0])
        out[..., 0, 1] = ox - 1j * oy
        out[..., 1, 0] = ox + 1j * oy
        out[..., 1, 1] = pref * _diag_entry(-sign * pz, e, m, ezq[1])
    return out


def boost_factor_batch(sign, helicity, m, pmag) -> np.ndarray:
    """Scalars by which the boosts multiply helicity eigenblocks.

    For a block with sigma.p eigenvalue ``helicity * pmag`` the boost acts as
    multiplication by sqrt((E+m)/2m) (1 +- helicity pmag/(E+m)).  Like
    :func:`boost_block_batch`, it returns inf or nan out of range silently.
    """
    e, q = np.hypot(m, pmag), sign * helicity * pmag
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.sqrt((e + m) / (2.0 * m))
                * _diag_entry(q, e, m, e_plus(e, q, m * m)))


def bloch_direction_batch(b0, b1):
    """(n, v) of 2-spinors (b0, b1): the Bloch vector v, along which each
    has helicity +1, and its unit vector n = v / (|b0|^2 + |b1|^2).

    Out of the float64 range n is nan, without a warning, for the caller's
    guard to report.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r0, r1 = b0.real ** 2 + b0.imag ** 2, b1.real ** 2 + b1.imag ** 2
        v = (2.0 * (b0.real * b1.real + b0.imag * b1.imag),
             2.0 * (b0.real * b1.imag - b0.imag * b1.real), r0 - r1)
        return tuple(x / (r0 + r1) for x in v), v


def angles_match(t1: float, p1: float, t2: float, p2: float) -> bool:
    """Whether two directions coincide to 1e-12 (phi compared modulo 2 pi)."""
    tol = 1e-12
    if abs(t1 - t2) > tol:
        return False
    if min(t1, t2) <= tol or max(t1, t2) >= math.pi - tol:
        return True  # at a pole the azimuth is immaterial
    return abs(math.remainder(p1 - p2, math.tau)) <= tol
