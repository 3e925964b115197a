"""Constructors for every bispinor family the workbench analyzes.

Each family has one batch constructor, ``<family>_batch``, taking (N,)
parameter arrays and returning ``(cols, n)``: the rows' eight float
:func:`kernels.columns`, built with no (N, 4) array, and the unit vectors
n = (nx, ny, nz) of each row's direction, which the helicity analysis
reads.  A caller that needs the (N, 4) form takes
:func:`kernels.components` of the columns.  The helicity families are
built along :func:`algebra.unit_vectors` of their (theta, phi); the
self-conjugate, Weyl and singular forms take n from a block's
:func:`algebra.bloch_direction_batch`.  :func:`parity_linked_batch`,
whose rows only the Dirac residuals read, returns (N, 4) components only.
Batch constructors do not validate; their rows must meet the
preconditions that the scalar ``build_*`` N=1 wrappers check.  A wrapper returns a :class:`BiSpinor` carrying a
:class:`Provenance` record (family name, direction, build momentum,
unboosted blocks): the helicity profile reads its direction, a boost checks
it, and the parity operation rebuilds the spinor from it.

Complex products and quotients are written out in real and imaginary parts
as Python complex arithmetic evaluates them (numpy's complex loops may fuse
multiply-adds), so a component does not depend on the batch size.

Component conventions: a bispinor is (a, b, c, d) with right-handed block
(a, b) on top and left-handed block (c, d) below.  Helicity labels are
relative to the construction direction (theta, phi).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import kernels
from .algebra import (
    FourMomentum,
    angles_match,
    bloch_direction_batch,
    boost_block_batch,
    boost_factor_batch,
    unit_vectors,
)
from .errors import (
    DirectionMismatchError,
    MasslessError,
    ScaleError,
    SingularAngleError,
    ZeroSpinorError,
)

#: default scalar phases on the rest-frame helicity eigenstates; this pair is
#: the choice under which the charge-conjugation eigenspinor constructions
#: close.  Use (0, 0) for the parity-profile preset.
DEFAULT_PHASE_PLUS = 0.0
DEFAULT_PHASE_MINUS = math.pi


@dataclass(frozen=True, eq=False)
class Provenance:
    """How a bispinor was built: family, direction, build momentum and
    unboosted blocks."""

    family: str
    theta: Optional[float] = None
    phi: Optional[float] = None
    momentum: Optional[FourMomentum] = None
    rest_right: Optional[tuple[complex, complex]] = None
    rest_left: Optional[tuple[complex, complex]] = None

    @property
    def direction(self) -> Optional[tuple[float, float]]:
        if self.theta is None:
            return None
        return (self.theta, self.phi)


@dataclass(frozen=True, eq=False)
class BiSpinor:
    """Four complex amplitudes in chiral ordering, right-handed block first."""

    a: complex
    b: complex
    c: complex
    d: complex
    provenance: Optional[Provenance] = None

    @property
    def array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d], dtype=complex)

    @property
    def right(self) -> np.ndarray:
        return np.array([self.a, self.b], dtype=complex)

    @property
    def left(self) -> np.ndarray:
        return np.array([self.c, self.d], dtype=complex)

    @property
    def norm_sq(self) -> float:
        return (
            abs(self.a) ** 2 + abs(self.b) ** 2 + abs(self.c) ** 2 + abs(self.d) ** 2
        )

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    @staticmethod
    def from_array(arr, provenance: Optional[Provenance] = None) -> "BiSpinor":
        arr = np.asarray(arr, dtype=complex)
        if arr.shape != (4,):
            raise ValueError(f"expected 4 components, got shape {arr.shape}")
        return BiSpinor(complex(arr[0]), complex(arr[1]), complex(arr[2]),
                        complex(arr[3]), provenance)


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _mul(zr, zi, wr, wi):
    # (re, im) of (zr + i zi) * (wr + i wi) without fused multiply-add, as
    # CPython rounds it; out of range, a product comes out inf or nan
    # without a warning, and the callers' finiteness guards name it
    with np.errstate(over="ignore", invalid="ignore"):
        return zr * wr - zi * wi, zr * wi + zi * wr


def _rows(*values):
    # one-row arrays of the N=1 arguments; None passes through
    return [None if v is None else np.array([v]) for v in values]


def rest_spinor_batch(helicity, theta, phi, m, phase=None) -> np.ndarray:
    """(N, 2) rest spinors, sqrt(m)-normalized helicity eigenstates.

    Helicity +1: sqrt(m) e^{i phase} (cos(theta/2) e^{-i phi/2},
    sin(theta/2) e^{i phi/2}); helicity -1 swaps the trigonometric factors
    and flips the lower sign.  ``phase=None`` takes the default phase of
    each row's helicity sign.
    """
    if phase is None:
        phase = np.where(helicity > 0, DEFAULT_PHASE_PLUS, DEFAULT_PHASE_MINUS)
    ch, sh = np.cos(0.5 * theta), np.sin(0.5 * theta)
    er, ei = np.cos(0.5 * phi), np.sin(0.5 * phi)
    u = np.where(helicity > 0, ch, sh)
    v = np.where(helicity > 0, sh, -ch)
    pref = (np.sqrt(m) * np.cos(phase), np.sqrt(m) * np.sin(phase))
    return np.stack([_complex(*_mul(*pref, u * er, -(u * ei))),
                     _complex(*_mul(*pref, v * er, v * ei))], axis=-1)


def rest_spinor(helicity: int, theta: float, phi: float, m: float,
                phase: Optional[float] = None) -> np.ndarray:
    """N=1 form of :func:`rest_spinor_batch`; m = 0 has no rest frame."""
    if helicity not in (1, -1):
        raise ValueError(f"helicity must be +1 or -1, got {helicity!r}")
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
    if m <= 0.0:
        raise MasslessError("rest spinor requires m > 0")
    return rest_spinor_batch(*_rows(helicity, theta, phi, m, phase))[0]


def _helicity_fraction(sign, n):
    # (re, im) of the b/a ratio of a helicity eigenblock along the unit
    # vectors n = (nx, ny, nz): sign (nx + i ny)/(1 + sign nz)
    nx, ny, nz = n
    den = 1.0 + sign * nz
    return sign * nx / den, sign * ny / den


def _eigenblock(z, fraction):
    # the four columns of the block (z, z * fraction)
    z = np.asarray(z, dtype=complex)
    return (z.real, z.imag, *_mul(z.real, z.imag, *fraction))


def _check_pole(sign: int, theta: float):
    pole = math.pi if sign > 0 else 0.0
    if theta == pole or 1.0 + sign * math.cos(theta) == 0.0:
        raise SingularAngleError(f"helicity {'+' if sign > 0 else '-'} form "
                                 f"diverges at theta = {'pi' if sign > 0 else '0'}")


def single_helicity_batch(sign, a, c, theta, phi):
    """Spinors whose blocks both carry helicity ``sign`` along (theta, phi).

    a and c are the free amplitudes of the right and left blocks; the
    dependent components follow the eigenvector ratio.  Rows must avoid the
    pole of their form (theta = pi for +1, theta = 0 for -1).
    """
    n = unit_vectors(theta, phi)
    fraction = _helicity_fraction(sign, n)
    return (*_eigenblock(a, fraction), *_eigenblock(c, fraction)), n


def dual_helicity_batch(sign, a, c, theta, phi):
    """Spinors with right-block helicity ``sign`` and left-block ``-sign``.

    Rows must avoid both poles and have a, c nonzero.
    """
    n = unit_vectors(theta, phi)
    return (*_eigenblock(a, _helicity_fraction(sign, n)),
            *_eigenblock(c, _helicity_fraction(-sign, n))), n


def _spinor(cols, **prov) -> BiSpinor:
    """Row 0 of the columns ``cols`` as an unboosted BiSpinor; ``prov``
    fills its Provenance, whose rest blocks are the row itself."""
    a, b, c, d = (complex(z) for z in kernels.components(cols)[0])
    return BiSpinor(a, b, c, d, Provenance(rest_right=(a, b), rest_left=(c, d), **prov))


_PAIRS_SINGLE = {"++": 1, "--": -1}
_PAIRS_DUAL = {"+-": (1, -1), "-+": (-1, 1)}


def build_single_helicity(pair: str, a: complex, c: complex,
                          theta: float, phi: float) -> BiSpinor:
    """N=1 form of :func:`single_helicity_batch`; pair is "++" or "--"."""
    if pair not in _PAIRS_SINGLE:
        raise ValueError(f"pair must be '++' or '--', got {pair!r}")
    a, c = complex(a), complex(c)
    if a == 0 and c == 0:
        raise ZeroSpinorError("at least one of a, c must be nonzero")
    h = _PAIRS_SINGLE[pair]
    _check_pole(h, theta)
    cols, _ = single_helicity_batch(*_rows(h, a, c, theta, phi))
    return _spinor(cols, family="single_helicity", theta=theta, phi=phi)


def build_dual_helicity(pair: str, a: complex, c: complex,
                        theta: float, phi: float) -> BiSpinor:
    """N=1 form of :func:`dual_helicity_batch`; pair is "+-" or "-+".

    Both forms diverge at the poles, and a vanishing amplitude would
    degenerate the spinor to a single-block (class 6) shape, so a = 0 and
    c = 0 are rejected.
    """
    if pair not in _PAIRS_DUAL:
        raise ValueError(f"pair must be '+-' or '-+', got {pair!r}")
    a, c = complex(a), complex(c)
    if a == 0 or c == 0:
        raise ZeroSpinorError("dual-helicity amplitudes must both be nonzero")
    hr, hl = _PAIRS_DUAL[pair]
    _check_pole(hr, theta)
    _check_pole(hl, theta)
    cols, _ = dual_helicity_batch(*_rows(hr, a, c, theta, phi))
    return _spinor(cols, family="dual_helicity", theta=theta, phi=phi)


def _bloch_angles(b0: complex, b1: complex) -> dict:
    # a Provenance's (theta, phi): of the Bloch vector v, not of the rounded n
    _, (x, y, z) = bloch_direction_batch(*_rows(b0, b1))
    with np.errstate(over="ignore"):
        return {"theta": float(np.arctan2(np.hypot(x, y), z)[0]),
                "phi": float((np.arctan2(y, x) % math.tau)[0])}


def singular_form_batch(b, c, d):
    """Singular-structure spinors (-b c conj(d)/|c|^2, b, c, d); c != 0.

    The leading component is forced so that the scalar and pseudoscalar
    bilinears vanish identically.  The direction is the Bloch direction of
    the right block, or of the left one where the right block is null.
    """
    b, c, d = (np.asarray(x, dtype=complex) for x in (b, c, d))
    # out of range, a comes out inf or nan without a warning
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        yr, yi = _mul(*_mul(-b.real, -b.imag, c.real, c.imag), d.real, -d.imag)
        n2 = np.hypot(c.real, c.imag) ** 2
        a = _complex(yr / n2, yi / n2)
    right = (a != 0) | (b != 0)
    n, _ = bloch_direction_batch(np.where(right, a, c), np.where(right, b, d))
    return (a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag), n


def build_singular_form(b: complex, c: complex, d: complex) -> BiSpinor:
    """N=1 form of :func:`singular_form_batch`; requires c != 0."""
    b, c, d = complex(b), complex(c), complex(d)
    if c == 0:
        raise ZeroSpinorError("singular form requires c != 0")
    cols, _ = singular_form_batch(*_rows(b, c, d))
    a = complex(cols[0][0], cols[1][0])
    return _spinor(cols, family="singular_form",
                   **(_bloch_angles(a, b) if a or b else _bloch_angles(c, d)))


def self_conjugate_batch(sign, c, d):
    """Eigenspinors of charge conjugation with eigenvalue ``sign`` per row.

    The right block is fixed by the left one: (-i s conj(d), i s conj(c), c,
    d) with s = sign, which satisfies C psi = sign psi exactly and forces
    |a| = |d|, |b| = |c|.  The direction is the left block's Bloch
    direction.  Rows need (c, d) nonzero.
    """
    c, d = np.asarray(c, dtype=complex), np.asarray(d, dtype=complex)
    cols = (-sign * d.imag, -sign * d.real, sign * c.imag, sign * c.real,
            c.real, c.imag, d.real, d.imag)
    return cols, bloch_direction_batch(c, d)[0]


def build_self_conjugate(sign: int, c: complex, d: complex) -> BiSpinor:
    """N=1 form of :func:`self_conjugate_batch`."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    c, d = complex(c), complex(d)
    if c == 0 and d == 0:
        raise ZeroSpinorError("left block (c, d) must be nonzero")
    cols, _ = self_conjugate_batch(*_rows(sign, c, d))
    return _spinor(cols, family="self_conjugate", **_bloch_angles(c, d))


def weyl_batch(right, b0, b1):
    """Single-block spinors: block (b0, b1) on the right where ``right`` is
    true, on the left elsewhere, and the other block null.

    The direction is the block's Bloch direction, along which it has
    helicity +1.  Rows need (b0, b1) nonzero.
    """
    b0, b1 = np.asarray(b0, dtype=complex), np.asarray(b1, dtype=complex)
    parts = (b0.real, b0.imag, b1.real, b1.imag)
    cols = (*(np.where(right, x, 0.0) for x in parts),
            *(np.where(right, 0.0, x) for x in parts))
    return cols, bloch_direction_batch(b0, b1)[0]


def build_weyl(which: str, block) -> BiSpinor:
    """N=1 form of :func:`weyl_batch`; which is "right" or "left"."""
    if which not in ("right", "left"):
        raise ValueError(f"which must be 'right' or 'left', got {which!r}")
    blk = np.asarray(block, dtype=complex)
    if blk.shape != (2,):
        raise ValueError("block must have two components")
    if blk[0] == 0 and blk[1] == 0:
        raise ZeroSpinorError("block must be nonzero")
    b0, b1 = complex(blk[0]), complex(blk[1])
    cols, _ = weyl_batch(*_rows(which == "right", b0, b1))
    return _spinor(cols, family="weyl", **_bloch_angles(b0, b1))


def parity_linked_batch(helicity, m, pmag, theta, phi, phase=None):
    """Dirac-type spinors: one rest eigenstate boosted into both chiral slots.

    Because the two representation spaces share the same rest block and are
    connected by opposite-handed boosts, each row satisfies
    gamma_mu p^mu psi = m psi at its momentum (m, pmag, theta, phi).
    ``phase=None`` takes the default phase of each row's helicity.
    """
    rest = rest_spinor_batch(helicity, theta, phi, m, phase)
    # an out-of-range boost factor times an exact zero component gives nan
    # without a warning; bilinear_set's guard names it
    with np.errstate(over="ignore", invalid="ignore"):
        right = boost_factor_batch(1, helicity, m, pmag)[:, None] * rest
        left = boost_factor_batch(-1, helicity, m, pmag)[:, None] * rest
    return np.concatenate([right, left], axis=1)


def build_parity_linked(helicity: int, p: FourMomentum,
                        phase: Optional[float] = None) -> BiSpinor:
    """N=1 form of :func:`parity_linked_batch` at momentum p."""
    rest = tuple(complex(z) for z in rest_spinor(helicity, p.theta, p.phi, p.m, phase))
    arr = parity_linked_batch(*_rows(helicity, p.m, p.pmag, p.theta, p.phi, phase))
    return BiSpinor.from_array(arr[0], Provenance(
        "parity_linked", p.theta, p.phi, p, rest, rest))


def boost_bispinor_batch(psis, frame) -> np.ndarray:
    """(..., N, 4) spinors boosted row by row at the :class:`algebra.Frame`
    rows, leading axes sharing its two block boosts; an out-of-range boost
    gives inf or nan components without a warning."""
    psis = np.asarray(psis, dtype=complex)
    out = np.empty(psis.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(boost_block_batch(1, frame), psis[..., :2, None],
                  out=out[..., :2, None])
        np.matmul(boost_block_batch(-1, frame), psis[..., 2:, None],
                  out=out[..., 2:, None])
    return out


def _require_finite_direction(theta, phi):
    # a constructor's direction is nan when its magnitudes leave float64
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ScaleError("the spinor's direction is not representable in "
                         "float64 at its magnitudes")


def boost_bispinor(psi: BiSpinor, p: FourMomentum) -> BiSpinor:
    """N=1 form of :func:`boost_bispinor_batch`.

    If the spinor records a construction direction it must match the boost
    direction (helicity structure is only preserved along the spinor's own
    axis); already-boosted spinors are rejected, and a recorded direction
    that is not finite raises :class:`ScaleError`.
    """
    if psi.is_zero():
        raise ZeroSpinorError("cannot boost the zero spinor")
    prov = psi.provenance
    if prov is not None and prov.momentum is not None:
        raise DirectionMismatchError("spinor already carries a momentum")
    if prov is not None and prov.theta is not None:
        _require_finite_direction(prov.theta, prov.phi)
        if not angles_match(prov.theta, prov.phi, p.theta, p.phi):
            raise DirectionMismatchError(
                "boost direction must match the construction direction"
            )
    if p.m <= 0.0:
        raise MasslessError("boost requires m > 0")
    arr = boost_bispinor_batch(psi.array[None, :], p.frame())
    if prov is not None:
        prov = replace(prov, momentum=p, rest_right=(psi.a, psi.b),
                       rest_left=(psi.c, psi.d))
    return BiSpinor.from_array(arr[0], prov)
