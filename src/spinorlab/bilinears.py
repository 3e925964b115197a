"""Bilinear covariants and the scalar constraint residuals.

Sign and ordering conventions (chosen so every stored quantity is real):

* sigma    = psibar psi
* omega    = i psibar gamma5 psi
* J^mu     = psibar gamma^mu psi
* K^mu     = psibar gamma^mu gamma5 psi
* S^{mu nu} = i psibar gamma^mu gamma^nu psi, stored for mu < nu in the
  order (01, 02, 03, 12, 13, 23)

Any alternative sign or ordering choice relabels components without changing
which quantities vanish, so the class assignment is convention-independent.
Every quantity comes from the closed-form component expressions of
:func:`kernels.bilinears` and :func:`kernels.tensor`, which are real by
construction; the tests compare them with explicit gamma-matrix sandwiches
built from matrix literals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ScaleError, ZeroSpinorError
from .factory import BiSpinor


@dataclass(frozen=True, eq=False)
class BilinearSet:
    """The sixteen real bilinear components of one spinor.

    ``j[0]`` equals psi^dag psi and is strictly positive for any nonzero
    spinor; it is the natural scale for relative zero tests.
    """

    sigma: float
    omega: float
    j: np.ndarray
    k: np.ndarray
    s: np.ndarray

    @property
    def norm(self) -> float:
        return float(self.j[0])


def bilinear_set(psi: BiSpinor) -> BilinearSet:
    """All bilinear covariants of a nonzero spinor.

    Raises :class:`ScaleError` when (psi^dag psi)^2, the scale of the
    constraint residuals, overflows or underflows float64.
    """
    if psi.is_zero():
        raise ZeroSpinorError("bilinears of the zero spinor are undefined")
    # an overflow here leaves j0 * j0 non-finite, which the guard reports
    with np.errstate(over="ignore", invalid="ignore"):
        cols = kernels.columns(psi.array[None, :])
        sigma, omega, j, k = kernels.bilinears(cols)
        s = kernels.tensor(cols)
    j0 = float(j[0][0])
    if not math.isfinite(j0 * j0) or j0 * j0 == 0.0:
        raise ScaleError(f"(psi^dag psi)^2 leaves the float64 range "
                         f"(psi^dag psi = {j0:.3e})")
    j, k, s = (np.concatenate(parts) for parts in (j, k, s))
    return BilinearSet(float(sigma[0]), float(omega[0]), j, k, s)


def fpk_columns(sigma, omega, j, k) -> tuple:
    """Normalized residuals of the three scalar constraints, as three (N,)
    columns, from the (N,) columns j, k of J and K (as
    :func:`kernels.bilinears` returns them, or an array's ``.T``).

    |J.J - (sigma^2 + omega^2)|, |J.K| and |J.J + K.K|, each divided by
    (J^0)^2; the constraints hold identically for every four-component
    spinor, so these measure numerical noise only.
    """
    scale = j[0] ** 2
    jj = scale - j[1] ** 2 - j[2] ** 2 - j[3] ** 2
    kk = k[0] ** 2 - k[1] ** 2 - k[2] ** 2 - k[3] ** 2
    # J.J and K.K are dropped before J.K is formed, so that fewer (N,)
    # temporaries are alive at once
    jj_minus = np.abs(jj - (sigma**2 + omega**2)) / scale
    jj_plus = np.abs(jj + kk) / scale
    del jj, kk
    jk = j[0] * k[0] - j[1] * k[1] - j[2] * k[2] - j[3] * k[3]
    return jj_minus, np.abs(jk) / scale, jj_plus


def fpk_residuals(bset: BilinearSet) -> np.ndarray:
    """The three :func:`fpk_columns` residuals of one bilinear set."""
    return np.concatenate(fpk_columns(np.array([bset.sigma]), np.array([bset.omega]),
                                      bset.j[:, None], bset.k[:, None]))
