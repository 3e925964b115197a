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


def _require_nonzero(psi: BiSpinor):
    if psi.is_zero():
        raise ZeroSpinorError("bilinears of the zero spinor are undefined")


def bilinear_set(psi: BiSpinor) -> BilinearSet:
    """All bilinear covariants of a nonzero spinor.

    Raises :class:`ScaleError` when (psi^dag psi)^2, the scale of the
    constraint residuals, overflows or underflows float64.
    """
    _require_nonzero(psi)
    # an overflow here leaves j0 * j0 non-finite, which the guard reports
    with np.errstate(over="ignore", invalid="ignore"):
        row = psi.array[None, :]
        cols = kernels.columns(row)
        sigma, omega, j, k = kernels.bilinears(row, cols)
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
    jj = j[0] ** 2 - j[1] ** 2 - j[2] ** 2 - j[3] ** 2
    jk = j[0] * k[0] - j[1] * k[1] - j[2] * k[2] - j[3] * k[3]
    kk = k[0] ** 2 - k[1] ** 2 - k[2] ** 2 - k[3] ** 2
    scale = j[0] ** 2
    return (
        np.abs(jj - (sigma**2 + omega**2)) / scale,
        np.abs(jk) / scale,
        np.abs(jj + kk) / scale,
    )


def fpk_residuals_batch(sigma, omega, j, k) -> np.ndarray:
    """The :func:`fpk_columns` stacked into an (N, 3) array."""
    return np.stack(fpk_columns(sigma, omega, j, k), axis=1)


def fpk_residuals(bset: BilinearSet) -> np.ndarray:
    """N=1 form of :func:`fpk_residuals_batch` for one bilinear set."""
    return fpk_residuals_batch(np.array([bset.sigma]), np.array([bset.omega]),
                               bset.j[:, None], bset.k[:, None])[0]
