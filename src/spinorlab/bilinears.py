"""Dirac adjoint, bilinear covariants and the scalar constraint residuals.

Sign and ordering conventions (chosen so every stored quantity is real):

* sigma    = psibar psi
* omega    = i psibar gamma5 psi
* J^mu     = psibar gamma^mu psi
* K^mu     = psibar gamma^mu gamma5 psi
* S^{mu nu} = i psibar gamma^mu gamma^nu psi, stored for mu < nu in the
  order (01, 02, 03, 12, 13, 23)

Any alternative sign or ordering choice relabels components without changing
which quantities vanish, so the class assignment is convention-independent.
The production path evaluates closed-form component expressions (real by
construction); :func:`bilinear_set_via_gammas` computes the same quantities
as explicit matrix sandwiches and verifies their reality, providing an
in-artifact cross-check of the conventions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .algebra import gamma, gamma5
from .errors import ConventionError, ScaleError, ZeroSpinorError
from .factory import BiSpinor
from .tolerances import DEFAULT_TOLERANCES, Tolerances


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


def dirac_adjoint(psi: BiSpinor) -> np.ndarray:
    """Row form conj(psi)^T gamma0; swaps the chiral blocks."""
    return np.array(
        [np.conj(psi.c), np.conj(psi.d), np.conj(psi.a), np.conj(psi.b)]
    )


def _require_nonzero(psi: BiSpinor):
    if psi.is_zero():
        raise ZeroSpinorError("bilinears of the zero spinor are undefined")


def bilinear_set(psi: BiSpinor) -> BilinearSet:
    """All bilinear covariants of a nonzero spinor.

    Raises :class:`ScaleError` when (psi^dag psi)^2, the scale of the
    constraint residuals, overflows or underflows float64.
    """
    _require_nonzero(psi)
    sigma, omega, j, k, s = kernels.bilinears(psi.array[None, :])
    j0 = float(j[0, 0])
    if not math.isfinite(j0 * j0) or j0 * j0 == 0.0:
        raise ScaleError(f"(psi^dag psi)^2 leaves the float64 range "
                         f"(psi^dag psi = {j0:.3e})")
    return BilinearSet(float(sigma[0]), float(omega[0]), j[0], k[0], s[0])


_S_INDEX = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def bilinear_set_via_gammas(psi: BiSpinor,
                            tol: Tolerances = DEFAULT_TOLERANCES) -> BilinearSet:
    """Bilinears as explicit gamma-matrix sandwiches, with reality checks.

    Each quantity is computed as a complex sandwich and must be real to
    within ``tol.exact`` relative to psi^dag psi; a violation signals an
    internal convention bug and raises :class:`ConventionError`.
    """
    _require_nonzero(psi)
    arr = psi.array
    bar = dirac_adjoint(psi)
    g5 = gamma5()
    norm = float(np.real(np.conj(arr) @ arr))
    budget = tol.exact * norm

    def _real(value: complex, name: str) -> float:
        if abs(value.imag) > budget:
            raise ConventionError(
                f"{name} has imaginary part {value.imag:.3e} beyond tolerance"
            )
        return float(value.real)

    sigma = _real(complex(bar @ arr), "sigma")
    omega = _real(complex(1j * (bar @ (g5 @ arr))), "omega")
    j = np.array([_real(complex(bar @ (gamma(mu) @ arr)), f"J^{mu}") for mu in range(4)])
    k = np.array(
        [_real(complex(bar @ (gamma(mu) @ (g5 @ arr))), f"K^{mu}") for mu in range(4)]
    )
    s = np.array(
        [
            _real(complex(1j * (bar @ (gamma(mu) @ (gamma(nu) @ arr)))), f"S^{mu}{nu}")
            for mu, nu in _S_INDEX
        ]
    )
    return BilinearSet(sigma, omega, j, k, s)


def fpk_residuals_batch(sigma, omega, j, k) -> np.ndarray:
    """Normalized residuals of the three scalar constraints, (N, 3).

    |J.J - (sigma^2 + omega^2)|, |J.K| and |J.J + K.K|, each divided by
    (J^0)^2; the constraints hold identically for every four-component
    spinor, so these measure numerical noise only.
    """
    jj = j[:, 0] ** 2 - j[:, 1] ** 2 - j[:, 2] ** 2 - j[:, 3] ** 2
    jk = j[:, 0] * k[:, 0] - j[:, 1] * k[:, 1] - j[:, 2] * k[:, 2] - j[:, 3] * k[:, 3]
    kk = k[:, 0] ** 2 - k[:, 1] ** 2 - k[:, 2] ** 2 - k[:, 3] ** 2
    scale = j[:, 0] ** 2
    return np.stack(
        [
            np.abs(jj - (sigma**2 + omega**2)) / scale,
            np.abs(jk) / scale,
            np.abs(jj + kk) / scale,
        ],
        axis=1,
    )


def fpk_residuals(bset: BilinearSet) -> np.ndarray:
    """N=1 form of :func:`fpk_residuals_batch` for one bilinear set."""
    return fpk_residuals_batch(np.array([bset.sigma]), np.array([bset.omega]),
                               bset.j[None, :], bset.k[None, :])[0]
