"""The input guards of the N=1 API: each call, its exception and its message."""
import math
import re

import numpy as np
import pytest

from spinorlab import (
    BiSpinor,
    DirectionMismatchError,
    FourMomentum,
    MasslessError,
    Provenance,
    ZeroSpinorError,
    boost_bispinor,
    build_dual_helicity,
    build_self_conjugate,
    build_single_helicity,
    build_weyl,
    dirac_flip_residual,
    dirac_residual,
    parity_apply,
    parity_eigen_check,
    rest_spinor,
    symmetry_report,
    theta_link_check,
)
from spinorlab.sampling import steered_amplitudes

_P = FourMomentum(1.0, 2.0, 0.5, 0.3)
_MASSLESS = FourMomentum(0.0, 1.0, 0.5, 0.3)
_ZERO = BiSpinor(0, 0, 0, 0)
_RAW = BiSpinor(1, 0.5j, 0.2, 0)
_ZERO_BUILT = BiSpinor(0, 0, 0, 0, Provenance("raw", rest_right=(0j, 0j),
                                               rest_left=(0j, 0j)))


def _boosted_single():
    return boost_bispinor(build_single_helicity("++", 1, 1, 0.5, 0.3), _P)


GUARDS = {
    "momentum-phi-nan": (lambda: FourMomentum(1.0, 1.0, 0.5, math.nan),
                         ValueError, "phi must be finite"),
    "from-array-shape": (lambda: BiSpinor.from_array([1, 0, 0]), ValueError,
                         "expected 4 components, got shape (3,)"),
    "rest-helicity": (lambda: rest_spinor(0, 0.5, 0.3, 1.0), ValueError,
                      "helicity must be +1 or -1, got 0"),
    "rest-theta": (lambda: rest_spinor(1, 4.0, 0.3, 1.0), ValueError,
                   "theta must lie in [0, pi], got 4.0"),
    "dual-pair": (lambda: build_dual_helicity("++", 1, 1, 0.5, 0.3), ValueError,
                  "pair must be '+-' or '-+', got '++'"),
    "self-conjugate-sign": (lambda: build_self_conjugate(0, 1, 1), ValueError,
                            "sign must be +1 or -1, got 0"),
    "weyl-side": (lambda: build_weyl("up", (1, 0)), ValueError,
                  "which must be 'right' or 'left', got 'up'"),
    "weyl-block-shape": (lambda: build_weyl("right", (1, 0, 0)), ValueError,
                         "block must have two components"),
    "boost-zero": (lambda: boost_bispinor(_ZERO, _P), ZeroSpinorError,
                   "cannot boost the zero spinor"),
    "boost-boosted": (lambda: boost_bispinor(_boosted_single(), _P),
                      DirectionMismatchError, "spinor already carries a momentum"),
    "boost-massless": (lambda: boost_bispinor(_RAW, _MASSLESS), MasslessError,
                       "boost requires m > 0"),
    "steer-target": (lambda: steered_amplitudes(np.random.default_rng(0), 4, 4),
                     ValueError, "target_class must be 1, 2 or 3, got 4"),
    "parity-massless-record": (
        lambda: parity_apply(BiSpinor(1, 0, 1, 0, Provenance(
            "raw", momentum=_MASSLESS, rest_right=(1j, 0j), rest_left=(1j, 0j)))),
        MasslessError, "boost requires m > 0"),
    "parity-zero": (lambda: parity_eigen_check(_ZERO_BUILT), ZeroSpinorError,
                    "parity eigencheck of the zero spinor is undefined"),
    "parity-zero-boosted": (
        lambda: parity_eigen_check(BiSpinor(0, 0, 0, 0, Provenance(
            "raw", momentum=_P, rest_right=(0j, 0j), rest_left=(0j, 0j)))),
        ZeroSpinorError, "parity eigencheck of the zero spinor is undefined"),
    "flip-zero": (lambda: dirac_flip_residual(_ZERO, _RAW, _P), ZeroSpinorError,
                  "flip residual needs two nonzero spinors"),
    "report-zero": (lambda: symmetry_report(_ZERO, _P), ZeroSpinorError,
                    "symmetry report of the zero spinor is undefined"),
    "dirac-sign": (lambda: dirac_residual(_RAW, _P, 0), ValueError,
                   "sign must be +1 or -1, got 0"),
    "theta-link-zero": (lambda: theta_link_check([0, 0], _P), ZeroSpinorError,
                        "theta-link check needs a nonzero block"),
    "theta-link-massless": (lambda: theta_link_check([1, 0], _MASSLESS),
                            MasslessError, "boost requires m > 0"),
    "theta-link-phase": (lambda: theta_link_check([1, 0], _P, 1.0 + 1.5e-12),
                         ValueError, "zeta must be a unit phase"),
    "theta-link-three-components": (lambda: theta_link_check([1, 0, 0], _P),
                                    ValueError, "block must have two components"),
    "theta-link-matrix": (lambda: theta_link_check([[1, 0], [0, 1]], _P),
                          ValueError, "block must have two components"),
    "theta-link-one-component": (lambda: theta_link_check([1], _P),
                                 ValueError, "block must have two components"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_raises_its_error_and_message(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
