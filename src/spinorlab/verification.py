"""Property campaign suite behind verify mode and the acceptance tests.

Each check draws a seeded random campaign of a size fixed in its body,
measures the worst residual (or violation count) against a pinned threshold,
and reports a PropertyResult.  The campaigns over raw or constructed
spinors (fpk-identities and the two class checks) run through
:func:`sampling.campaign` and read its aggregates.  The momentum checks
(boost-inverse, parity-dirac-dynamics, dual-helicity-dirac, theta-link and
klein-gordon) draw their momenta and amplitudes whole; :func:`_fold` then
builds and reduces their residuals ``MOMENTUM_BLOCK_ROWS`` rows at a time,
each block at one :func:`algebra.momentum_frame`, so no working set grows.
Campaign momentum ranges are chosen so that the thresholds sit well above
the float64 rounding floor of the quantity under test:

* parity-linked Dirac dynamics and the theta-link run up to pmag/m = 1e3,
  where the compensated Dirac and boost arithmetic keeps residuals a decade
  under 1e-12;
* the dual-helicity flip defect divides by the small Dirac image, whose
  relative rounding grows like (pmag/m)^2, so that campaign runs up to
  pmag/m = 1e2 (floor ~1e-11 against a 1e-10 threshold);
* the Klein-Gordon matrix square subtracts m^2 from entries of size E^2,
  so that campaign runs up to pmag/m = 10 (floor ~1e-14 against 1e-12).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, sampling
from .algebra import boost_block_batch, gamma, gamma5, momentum_frame
from .classify import CLASS_CATEGORIES
from .factory import (
    BiSpinor,
    dual_helicity_batch,
    parity_linked_batch,
    self_conjugate_batch,
    single_helicity_batch,
)
from .symmetries import (
    c_eigen_check,
    c_involution_max,
    dirac_flip_residuals,
    dirac_matrix_batch,
    dirac_residuals,
    parity_batch,
    theta_link_residuals,
)
from .tolerances import DEFAULT_TOLERANCES, EXACT, Tolerances

# Rows of a momentum check constructed, boosted and checked at a time.  Each
# row's residual depends on that row alone, so the block size moves no
# result; it bounds the (N, 4) and (N, 2, 2) temporaries.  A fresh
# `--mode verify` process (2-CPU Xeon, numpy 2.4.6) peaked at 41.0-41.2 MB
# with the 10,000 rows whole, 39.9-40.1 MB at 8192 rows, 36.1-36.3 at 3500
# and 35.9-36.0 at 2048; at 3500 dual-helicity-dirac sets the suite's peak
# (2.9 MiB traced, against 2.0 for fpk-identities and the class campaigns).
# The suite took 0.22-0.23 s at each size, and its three 10,000-row momentum
# checks 60 ms at 3500 and 8192 against 64 at 2048 (medians of 10 interleaved runs).
MOMENTUM_BLOCK_ROWS = 3500


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    worst: float
    threshold: float
    count: int
    details: str = ""


def _fold(block, *columns, reduce=(np.max,)):
    """Per entry of ``reduce`` (np.max or np.min), the extreme of the array
    ``block(frame, *rows)`` yields for it on each ``MOMENTUM_BLOCK_ROWS`` rows
    of the columns, which end with ``frame``'s (m, pmag, theta, phi).  A
    block's frame and arrays are freed before the next block's are built."""
    out = []
    for start in range(0, len(columns[0]), MOMENTUM_BLOCK_ROWS):
        rows = [c[start:start + MOMENTUM_BLOCK_ROWS] for c in columns]
        out.append([f(v) for f, v in zip(reduce, block(momentum_frame(*rows[-4:]), *rows))])
    return [float(f(v)) for f, v in zip(reduce, zip(*out))]


def _below(name: str, threshold: float, count: int, block, *columns) -> PropertyResult:
    """A momentum check passing while all of ``block``'s residuals are below threshold."""
    worst, = _fold(lambda *rows: [block(*rows)], *columns)
    return PropertyResult(name, worst < threshold, worst, threshold, count)


def check_fpk_identities(seed: int = 0) -> PropertyResult:
    """Scalar constraint residuals vanish for arbitrary random spinors."""
    count = 100_000
    result = sampling.campaign("random_raw", sampling.rng_for(seed), count,
                               DEFAULT_TOLERANCES)
    worst, threshold = float(np.max(result.fpk_max)), 1e-10
    return PropertyResult("fpk-identities", worst < threshold, worst, threshold, count)


_FAMILY_EXPECTED_CLASSES = {
    "dual_helicity": [4, 5],
    "self_conjugate": [5],
    "weyl": [6],
}


def check_constructor_class_table(seed: int = 1,
                                  tol: Tolerances = DEFAULT_TOLERANCES) -> PropertyResult:
    """Every constructor lands in its class set; amplitude steering picks
    the regular subclass.  The threshold is zero misclassifications."""
    count = 10_000
    rng = sampling.rng_for(seed)
    bad = 0
    details = []
    slices = [count - 2 * (count // 3), count // 3, count // 3]
    for target, n in zip((1, 2, 3), slices):
        joint = sampling.campaign("single_helicity", rng, n, tol, steer=target).joint
        miss = n - int(joint[target].sum())
        bad += miss
        details.append(f"single->{target}: {miss}/{n} off")
    for family, expected in _FAMILY_EXPECTED_CLASSES.items():
        joint = sampling.campaign(family, rng, count, tol).joint
        miss = count - int(joint[expected].sum())
        bad += miss
        details.append(f"{family}: {miss}/{count} off")
    return PropertyResult("constructor-class-table", bad == 0, float(bad), 0.0,
                          count * 4, details="; ".join(details))


def check_helicity_dichotomy(seed: int = 2,
                             tol: Tolerances = DEFAULT_TOLERANCES) -> PropertyResult:
    """Measured helicity category matches the class annotation for every
    constructor-generated spinor, at its own construction direction;
    unclassifiable rows match no category."""
    count = 10_000
    rng = sampling.rng_for(seed)
    bad = 0
    details = []
    for family in sampling.FAMILY_PARAMS:
        joint = sampling.campaign(family, rng, count, tol).joint.sum(axis=2)
        miss = count - sum(int(joint[c, CLASS_CATEGORIES[c]]) for c in range(1, 7))
        bad += miss
        details.append(f"{family}: {miss}/{count} off")
    return PropertyResult("helicity-dichotomy", bad == 0, float(bad), 0.0,
                          count * len(sampling.FAMILY_PARAMS), details="; ".join(details))


def check_parity_dirac_link(seed: int = 3) -> PropertyResult:
    """Boosted parity-linked spinors satisfy gamma_mu p^mu psi = m psi."""
    count = 10_000
    rng = sampling.rng_for(seed)
    mom = sampling.random_momenta(rng, count)
    hel = sampling._random_signs(rng, count)
    return _below("parity-dirac-dynamics", 1e-12, count, lambda f, h, *p:
                  dirac_residuals(parity_linked_batch(h, *p), f), hel, *mom)


def check_dual_helicity_dirac(seed: int = 4) -> PropertyResult:
    """Dual-helicity spinors never satisfy the Dirac dynamics on either mass
    branch, while the Dirac operator maps each onto m times its parity
    image, the spinor with the flipped helicity pair and swapped
    amplitudes, and its parity image back onto it."""
    count = 10_000
    rng = sampling.rng_for(seed)
    mom = sampling.random_momenta(rng, count, ratio=(1e-3, 1e2))
    sign = sampling._random_signs(rng, count)
    a = sampling.random_amplitudes(rng, count)
    c = sampling.random_amplitudes(rng, count)

    def residuals(f, sign, a, c, m, pmag, theta, phi):
        rest = kernels.components(dual_helicity_batch(sign, a, c, theta, phi)[0])
        # the rows' parity images and, since parity exchanges the rest
        # blocks, the boosted rows themselves, from one pair of block boosts
        parr, arr = parity_batch(np.stack([rest, rest[:, [2, 3, 0, 1]]]), f)
        yield dirac_residuals(arr, f, 1)
        yield dirac_residuals(arr, f, -1)
        yield dirac_flip_residuals(arr, parr, f)
        yield dirac_flip_residuals(parr, arr, f)

    min_plus, min_minus, max_fwd, max_rev = _fold(
        residuals, sign, a, c, *mom, reduce=(np.min, np.min, np.max, np.max))
    worst_flip = max(max_fwd, max_rev)
    threshold = 1e-10
    passed = min_plus > 0.1 and min_minus > 0.1 and worst_flip < threshold
    details = (
        f"min dirac residual +m {min_plus:.3f}, -m {min_minus:.3f}; "
        f"flip defect fwd {max_fwd:.2e}, rev {max_rev:.2e}"
    )
    return PropertyResult("dual-helicity-dirac", passed, worst_flip,
                          threshold, count, details=details)


def check_charge_conjugation(seed: int = 5) -> PropertyResult:
    """Involution exactness, eigenspinor fixed points, non-conjugacy of
    single-helicity spinors, and the norm-constraint diagnostic."""
    count = 10_000
    rng = sampling.rng_for(seed)
    raw = sampling.random_raw_spinors(rng, count)
    invol = c_involution_max(raw)

    def c_residuals(cols):  # psi^dag psi as J^0, as analyze_columns takes it
        return kernels.c_eigen_residuals(cols, kernels.bilinears(cols)[2][0])

    params = sampling.self_conjugate_params(rng, count)
    res_plus, res_minus = c_residuals(self_conjugate_batch(**params)[0])
    eigen_worst = float(np.max(np.where(params["sign"] == 1, res_plus, res_minus)))

    scols = single_helicity_batch(**sampling.single_helicity_params(rng, count))[0]
    single_min = float(np.min(np.minimum(*c_residuals(scols))))

    fixture = BiSpinor(-2j, 1j, 1.0, 1.0)
    check = c_eigen_check(fixture)
    violated = check.violated()
    fixture_ok = (
        check.eigenvalue is None
        and "norm_ad" in violated
        and "phase_ad_plus" not in violated
        and "phase_bc_plus" not in violated
    )
    threshold = 1e-14
    passed = (
        invol < 1e-15
        and eigen_worst < threshold
        and single_min > EXACT
        and fixture_ok
    )
    details = (
        f"involution {invol:.1e}; eigen residual {eigen_worst:.1e}; "
        f"nearest single-helicity conjugacy {single_min:.3f}; "
        f"norm-constraint fixture {'flagged' if fixture_ok else 'NOT flagged'}"
    )
    return PropertyResult("charge-conjugation", passed,
                          max(invol, eigen_worst), threshold, count * 3, details=details)


def check_theta_link(seed: int = 6) -> PropertyResult:
    """Theta-conjugated left blocks boost with the right-handed factor."""
    count = 10_000
    rng = sampling.rng_for(seed)
    mom = sampling.random_momenta(rng, count)
    blocks = np.stack([sampling.random_amplitudes(rng, count),
                       sampling.random_amplitudes(rng, count)], axis=1)
    zetas = sampling.random_unit_phases(rng, count)
    return _below("theta-link", 1e-12, count,
                  lambda f, b, z, *_: theta_link_residuals(b, z, f), blocks, zetas, *mom)


def check_klein_gordon(seed: int = 7) -> PropertyResult:
    """(gamma_mu p^mu)^2 equals m^2 times the identity on shell, for the
    matrices read off the Dirac kernel that every Dirac residual applies."""
    count = 1_000
    mom = sampling.random_momenta(sampling.rng_for(seed), count, ratio=(1e-3, 10.0))

    def deviations(f, m, *_):
        mats = dirac_matrix_batch(f)
        dev = np.abs(mats @ mats - (m * m)[:, None, None] * np.eye(4))
        return np.max(dev, axis=(1, 2)) / m**2
    return _below("klein-gordon", 1e-12, count, deviations, *mom)


def check_clifford_algebra() -> PropertyResult:
    """Anticommutators of the gamma matrices reproduce the metric exactly."""
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    eye = np.eye(4)
    worst = 0.0
    gs = [gamma(mu) for mu in range(4)]
    for mu in range(4):
        for nu in range(4):
            anti = gs[mu] @ gs[nu] + gs[nu] @ gs[mu]
            worst = max(worst, float(np.max(np.abs(anti - 2 * eta[mu, nu] * eye))))
    prod = 1j * gs[0] @ gs[1] @ gs[2] @ gs[3]
    worst = max(worst, float(np.max(np.abs(prod - gamma5()))))
    threshold = 1e-15
    return PropertyResult("clifford-algebra", worst <= threshold, worst, threshold, 11)


def check_boost_inverse(seed: int = 8) -> PropertyResult:
    """Right and left boosts at the same momentum are mutual inverses."""
    count = 1_000
    mom = sampling.random_momenta(sampling.rng_for(seed), count)
    return _below("boost-inverse", 1e-12, count, lambda f, *_: np.abs(
        boost_block_batch(1, f) @ boost_block_batch(-1, f) - np.eye(2)), *mom)


def run_verification_suite(seed: int = 0,
                           tol: Tolerances = DEFAULT_TOLERANCES) -> list[PropertyResult]:
    """All properties at their campaign sizes; seed offsets are fixed."""
    return [
        check_clifford_algebra(),
        check_boost_inverse(seed + 8),
        check_fpk_identities(seed + 0),
        check_constructor_class_table(seed + 1, tol=tol),
        check_helicity_dichotomy(seed + 2, tol=tol),
        check_parity_dirac_link(seed + 3),
        check_dual_helicity_dirac(seed + 4),
        check_charge_conjugation(seed + 5),
        check_theta_link(seed + 6),
        check_klein_gordon(seed + 7),
    ]
