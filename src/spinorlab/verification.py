"""Property campaign suite behind verify mode and the acceptance tests.

Each check draws a seeded random campaign, measures the worst residual (or
violation count) against a pinned threshold, and reports a PropertyResult.
The campaigns over raw or constructed spinors (fpk-identities and the two
class checks) run through :func:`sampling.campaign` and read its
aggregates; the others draw their momenta and amplitudes directly.
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

import time
from dataclasses import dataclass

import numpy as np

from . import sampling
from .algebra import boost_block_batch, gamma, gamma5
from .classify import CLASS_CATEGORIES
from .factory import (
    BiSpinor,
    boost_bispinor_batch,
    dual_helicity_batch,
    dual_helicity_partner_batch,
    parity_linked_batch,
    self_conjugate_batch,
    single_helicity_batch,
)
from .symmetries import (
    c_eigen_check,
    c_eigen_residuals,
    charge_conjugate_batch,
    dirac_flip_residuals,
    dirac_matrix_batch,
    dirac_residuals,
    theta_link_residuals,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    worst: float
    threshold: float
    count: int
    seconds: float
    details: str = ""


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def check_fpk_identities(seed: int = 0, count: int = 100_000) -> PropertyResult:
    """Scalar constraint residuals vanish for arbitrary random spinors."""
    def run():
        result = sampling.campaign("random_raw", sampling.rng_for(seed), count,
                                   DEFAULT_TOLERANCES)
        return float(result.fpk_max.max())

    worst, dt = _timed(run)
    return PropertyResult("fpk-identities", worst < 1e-10, worst, 1e-10, count, dt)


_FAMILY_EXPECTED_CLASSES = {
    "dual_helicity": [4, 5],
    "self_conjugate": [5],
    "weyl": [6],
}


def check_constructor_class_table(seed: int = 1, count: int = 10_000,
                                  tol: Tolerances = DEFAULT_TOLERANCES) -> PropertyResult:
    """Every constructor lands in its class set; amplitude steering picks
    the regular subclass.  The threshold is zero misclassifications."""
    def run():
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
        return bad, "; ".join(details)

    (bad, details), dt = _timed(run)
    total = count * 4
    return PropertyResult("constructor-class-table", bad == 0, float(bad),
                          0.0, total, dt, details)


def check_helicity_dichotomy(seed: int = 2, count: int = 10_000,
                             tol: Tolerances = DEFAULT_TOLERANCES) -> PropertyResult:
    """Measured helicity category matches the class annotation for every
    constructor-generated spinor, at its own construction direction;
    unclassifiable rows match no category."""
    def run():
        rng = sampling.rng_for(seed)
        bad = 0
        details = []
        for family in sampling.FAMILY_PARAMS:
            joint = sampling.campaign(family, rng, count, tol).joint.sum(axis=2)
            miss = count - sum(int(joint[c, CLASS_CATEGORIES[c]]) for c in range(1, 7))
            bad += miss
            details.append(f"{family}: {miss}/{count} off")
        return bad, "; ".join(details)

    (bad, details), dt = _timed(run)
    return PropertyResult("helicity-dichotomy", bad == 0, float(bad), 0.0,
                          count * len(sampling.FAMILY_PARAMS), dt, details)


def check_parity_dirac_link(seed: int = 3, count: int = 10_000) -> PropertyResult:
    """Boosted parity-linked spinors satisfy gamma_mu p^mu psi = m psi."""
    def run():
        rng = sampling.rng_for(seed)
        m, pmag, theta, phi = sampling.random_momenta(rng, count)
        hel = sampling._random_signs(rng, count)
        arr, _, _ = parity_linked_batch(hel, m, pmag, theta, phi)
        return float(np.max(dirac_residuals(arr, m, pmag, theta, phi)))

    worst, dt = _timed(run)
    return PropertyResult("parity-dirac-dynamics", worst < 1e-12, worst, 1e-12,
                          count, dt)


def check_dual_helicity_dirac(seed: int = 4, count: int = 10_000) -> PropertyResult:
    """Dual-helicity spinors never satisfy the Dirac dynamics on either mass
    branch, while the Dirac operator maps each onto its flipped partner."""
    def run():
        rng = sampling.rng_for(seed)
        m, pmag, theta, phi = sampling.random_momenta(rng, count, ratio=(1e-3, 1e2))
        sign = sampling._random_signs(rng, count)
        a = sampling.random_amplitudes(rng, count)
        c = sampling.random_amplitudes(rng, count)
        arr = boost_bispinor_batch(dual_helicity_batch(sign, a, c, theta, phi)[0],
                                   m, pmag, theta, phi)
        parr, _, _ = dual_helicity_partner_batch(sign, a, c, theta, phi, m, pmag)
        res_plus = dirac_residuals(arr, m, pmag, theta, phi, 1)
        res_minus = dirac_residuals(arr, m, pmag, theta, phi, -1)
        fwd = dirac_flip_residuals(arr, parr, m, pmag, theta, phi)
        rev = dirac_flip_residuals(parr, arr, m, pmag, theta, phi)
        return (
            float(np.min(res_plus)),
            float(np.min(res_minus)),
            float(np.max(fwd)),
            float(np.max(rev)),
        )

    (min_plus, min_minus, max_fwd, max_rev), dt = _timed(run)
    worst_flip = max(max_fwd, max_rev)
    passed = min_plus > 0.1 and min_minus > 0.1 and worst_flip < 1e-10
    details = (
        f"min dirac residual +m {min_plus:.3f}, -m {min_minus:.3f}; "
        f"flip defect fwd {max_fwd:.2e}, rev {max_rev:.2e}"
    )
    return PropertyResult("dual-helicity-dirac", passed, worst_flip,
                          1e-10, count, dt, details)


def check_charge_conjugation(seed: int = 5, count: int = 10_000,
                             tol: Tolerances = DEFAULT_TOLERANCES) -> PropertyResult:
    """Involution exactness, eigenspinor fixed points, non-conjugacy of
    single-helicity spinors, and the norm-constraint diagnostic."""
    def run():
        rng = sampling.rng_for(seed)
        raw = sampling.random_raw_spinors(rng, count)
        invol = float(
            np.max(np.abs(charge_conjugate_batch(charge_conjugate_batch(raw)) - raw))
        )

        params = sampling.self_conjugate_params(rng, count)
        res_plus, res_minus = c_eigen_residuals(self_conjugate_batch(**params)[0])
        eigen_worst = float(np.max(np.where(params["sign"] == 1, res_plus, res_minus)))

        sarr, _, _ = single_helicity_batch(**sampling.single_helicity_params(rng, count))
        single_min = float(np.min(np.minimum(*c_eigen_residuals(sarr))))

        fixture = BiSpinor(-2j, 1j, 1.0, 1.0)
        check = c_eigen_check(fixture, tol)
        fixture_ok = (
            check.eigenvalue is None
            and "norm_ad" in check.violated(tol)
            and "phase_ad_plus" not in check.violated(tol)
            and "phase_bc_plus" not in check.violated(tol)
        )
        return invol, eigen_worst, single_min, fixture_ok

    (invol, eigen_worst, single_min, fixture_ok), dt = _timed(run)
    passed = (
        invol < 1e-15
        and eigen_worst < 1e-14
        and single_min > tol.exact
        and fixture_ok
    )
    details = (
        f"involution {invol:.1e}; eigen residual {eigen_worst:.1e}; "
        f"nearest single-helicity conjugacy {single_min:.3f}; "
        f"norm-constraint fixture {'flagged' if fixture_ok else 'NOT flagged'}"
    )
    return PropertyResult("charge-conjugation", passed,
                          max(invol, eigen_worst), 1e-14, count * 3, dt, details)


def check_theta_link(seed: int = 6, count: int = 10_000) -> PropertyResult:
    """Theta-conjugated left blocks boost with the right-handed factor."""
    def run():
        rng = sampling.rng_for(seed)
        m, pmag, theta, phi = sampling.random_momenta(rng, count)
        blocks = np.stack(
            [sampling.random_amplitudes(rng, count),
             sampling.random_amplitudes(rng, count)],
            axis=1,
        )
        zetas = sampling.random_unit_phases(rng, count)
        return float(np.max(theta_link_residuals(blocks, zetas, m, pmag, theta, phi)))

    worst, dt = _timed(run)
    return PropertyResult("theta-link", worst < 1e-12, worst, 1e-12, count, dt)


def check_klein_gordon(seed: int = 7, count: int = 1_000) -> PropertyResult:
    """(gamma_mu p^mu)^2 equals m^2 times the identity on shell."""
    def run():
        rng = sampling.rng_for(seed)
        m, pmag, theta, phi = sampling.random_momenta(rng, count, ratio=(1e-3, 10.0))
        mats = dirac_matrix_batch(m, pmag, theta, phi)
        dev = np.abs(mats @ mats - (m * m)[:, None, None] * np.eye(4))
        return float(np.max(np.max(dev, axis=(1, 2)) / m**2))

    worst, dt = _timed(run)
    return PropertyResult("klein-gordon", worst < 1e-12, worst, 1e-12, count, dt)


def check_clifford_algebra() -> PropertyResult:
    """Anticommutators of the gamma matrices reproduce the metric exactly."""
    def run():
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
        return worst

    worst, dt = _timed(run)
    return PropertyResult("clifford-algebra", worst <= 1e-15, worst, 1e-15, 11, dt)


def check_boost_inverse(seed: int = 8, count: int = 1_000) -> PropertyResult:
    """Right and left boosts at the same momentum are mutual inverses."""
    def run():
        rng = sampling.rng_for(seed)
        m, pmag, theta, phi = sampling.random_momenta(rng, count)
        prod = (boost_block_batch(1, m, pmag, theta, phi)
                @ boost_block_batch(-1, m, pmag, theta, phi))
        return float(np.max(np.abs(prod - np.eye(2))))

    worst, dt = _timed(run)
    return PropertyResult("boost-inverse", worst < 1e-12, worst, 1e-12, count, dt)


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
        check_charge_conjugation(seed + 5, tol=tol),
        check_theta_link(seed + 6),
        check_klein_gordon(seed + 7),
    ]
