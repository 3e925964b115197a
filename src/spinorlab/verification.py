"""Property campaign suite behind verify mode and the acceptance tests.

Each check draws a seeded random campaign, measures the worst residual (or
violation count) against a pinned threshold, and reports a PropertyResult.
Campaign momentum ranges are chosen so that the thresholds sit well above
the float64 rounding floor of the quantity under test:

* parity-linked Dirac dynamics and the theta-link run up to pmag/m = 1e3,
  where the compensated kernels keep residuals a decade under 1e-12;
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

from . import kernels, sampling
from .algebra import gamma, gamma5
from .bilinears import bilinear_set_batch, fpk_residuals_batch
from .classify import (
    CAT_DUAL,
    CAT_NOT_WELL_DEFINED,
    CAT_SINGLE,
    helicity_categories,
    helicity_profiles,
    lounesto_classes,
)
from .factory import (
    BiSpinor,
    boost_bispinor,
    build_dual_helicity,
    build_parity_linked,
    dual_helicity_partner,
)
from .sampling import spinor_array
from .symmetries import c_eigen_check, charge_conjugate_batch, dirac_matrix, theta_link_check
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

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name}: worst {self.worst:.3e} "
            f"(threshold {self.threshold:.1e}, n={self.count})"
            + (f"  [{self.details}]" if self.details else "")
        )


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _momentum_components(moms):
    px = np.empty(len(moms))
    py = np.empty(len(moms))
    pz = np.empty(len(moms))
    e = np.empty(len(moms))
    for i, fm in enumerate(moms):
        px[i], py[i], pz[i] = fm.vector
        e[i] = fm.energy
    return e, px, py, pz


def check_fpk_identities(seed: int = 0, count: int = 100_000,
                         threshold: float = 1e-10) -> PropertyResult:
    """Scalar constraint residuals vanish for arbitrary random spinors."""
    def run():
        rng = sampling.rng_for(seed)
        psis = sampling.random_raw_spinors(rng, count)
        sigma, omega, j, k, _ = bilinear_set_batch(psis)
        return float(np.max(fpk_residuals_batch(sigma, omega, j, k)))

    worst, dt = _timed(run)
    return PropertyResult("fpk-identities", worst < threshold, worst,
                          threshold, count, dt)


_FAMILY_EXPECTED_CLASSES = {
    "dual_helicity": {4, 5},
    "self_conjugate": {5},
    "weyl": {6},
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
            spinors, _, _ = sampling.draw_single_helicity(rng, n, steer=target)
            got = _classes_of(spinors, tol)
            miss = int(np.sum(got != target))
            bad += miss
            details.append(f"single->{target}: {miss}/{n} off")
        for family, expected in _FAMILY_EXPECTED_CLASSES.items():
            spinors, _, _ = sampling.FAMILY_DRAWS[family](rng, count)
            got = _classes_of(spinors, tol)
            miss = int(np.sum(~np.isin(got, list(expected))))
            bad += miss
            details.append(f"{family}: {miss}/{count} off")
        return bad, "; ".join(details)

    (bad, details), dt = _timed(run)
    total = count * 4
    return PropertyResult("constructor-class-table", bad == 0, float(bad),
                          0.0, total, dt, details)


def _classes_of(spinors, tol):
    arr = spinor_array(spinors)
    sigma, omega, j, k, s = bilinear_set_batch(arr)
    return lounesto_classes(sigma, omega, j, k, s, tol)


def check_helicity_dichotomy(seed: int = 2, count: int = 10_000,
                             tol: Tolerances = DEFAULT_TOLERANCES) -> PropertyResult:
    """Measured helicity category matches the class annotation for every
    constructor-generated spinor, at its own construction direction."""
    expected_cat = {1: CAT_SINGLE, 2: CAT_SINGLE, 3: CAT_SINGLE,
                    4: CAT_DUAL, 5: CAT_DUAL, 6: CAT_NOT_WELL_DEFINED}

    def run():
        rng = sampling.rng_for(seed)
        bad = 0
        details = []
        for family, draw in sampling.FAMILY_DRAWS.items():
            spinors, theta, phi = draw(rng, count)
            arr = spinor_array(spinors)
            sigma, omega, j, k, s = bilinear_set_batch(arr)
            classes = lounesto_classes(sigma, omega, j, k, s, tol)
            rstate, lstate, _, _ = helicity_profiles(arr, theta, phi, tol)
            cats = helicity_categories(rstate, lstate)
            want = np.array([expected_cat.get(int(c), -1) for c in classes])
            miss = int(np.sum(cats != want))
            bad += miss
            details.append(f"{family}: {miss}/{count} off")
        return bad, "; ".join(details)

    (bad, details), dt = _timed(run)
    return PropertyResult("helicity-dichotomy", bad == 0, float(bad), 0.0,
                          count * len(sampling.FAMILY_DRAWS), dt, details)


def check_parity_dirac_link(seed: int = 3, count: int = 10_000,
                            ratio=(1e-3, 1e3),
                            threshold: float = 1e-12) -> PropertyResult:
    """Boosted parity-linked spinors satisfy gamma_mu p^mu psi = m psi."""
    def run():
        rng = sampling.rng_for(seed)
        m, pmag, theta, phi = sampling.random_momenta(rng, count, ratio=ratio)
        hel = np.where(rng.integers(0, 2, size=count) == 0, 1, -1)
        moms = sampling.momenta_list(m, pmag, theta, phi)
        spinors = [build_parity_linked(int(h), fm) for h, fm in zip(hel, moms)]
        arr = spinor_array(spinors)
        e, px, py, pz = _momentum_components(moms)
        out = kernels.dirac_apply_shift(arr, e, m, px, py, pz, m)
        resid = np.linalg.norm(out, axis=1) / (m * np.linalg.norm(arr, axis=1))
        return float(np.max(resid))

    worst, dt = _timed(run)
    return PropertyResult("parity-dirac-dynamics", worst < threshold, worst,
                          threshold, count, dt)


def check_dual_helicity_dirac(seed: int = 4, count: int = 10_000,
                              ratio=(1e-3, 1e2),
                              never_threshold: float = 0.1,
                              flip_threshold: float = 1e-10) -> PropertyResult:
    """Dual-helicity spinors never satisfy the Dirac dynamics on either mass
    branch, while the Dirac operator maps each onto its flipped partner."""
    def run():
        rng = sampling.rng_for(seed)
        m, pmag, theta, phi = sampling.random_momenta(rng, count, ratio=ratio)
        moms = sampling.momenta_list(m, pmag, theta, phi)
        pick = rng.integers(0, 2, size=count)
        a = sampling.random_amplitudes(rng, count)
        c = sampling.random_amplitudes(rng, count)
        boosted = []
        partners = []
        for k, ai, ci, fm in zip(pick, a, c, moms):
            psi = build_dual_helicity("+-" if k == 0 else "-+", ai, ci,
                                      fm.theta, fm.phi)
            psi_b = boost_bispinor(psi, fm)
            boosted.append(psi_b)
            partners.append(dual_helicity_partner(psi_b))
        arr = spinor_array(boosted)
        parr = spinor_array(partners)
        e, px, py, pz = _momentum_components(moms)

        norms = np.linalg.norm(arr, axis=1)
        res_plus = np.linalg.norm(
            kernels.dirac_apply_shift(arr, e, m, px, py, pz, m), axis=1
        ) / (m * norms)
        res_minus = np.linalg.norm(
            kernels.dirac_apply_shift(arr, e, m, px, py, pz, -m), axis=1
        ) / (m * norms)

        zero = np.zeros(count)

        def flip_defect(src, dst):
            v = kernels.dirac_apply_shift(src, e, m, px, py, pz, zero)
            coeff = np.sum(np.conj(dst) * v, axis=1) / np.sum(
                np.conj(dst) * dst, axis=1
            )
            return np.linalg.norm(v - coeff[:, None] * dst, axis=1) / np.linalg.norm(
                v, axis=1
            )

        fwd = flip_defect(arr, parr)
        rev = flip_defect(parr, arr)
        return (
            float(np.min(res_plus)),
            float(np.min(res_minus)),
            float(np.max(fwd)),
            float(np.max(rev)),
        )

    (min_plus, min_minus, max_fwd, max_rev), dt = _timed(run)
    worst_flip = max(max_fwd, max_rev)
    passed = (
        min_plus > never_threshold
        and min_minus > never_threshold
        and worst_flip < flip_threshold
    )
    details = (
        f"min dirac residual +m {min_plus:.3f}, -m {min_minus:.3f}; "
        f"flip defect fwd {max_fwd:.2e}, rev {max_rev:.2e}"
    )
    return PropertyResult("dual-helicity-dirac", passed, worst_flip,
                          flip_threshold, count, dt, details)


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

        spinors, _, _ = sampling.draw_self_conjugate(rng, count)
        arr = spinor_array(spinors)
        signs = np.array([s.provenance.params["sign"] for s in spinors])
        cres = np.linalg.norm(
            charge_conjugate_batch(arr) - signs[:, None] * arr, axis=1
        ) / np.linalg.norm(arr, axis=1)
        eigen_worst = float(np.max(cres))

        singles, _, _ = sampling.draw_single_helicity(rng, count)
        sarr = spinor_array(singles)
        csarr = charge_conjugate_batch(sarr)
        nrm = np.linalg.norm(sarr, axis=1)
        nearest = np.minimum(
            np.linalg.norm(csarr - sarr, axis=1), np.linalg.norm(csarr + sarr, axis=1)
        ) / nrm
        single_min = float(np.min(nearest))

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


def check_theta_link(seed: int = 6, count: int = 10_000, ratio=(1e-3, 1e3),
                     threshold: float = 1e-12) -> PropertyResult:
    """Theta-conjugated left blocks boost with the right-handed factor."""
    def run():
        rng = sampling.rng_for(seed)
        m, pmag, theta, phi = sampling.random_momenta(rng, count, ratio=ratio)
        moms = sampling.momenta_list(m, pmag, theta, phi)
        blocks = np.stack(
            [sampling.random_amplitudes(rng, count),
             sampling.random_amplitudes(rng, count)],
            axis=1,
        )
        zetas = sampling.random_unit_phases(rng, count)
        worst = 0.0
        for fm, blk, z in zip(moms, blocks, zetas):
            worst = max(worst, theta_link_check(blk, fm, z))
        return worst

    worst, dt = _timed(run)
    return PropertyResult("theta-link", worst < threshold, worst, threshold,
                          count, dt)


def check_klein_gordon(seed: int = 7, count: int = 1_000, ratio=(1e-3, 10.0),
                       threshold: float = 1e-12) -> PropertyResult:
    """(gamma_mu p^mu)^2 equals m^2 times the identity on shell."""
    def run():
        rng = sampling.rng_for(seed)
        m, pmag, theta, phi = sampling.random_momenta(rng, count, ratio=ratio)
        worst = 0.0
        eye = np.eye(4)
        for fm in sampling.momenta_list(m, pmag, theta, phi):
            mat = dirac_matrix(fm)
            dev = np.max(np.abs(mat @ mat - fm.m**2 * eye)) / fm.m**2
            worst = max(worst, dev)
        return worst

    worst, dt = _timed(run)
    return PropertyResult("klein-gordon", worst < threshold, worst, threshold,
                          count, dt)


def check_clifford_algebra(threshold: float = 1e-15) -> PropertyResult:
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
    return PropertyResult("clifford-algebra", worst <= threshold, worst,
                          threshold, 11, dt)


def check_boost_inverse(seed: int = 8, count: int = 1_000, ratio=(1e-3, 1e3),
                        threshold: float = 1e-12) -> PropertyResult:
    """Right and left boosts at the same momentum are mutual inverses."""
    from .algebra import boost_block

    def run():
        rng = sampling.rng_for(seed)
        m, pmag, theta, phi = sampling.random_momenta(rng, count, ratio=ratio)
        eye = np.eye(2)
        worst = 0.0
        for fm in sampling.momenta_list(m, pmag, theta, phi):
            prod = boost_block("right", fm) @ boost_block("left", fm)
            worst = max(worst, float(np.max(np.abs(prod - eye))))
        return worst

    worst, dt = _timed(run)
    return PropertyResult("boost-inverse", worst < threshold, worst, threshold,
                          count, dt)


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
