"""Lounesto class decision tree and helicity profiling."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_bispinor
from spinorlab import (
    BiSpinor,
    ScaleError,
    ZeroSpinorError,
    bilinear_set,
    build_dual_helicity,
    build_self_conjugate,
    build_single_helicity,
    build_weyl,
    classify_report,
    helicity_profile,
    lounesto_class,
)
from spinorlab import kernels, sampling
from spinorlab.algebra import bloch_direction_batch, unit_vectors
from spinorlab.bilinears import BilinearSet, fpk_columns
from spinorlab.classify import (
    CAT_NON_EIGEN,
    CATEGORY_DUAL,
    CATEGORY_NAMES,
    CATEGORY_NON_EIGEN,
    CATEGORY_NOT_WELL_DEFINED,
    CATEGORY_SINGLE,
    CLASS_CATEGORIES,
    analyze,
    analyze_columns,
    helicity_categories,
    helicity_profiles,
)
from spinorlab.factory import singular_form_batch
from spinorlab.sampling import SAMPLE_BLOCK_ROWS, random_raw_spinors
from spinorlab.symmetries import c_eigen_residuals, eigen_states
from spinorlab.tolerances import DEFAULT_TOLERANCES, Tolerances


class TestLounestoClass:
    @pytest.mark.parametrize(
        "psi,expected",
        [
            (BiSpinor(1, 0, 1, 0), 2),
            (BiSpinor(-1j, 0, 0, 1), 5),
            (BiSpinor(1, 0, 0, 0), 6),
        ],
    )
    def test_pinned_examples(self, psi, expected):
        assert lounesto_class(bilinear_set(psi)).index == expected
        assert oracles.brute_force_class(psi.array) == expected

    def test_matches_brute_force_on_random_spinors(self, rng):
        for _ in range(500):
            psi = random_bispinor(rng)
            got = lounesto_class(bilinear_set(psi)).index
            assert got == oracles.brute_force_class(psi.array)

    def test_annotations(self):
        # Lounesto's table: regular classes carry a single helicity, the
        # singular classes 4 and 5 a dual one, class 6 none that is defined;
        # an unclassifiable pattern predicts no category
        from spinorlab import LounestoClass

        table = {
            None: ("unclassifiable", None),
            1: ("single-helicity", "single"),
            2: ("single-helicity", "single"),
            3: ("single-helicity", "single"),
            4: ("dual-helicity", "dual"),
            5: ("dual-helicity", "dual"),
            6: ("Not well defined", "not-well-defined"),
        }
        for idx, (note, category) in table.items():
            assert LounestoClass(idx).annotation == note
            code = int(CLASS_CATEGORIES[idx or 0])
            assert CATEGORY_NAMES.get(code) == category
        assert len(CLASS_CATEGORIES) == len(table)

    def test_unclassifiable_pattern_returns_none(self):
        degenerate = BilinearSet(
            sigma=0.0, omega=0.0, j=np.array([1.0, 0, 0, 0]),
            k=np.zeros(4), s=np.zeros(6),
        )
        assert lounesto_class(degenerate).index is None

    def test_scale_invariance_of_class(self, rng):
        for _ in range(100):
            psi = random_bispinor(rng)
            lam = complex(*rng.normal(size=2))
            if abs(lam) < 1e-3:
                continue
            scaled = BiSpinor(*(lam * psi.array))
            assert (
                lounesto_class(bilinear_set(psi)).index
                == lounesto_class(bilinear_set(scaled)).index
            )

    def test_steering_rule(self, rng):
        # conj(a)*c real -> class 2, imaginary -> class 3, generic -> class 1
        for _ in range(200):
            t = math.acos(rng.uniform(-0.99, 0.99))
            f = rng.uniform(0, 2 * math.pi)
            a = complex(*rng.normal(size=2))
            if abs(a) < 0.1:
                continue
            rho = rng.uniform(0.2, 2.0)
            for c, expected in [
                (a * (1.0 + 0.7j), 1),
                (rho * a, 2),
                (1j * rho * a, 3),
            ]:
                psi = build_single_helicity("++", a, c, t, f)
                assert lounesto_class(bilinear_set(psi)).index == expected
                assert oracles.brute_force_class(psi.array) == expected


class TestHelicityProfile:
    def test_single_helicity_profile(self):
        psi = build_single_helicity("++", 1.0, 2.0 + 1j, 1.0, 0.3)
        prof = helicity_profile(psi, 1.0, 0.3)
        assert (prof.right, prof.left) == ("plus", "plus")
        assert prof.category == CATEGORY_SINGLE
        assert prof.right_residual < 1e-12

    def test_dual_helicity_profile(self):
        psi = build_dual_helicity("+-", 1.0, 1.0, 1.0, 0.3)
        prof = helicity_profile(psi, 1.0, 0.3)
        assert (prof.right, prof.left) == ("plus", "minus")
        assert prof.category == CATEGORY_DUAL

    def test_weyl_profile_reports_nonnull_block_helicity(self):
        psi = build_weyl("right", (1.0, 0.0))
        prof = helicity_profile(psi, 0.0, 0.0)
        assert prof.right == "plus"
        assert prof.left == "null-block"
        assert prof.category == CATEGORY_NOT_WELL_DEFINED

    def test_self_conjugate_is_dual_along_bloch_axis(self, rng):
        for _ in range(50):
            c = complex(*rng.normal(size=2))
            d = complex(*rng.normal(size=2))
            if abs(c) < 1e-3 or abs(d) < 1e-3:
                continue
            psi = build_self_conjugate(1, c, d)
            t, f = psi.provenance.direction
            assert helicity_profile(psi, t, f).category == CATEGORY_DUAL

    def test_generic_spinor_not_eigen(self, rng):
        psi = BiSpinor(1.0, 0.5 + 0.2j, -0.3, 0.8j)
        prof = helicity_profile(psi, 0.7, 0.7)
        assert prof.category == CATEGORY_NON_EIGEN

    def test_zero_spinor_rejected(self):
        with pytest.raises(ZeroSpinorError):
            helicity_profile(BiSpinor(0, 0, 0, 0), 0.0, 0.0)

    def test_closer_branch_wins_when_both_pass(self):
        # rel_plus^2 + rel_minus^2 = 4 for a unit n, so above
        # epsilon_helicity = sqrt(2) a block can pass both branches; the
        # right block here reads 0.6607 on plus and 1.8877 on minus
        psi = BiSpinor(1, 0.35, 1, 0)
        tol = Tolerances(eps_helicity=1.9)
        rep = classify_report(psi, direction=(0.0, 0.0), tol=tol)
        assert (rep.helicity.right, rep.helicity.left) == ("plus", "plus")
        assert rep.helicity.right_residual == pytest.approx(0.6607, abs=1e-4)
        assert rep.helicity.category == CATEGORY_SINGLE
        assert rep.findings == ()
        res = analyze(psi.array[None, :], unit_vectors(0.0, 0.0), tol)
        assert CATEGORY_NAMES[int(res.categories[0])] == CATEGORY_SINGLE
        # (1, 1) along z reads sqrt(2) on both branches: a tie goes to plus,
        # as C's +1 does in symmetries.eigen_states
        tie = BiSpinor(1, 1, 1j, 1j)
        *_, (rp, rm), (lp, lm) = helicity_profiles(
            kernels.columns(tie.array[None, :]), unit_vectors(0.0, 0.0))
        assert rp == rm == lp == lm == pytest.approx(math.sqrt(2))
        prof = helicity_profile(tie, 0.0, 0.0, Tolerances(eps_helicity=1.5))
        assert (prof.right, prof.left, prof.category) == ("plus", "plus", CATEGORY_SINGLE)

    def test_block_thresholds_at_equality(self):
        # along n = x each block of (1, 0, 1, 0) has norm 1 and reads
        # exactly fl(sqrt(2)) on both branches: a residual equal to
        # epsilon_helicity fails it, and a squared norm equal to
        # eps_class * psi^dag psi (here 0.5 * 2) is null
        cols = kernels.columns(BiSpinor(1, 0, 1, 0).array[None, :])
        n = (np.ones(1), np.zeros(1), np.zeros(1))
        rstate, lstate, (rp, rm), _ = helicity_profiles(
            cols, n, Tolerances(eps_helicity=math.sqrt(2)))
        assert rp[0] == rm[0] == math.sqrt(2)
        assert (rstate[0], lstate[0]) == (2, 2)
        rstate, lstate, _, _ = helicity_profiles(cols, n, Tolerances(eps_class=0.5))
        assert (rstate[0], lstate[0]) == (0, 0)

    def test_category_of_every_block_state_pair(self):
        # block states: 0 null, +1 plus, -1 minus, 2 not-eigen
        table = {
            (1, 1): "single", (-1, -1): "single",
            (1, -1): "dual", (-1, 1): "dual",
            (0, 1): "not-well-defined", (0, -1): "not-well-defined",
            (0, 2): "not-well-defined", (1, 0): "not-well-defined",
            (-1, 0): "not-well-defined", (2, 0): "not-well-defined",
            (0, 0): "non-eigen", (2, 2): "non-eigen",
            (1, 2): "non-eigen", (2, 1): "non-eigen",
            (-1, 2): "non-eigen", (2, -1): "non-eigen",
        }
        assert len(table) == 16
        pairs = np.array(list(table), dtype=np.int8)
        codes = helicity_categories(pairs[:, 0], pairs[:, 1])
        assert [CATEGORY_NAMES[int(c)] for c in codes] == list(table.values())


# Exact reference for kernels.helicity_residuals: ||M b -+ b||^2 and ||b||^2
# of each block in rational arithmetic, M = sigma.n from the oracles Pauli
# literals and the float n as the kernel reads it (|n| need not be 1).
# - Each component of M b is a sum of three products n_i x_j, and each
#   term passes through at most three roundings (its product, two
#   additions), so it is off by at most gamma_3 T, T the sum of the
#   |n_i x_j|.  By Cauchy-Schwarz T <= |n| times the norm of its three
#   x_j, and each x_j enters three of the four components, so the four T's
#   have norm at most sqrt(3) |n| ||b||.
# - d = M b -+ b takes one more rounding per component, so the rounded d
#   is within E = u (1 + |n|) ||b|| + (1 + u) gamma_3 sqrt(3) |n| ||b|| of
#   the exact one, in norm, and ||d|| <= (1 + |n|) ||b||.
# - The sum of the four squares takes three roundings a term (square, two
#   additions), which scales its square root by 1 + t, |t| <= g =
#   gamma_3 / (2 - gamma_3), and the square root one more, u.
# So |res - ||d||| <= (u (1 + g) + g) (||d|| + E) + E, about 12 u ||b|| for a
# unit n; the norm, d = b with E = 0, is within (u (1 + g) + g) ||b||, about
# 2.5 u ||b|| (Higham, "Accuracy and Stability of Numerical Algorithms",
# 2nd ed., Lemma 3.1).  This holds while no product under- or overflows.
_U = Fraction(1, 2**53)
_G3 = 3 * _U / (1 - 3 * _U)
_G = _G3 / (2 - _G3)
_SQRT3 = Fraction(17321, 10000)  # above sqrt(3)


def _sqrt_bracket(x, bits=200):
    """(lo, hi) with lo <= sqrt(x) <= hi <= lo + 2^-bits, for a Fraction
    x >= 0; lo = hi when lo is the root."""
    lo = Fraction(math.isqrt(x.numerator * 4**bits // x.denominator), 2**bits)
    return lo, lo if lo * lo == x else lo + Fraction(1, 2**bits)


def _exact_helicity_squares(n, x):
    """(||M b - b||^2, ||M b + b||^2, ||b||^2) of one block b = (x0r, x0i,
    x1r, x1i), exactly."""
    pauli = [[(sum(nk * int(p[i, j].real) for nk, p in zip(n, oracles.PAULI)),
               sum(nk * int(p[i, j].imag) for nk, p in zip(n, oracles.PAULI)))
              for j in range(2)] for i in range(2)]
    b = [(x[0], x[1]), (x[2], x[3])]
    mb = []
    for row in pauli:
        mb += [sum(mr * br - mi * bi for (mr, mi), (br, bi) in zip(row, b)),
               sum(mr * bi + mi * br for (mr, mi), (br, bi) in zip(row, b))]
    return (sum((m - v) ** 2 for m, v in zip(mb, x)),
            sum((m + v) ** 2 for m, v in zip(mb, x)), sum(v * v for v in x))


@pytest.mark.parametrize("family", ["random_raw", *sampling.FAMILY_PARAMS])
def test_helicity_kernel_within_a_rounding_bound_of_the_exact_residuals(family):
    rows = 300
    rng = sampling.rng_for(17)
    if family == "random_raw":
        arr = random_raw_spinors(rng, rows)
        n = unit_vectors(*sampling.random_directions(rng, rows))
    else:
        arr, n = oracles.family_draw(family, rng, rows)[:2]
    cols = kernels.columns(arr)
    got = np.stack(kernels.helicity_residuals(cols, n), axis=1)
    for i in range(rows):
        nv = [Fraction(float(c[i])) for c in n]
        n_hi = (1 + sum(c * c for c in nv)) / 2  # above |n|
        for block in (0, 1):  # right, then left
            x = [Fraction(float(c[i])) for c in cols[4 * block:4 * block + 4]]
            minus, plus, norm_sq = _exact_helicity_squares(nv, x)
            b_hi = _sqrt_bracket(norm_sq)[1]
            err = _U * (1 + n_hi) * b_hi + (1 + _U) * _G3 * _SQRT3 * n_hi * b_hi
            d_bound = (_U * (1 + _G) + _G) * ((1 + n_hi) * b_hi + err) + err
            bounds = (d_bound, d_bound, (_U * (1 + _G) + _G) * b_hi)
            values = got[i, 3 * block:3 * block + 3].tolist()
            for value, exact, bound in zip(values, (minus, plus, norm_sq), bounds):
                value = Fraction(value)
                assert max(abs(value - w) for w in _sqrt_bracket(exact)) <= bound, (
                    family, i, block)


def test_every_singular_spinor_is_dual_except_class_6():
    # sigma + i omega = 2 <R, L>, so the blocks of a singular spinor are
    # orthogonal: where both are nonzero they are the +- eigenvectors of
    # sigma.n along R's Bloch direction, and no regular spinor is dual
    rng = sampling.rng_for(5)
    rows = 20000
    b, c, d = (sampling.random_amplitudes(rng, rows) for _ in range(3))
    # free amplitudes, |b| = |c| and a null right block
    cases = {4: b, 5: c * sampling.random_unit_phases(rng, rows), 6: np.zeros(rows, complex)}
    for cls, amp in cases.items():
        res = analyze_columns(*singular_form_batch(amp, c, d))
        assert (res.classes == cls).all(), cls
        assert (res.categories == CLASS_CATEGORIES[cls]).all(), cls
    psis = random_raw_spinors(rng, rows)
    res = analyze(psis, bloch_direction_batch(psis[:, 0], psis[:, 1])[0])
    assert (res.classes == 1).all()
    assert (res.categories == CAT_NON_EIGEN).all()


class TestClassifyReport:
    def test_class2_consistent(self):
        psi = build_single_helicity("++", 1.0, 2.0, 1.2, 0.1)
        rep = classify_report(psi)
        assert rep.lounesto.index == 2
        assert rep.helicity.category == CATEGORY_SINGLE
        assert rep.findings == ()

    def test_class5_consistent(self):
        psi = build_self_conjugate(1, 1.0, 0.5 + 0.5j)
        rep = classify_report(psi)
        assert rep.lounesto.index == 5
        assert rep.helicity.category == CATEGORY_DUAL
        assert rep.findings == ()

    def test_random_regular_spinor_flagged_non_eigen(self, rng):
        while True:
            psi = random_bispinor(rng)
            rep = classify_report(psi, direction=(0.5, 0.5))
            if rep.lounesto.index in (1, 2, 3):
                break
        assert rep.helicity.category == CATEGORY_NON_EIGEN
        assert "helicity not aligned with supplied direction" in rep.findings

    def test_raw_spinor_without_direction_skips_profile(self):
        rep = classify_report(BiSpinor(1, 0, 1, 0))
        assert rep.helicity is None
        assert any("no direction supplied" in f for f in rep.findings)

    def test_profile_direction_defaults_to_provenance(self):
        psi = build_dual_helicity("-+", 0.5, 1.0, 0.9, 2.2)
        rep = classify_report(psi)
        assert rep.direction == (0.9, 2.2)
        assert rep.helicity.category == CATEGORY_DUAL


def _reference_classes(sigma, omega, j, k, s, tol=DEFAULT_TOLERANCES):
    # the decision tree with the K and S zero tests as numpy row reductions
    scale = tol.eps_class * j[:, 0]
    sig0 = np.abs(sigma) <= scale
    om0 = np.abs(omega) <= scale
    k0 = np.max(np.abs(k), axis=1) <= scale
    s0 = np.max(np.abs(s), axis=1) <= scale
    out = np.zeros(len(sigma), dtype=np.int8)
    out[~sig0 & ~om0] = 1
    out[~sig0 & om0] = 2
    out[sig0 & ~om0] = 3
    singular = sig0 & om0
    out[singular & ~k0 & ~s0] = 4
    out[singular & k0 & ~s0] = 5
    out[singular & ~k0 & s0] = 6
    # a row without a finite, positive J^0 has no bilinears to test
    out[~(np.isfinite(j[:, 0]) & (j[:, 0] > 0))] = 0
    return out


class TestColumnPasses:
    """The K and S zero tests and the fpk maxima run as passes over the
    columns; they must agree bit for bit with numpy's row reductions.  The
    zero tests are checked through :func:`lounesto_class`, one row at a
    time; :func:`test_block_verdicts_equal_the_full_bilinear_composition`
    ties it to the block pass."""

    SCALE = DEFAULT_TOLERANCES.eps_class
    SPECIALS = np.array([
        np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0,
        SCALE, -SCALE,
        np.nextafter(SCALE, 0.0), -np.nextafter(SCALE, 0.0),
        np.nextafter(SCALE, np.inf), -np.nextafter(SCALE, np.inf),
    ])

    def _singular_rows(self):
        # sigma = omega = 0 and J^0 = 1, so each row's class rests on K and S
        k_rows, s_rows = [], []
        for v in self.SPECIALS:
            for col in range(4):
                k = np.zeros(4)
                k[col] = v
                k_rows.append(k)
                s_rows.append(np.eye(6)[col])
            for col in range(6):
                s = np.zeros(6)
                s[col] = v
                k_rows.append(np.eye(4)[col % 4])
                s_rows.append(s)
                k_rows.append(np.zeros(4))
                s_rows.append(s)
        return np.array(k_rows), np.array(s_rows)

    def _check(self, sigma, omega, j, k, s):
        got = np.array([lounesto_class(BilinearSet(*row)).index or 0
                         for row in zip(sigma, omega, j, k, s)])
        np.testing.assert_array_equal(got, _reference_classes(sigma, omega, j, k, s))
        return got

    def test_special_values_in_every_column(self):
        k, s = self._singular_rows()
        n = len(k)
        j = np.zeros((n, 4))
        j[:, 0] = 1.0
        got = self._check(np.zeros(n), np.zeros(n), j, k, s)
        # every singular class and the unclassifiable pattern occur here
        assert set(got) == {0, 4, 5, 6}

    def test_random_mixtures_of_special_values(self, rng):
        n = 2000

        def pick(*shape):
            return rng.choice(self.SPECIALS, size=shape)

        j = pick(n, 4)
        j[:, 0] = rng.choice([1.0, 2.0, 1e-300, 1e300, np.nan, np.inf], size=n)
        sigma = np.where(rng.random(n) < 0.7, 0.0, pick(n))
        omega = np.where(rng.random(n) < 0.7, -0.0, pick(n))
        self._check(sigma, omega, j, pick(n, 4), pick(n, 6))

    def test_one_row(self):
        j = np.ones((1, 4))
        k = np.full((1, 4), np.nextafter(self.SCALE, np.inf))
        s = np.full((1, 6), -0.0)
        assert self._check(np.zeros(1), np.zeros(1), j, k, s).tolist() == [6]

    @pytest.mark.filterwarnings("error")
    def test_fpk_max_matches_the_row_reduction(self, rng):
        psis = random_raw_spinors(rng, 5000)
        psis[1234, 2] = complex(np.nan, 0.0)
        for rows in (psis[:1234], psis):
            bils = kernels.bilinears(kernels.columns(rows))
            want = np.max(np.stack(fpk_columns(*bils), axis=1), axis=0)
            got = analyze(rows).fpk_max
            assert got.shape == (3,)
            assert got.tobytes() == want.tobytes()
        assert np.isnan(analyze(psis).fpk_max).all()


def test_rows_without_bilinears_get_class_0(rng):
    # a row holding NaN or inf, or scaled until psi^dag psi overflows, has no
    # finite, positive J^0: the N=1 path refuses it with ScaleError, and the
    # block path gives it class 0, category non-eigen and C state neither,
    # without a RuntimeWarning, and leaves the other rows' verdicts alone
    good = random_raw_spinors(rng, 6)
    bad = np.array([[np.nan, 1, 1j, 0], [np.inf, 0, 0, 0], [0, 0, 1j, -np.inf],
                    [np.nan, np.nan, np.nan, np.nan], [np.inf, 1, np.nan, 0]])
    bad = np.concatenate([bad, good[:3] * 1e160])
    for row in bad:
        with pytest.raises(ScaleError):
            bilinear_set(BiSpinor(*row))
    order = rng.permutation(14)
    psis, is_bad = np.concatenate([good, bad])[order], order >= len(good)
    n = unit_vectors(*sampling.random_directions(rng, 14))
    want = analyze(psis[~is_bad], tuple(c[~is_bad] for c in n))
    for rows, dirs in ((psis, n), (bad, None), (bad[:1], None)):
        res = analyze(rows, dirs)
        flags = is_bad if rows is psis else np.ones(len(rows), dtype=bool)
        assert (res.classes[flags] == 0).all()
        assert (res.c_states[flags] == 2).all()
        if dirs is not None:
            assert (res.categories[flags] == CAT_NON_EIGEN).all()
            assert res.classes[~flags].tobytes() == want.classes.tobytes()
            assert res.categories[~flags].tobytes() == want.categories.tobytes()
            assert res.c_states[~flags].tobytes() == want.c_states.tobytes()


@pytest.fixture(scope="module")
def edited_pool():
    """Rows of all six classes and their unit vectors: SAMPLE_BLOCK_ROWS
    rows of each steered single-helicity subclass, raw rows (with random
    directions) and each singular family, some edited to hold NaN, -0.0,
    +0.0 or 5e-324 in one component, some scaled by 1e75 or 1e-75.  Rows
    edited in each way come first, one of each kind in turn, then the rest
    shuffled."""
    rng = np.random.default_rng(17)
    rows = SAMPLE_BLOCK_ROWS
    parts = []
    for steer in (1, 2, 3):
        params = sampling.single_helicity_params(rng, rows, steer=steer)
        parts.append(sampling.single_helicity_batch(**params))
    theta, phi = sampling.random_directions(rng, rows)
    parts.append((kernels.columns(random_raw_spinors(rng, rows)), unit_vectors(theta, phi)))
    for family in ("dual_helicity", "self_conjugate", "weyl"):
        params = sampling.FAMILY_PARAMS[family](rng, rows)
        parts.append(sampling.FAMILY_CONSTRUCTORS[family](**params))
    psis = np.concatenate([kernels.components(part[0]) for part in parts])
    n = np.concatenate([np.stack(part[1], axis=1) for part in parts])
    x = psis.view(np.float64)
    edited = rng.permutation(len(psis))[:2400].reshape(6, 400)
    cols = rng.integers(0, 8, 400)
    for idx, value in zip(edited[:4], (np.nan, -0.0, 0.0, 5e-324)):
        x[idx, cols] = value
    x[edited[4]] *= 1e75
    x[edited[5]] *= 1e-75
    # a Weyl row's zero block holding -0.0 and 5e-324 stays singular
    weyl = np.setdiff1d(np.arange(6 * rows, 7 * rows), edited)[:400]
    null_block = np.where(psis[weyl, 0] == 0.0, 0, 4)
    x[weyl, null_block] = -0.0
    x[weyl, null_block + 3] = 5e-324
    first = np.vstack([edited, weyl]).T.ravel()
    rest = rng.permutation(np.setdiff1d(np.arange(len(psis)), first))
    order = np.concatenate([first, rest])
    return psis[order], n[order]


def _block(pool, kind, size):
    """The first ``size`` rows of the pool whose reference class is regular,
    singular (0 or 4-6), or either ("mixed")."""
    psis, n = pool
    cols = kernels.columns(psis)
    sigma, omega, j, k = kernels.bilinears(cols)
    s = kernels.tensor(cols)
    classes = _reference_classes(sigma, omega, *(np.stack(c, axis=1) for c in (j, k, s)))
    if kind == "regular":
        keep = (classes >= 1) & (classes <= 3)
    elif kind == "singular":
        keep = (classes == 0) | (classes >= 4)
    else:
        keep = np.ones(len(psis), dtype=bool)
    psis, n = psis[keep][:size], n[keep][:size]
    return psis, tuple(n.T)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("size", [1, 7, SAMPLE_BLOCK_ROWS])
@pytest.mark.parametrize("kind", ["regular", "singular", "mixed"])
def test_block_verdicts_equal_the_full_bilinear_composition(edited_pool, kind, size):
    # the block path against every bilinear of every row: classes,
    # categories, fpk maxima and C states, bit for bit
    psis, n = _block(edited_pool, kind, size)
    res = analyze(psis, n, DEFAULT_TOLERANCES)

    cols = kernels.columns(psis)
    sigma, omega, j, k = kernels.bilinears(cols)
    s = kernels.tensor(cols)
    want_classes = _reference_classes(
        sigma, omega, *(np.stack(c, axis=1) for c in (j, k, s)))
    want_fpk = np.max(np.stack(fpk_columns(sigma, omega, j, k), axis=1), axis=0)
    rstate, lstate, _, _ = helicity_profiles(cols, n)
    # psi^dag psi summed as the N=1 check sums it, not as J^0
    x = psis.view(np.float64)
    want_c = eigen_states(*c_eigen_residuals(cols, np.einsum("ij,ij->i", x, x)))

    assert res.classes.tobytes() == want_classes.tobytes()
    assert res.categories.tobytes() == helicity_categories(rstate, lstate).tobytes()
    assert res.fpk_max.tobytes() == want_fpk.tobytes()
    assert res.c_states.tobytes() == want_c.tobytes()
    singular = np.isin(want_classes, (0, 4, 5, 6))
    if kind == "regular":
        assert not singular.any()
    elif kind == "singular":
        assert singular.all()
    elif size > 1:
        assert 0 < singular.sum() < size
    if size < SAMPLE_BLOCK_ROWS:
        # the kernels are elementwise, so one row's bilinears have the
        # block's bits and the N=1 path gives the block's class; it refuses
        # a row holding NaN, whose psi^dag psi is NaN
        for row, want in zip(psis, res.classes):
            if np.isnan(row).any():
                with pytest.raises(ScaleError):
                    bilinear_set(BiSpinor(*row))
            else:
                assert (lounesto_class(bilinear_set(BiSpinor(*row))).index or 0) == want


@settings(max_examples=50, deadline=None)
@given(k=st.integers(-60, 60), seed=st.integers(0, 2**32 - 1))
def test_verdicts_do_not_depend_on_scale(k, seed):
    # the bilinears are homogeneous of degree two and the helicity and C
    # residuals of degree zero, so psi -> 2^k psi moves no verdict; the
    # scaling is exact, sign of zero included
    rng = np.random.default_rng(seed)
    rows = 64
    theta, phi = sampling.random_directions(rng, rows)
    blocks = [(random_raw_spinors(rng, rows), unit_vectors(theta, phi))]
    blocks += [oracles.family_draw(family, rng, rows)[:2]
               for family in sampling.FAMILY_PARAMS]
    for psis, n in blocks:
        scaled = np.ldexp(psis.view(np.float64), k).view(complex)
        want, got = analyze(psis, n), analyze(scaled, n)
        for name in ("classes", "categories", "c_states"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        nx, ny, nz = n
        directions = np.stack([np.arctan2(np.hypot(nx, ny), nz), np.arctan2(ny, nx)], axis=1)
        for row, big, direction in list(zip(psis, scaled, directions.tolist()))[:2]:
            want, got = (classify_report(BiSpinor.from_array(x), tuple(direction))
                         for x in (row, big))
            assert got.lounesto == want.lounesto
            assert got.helicity.category == want.helicity.category
