"""Lounesto class decision tree and helicity profiling."""
import math

import numpy as np
import pytest

import oracles
from conftest import random_bispinor
from spinorlab import (
    BiSpinor,
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
from spinorlab.algebra import unit_vectors
from spinorlab.bilinears import BilinearSet, fpk_columns
from spinorlab.classify import (
    CATEGORY_DUAL,
    CATEGORY_NAMES,
    CATEGORY_NON_EIGEN,
    CATEGORY_NOT_WELL_DEFINED,
    CATEGORY_SINGLE,
    CLASS_CATEGORIES,
    analyze,
    helicity_categories,
    helicity_profiles,
    lounesto_classes,
)
from spinorlab.sampling import SAMPLE_BLOCK_ROWS, random_raw_spinors
from spinorlab.symmetries import c_eigen_residuals, eigen_states
from spinorlab.tolerances import DEFAULT_TOLERANCES


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
    return out


class TestColumnPasses:
    """The K and S zero tests and the fpk maxima run as passes over the
    columns; they must agree bit for bit with numpy's row reductions."""

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
        got = lounesto_classes(sigma, omega, j.T, k.T, lambda rows: s.T[:, rows])
        assert got.dtype == np.int8
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

    @pytest.mark.parametrize("n", [0, 1])
    def test_zero_and_one_row(self, n):
        j = np.ones((n, 4))
        k = np.full((n, 4), np.nextafter(self.SCALE, np.inf))
        s = np.full((n, 6), -0.0)
        assert self._check(np.zeros(n), np.zeros(n), j, k, s).shape == (n,)

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
    parts.append((random_raw_spinors(rng, rows), unit_vectors(theta, phi)))
    for family in ("dual_helicity", "self_conjugate", "weyl"):
        params = sampling.FAMILY_PARAMS[family](rng, rows)
        parts.append(sampling.FAMILY_CONSTRUCTORS[family](**params))
    psis = np.concatenate([part[0] for part in parts])
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
    want_classes = lounesto_classes(sigma, omega, j, k,
                                    lambda rows: [c[rows] for c in s])
    np.testing.assert_array_equal(
        want_classes,
        _reference_classes(sigma, omega, *(np.stack(c, axis=1) for c in (j, k, s))))
    want_fpk = np.max(np.stack(fpk_columns(sigma, omega, j, k), axis=1), axis=0)
    rstate, lstate, _, _ = helicity_profiles(cols, n)
    want_c = eigen_states(*c_eigen_residuals(psis))

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
