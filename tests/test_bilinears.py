"""Bilinear covariants and the scalar constraint identities."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_bispinor
from spinorlab import (
    BiSpinor,
    ZeroSpinorError,
    bilinear_set,
    fpk_residuals,
    kernels,
    sampling,
)


class TestDiracAdjoint:
    def test_swaps_blocks(self):
        np.testing.assert_array_equal(
            oracles.dirac_adjoint(BiSpinor(1, 0, 0, 0).array), [0, 0, 1, 0]
        )

    def test_adjoint_sandwich_is_real(self, rng):
        for _ in range(1000):
            psi = random_bispinor(rng)
            value = oracles.dirac_adjoint(psi.array) @ psi.array
            assert abs(value.imag) < 1e-14

    def test_gamma0_sandwich_equals_plain_norm(self, rng):
        psi = random_bispinor(rng)
        lhs = oracles.dirac_adjoint(psi.array) @ oracles.GAMMA0 @ psi.array
        assert abs(lhs - psi.norm_sq) < 1e-14


# pinned via the sandwich oracle; S ordering (01, 02, 03, 12, 13, 23)
PINNED = [
    (BiSpinor(1, 0, 1, 0),
     dict(sigma=2.0, omega=0.0, j=[2, 0, 0, 0], k=[0, 0, 0, 2],
          s=[0, 0, 0, 2, 0, 0])),
    (BiSpinor(-1j, 0, 0, 1),
     dict(sigma=0.0, omega=0.0, j=[2, 0, 0, 2], k=[0, 0, 0, 0],
          s=[2, 0, 0, 0, -2, 0])),
    (BiSpinor(1, 0, 0, 0),
     dict(sigma=0.0, omega=0.0, j=[1, 0, 0, 1], k=[1, 0, 0, 1],
          s=[0, 0, 0, 0, 0, 0])),
]


class TestBilinearSet:
    @pytest.mark.parametrize("psi,want", PINNED)
    def test_pinned_values(self, psi, want):
        bs = bilinear_set(psi)
        assert bs.sigma == want["sigma"]
        assert bs.omega == want["omega"]
        np.testing.assert_array_equal(bs.j, want["j"])
        np.testing.assert_array_equal(bs.k, want["k"])
        np.testing.assert_array_equal(bs.s, want["s"])

    @pytest.mark.parametrize("psi,want", PINNED)
    def test_pinned_values_against_oracle(self, psi, want):
        ref = oracles.sandwich_bilinears(psi.array)
        assert abs(ref["sigma"].real - want["sigma"]) < 1e-15
        np.testing.assert_allclose(ref["k"].real, want["k"], atol=1e-15)
        np.testing.assert_allclose(ref["s"].real, want["s"], atol=1e-15)

    def test_matches_sandwich_oracle_on_random_spinors(self, rng):
        for _ in range(500):
            psi = random_bispinor(rng)
            bs = bilinear_set(psi)
            ref = oracles.sandwich_bilinears(psi.array)
            scale = psi.norm_sq
            assert abs(bs.sigma - ref["sigma"].real) < 1e-13 * scale
            assert abs(bs.omega - ref["omega"].real) < 1e-13 * scale
            np.testing.assert_allclose(bs.j, ref["j"].real, atol=1e-13 * scale)
            np.testing.assert_allclose(bs.k, ref["k"].real, atol=1e-13 * scale)
            np.testing.assert_allclose(bs.s, ref["s"].real, atol=1e-13 * scale)
            # the sandwiches themselves must be real
            assert abs(ref["sigma"].imag) < 1e-13 * scale
            assert np.max(np.abs(ref["j"].imag)) < 1e-13 * scale

    def test_current_time_component_positive(self, rng):
        for _ in range(200):
            psi = random_bispinor(rng)
            bs = bilinear_set(psi)
            assert bs.j[0] > 0
            assert bs.j[0] == pytest.approx(psi.norm_sq, rel=1e-15)

    def test_homogeneous_degree_two(self, rng):
        psi = random_bispinor(rng)
        lam = 1.7 - 0.9j
        scaled = BiSpinor(*(lam * psi.array))
        bs, bss = bilinear_set(psi), bilinear_set(scaled)
        factor = abs(lam) ** 2
        assert bss.sigma == pytest.approx(factor * bs.sigma, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(bss.j, factor * bs.j, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(bss.s, factor * bs.s, rtol=1e-12, atol=1e-12)

    @given(st.floats(0, 2 * np.pi))
    @settings(max_examples=30, deadline=None)
    def test_phase_invariance(self, alpha):
        psi = BiSpinor(0.3 + 0.4j, -0.2, 0.9j, 1.1 - 0.5j)
        rotated = BiSpinor(*(np.exp(1j * alpha) * psi.array))
        bs, bsr = bilinear_set(psi), bilinear_set(rotated)
        assert bsr.sigma == pytest.approx(bs.sigma, abs=1e-12)
        assert bsr.omega == pytest.approx(bs.omega, abs=1e-12)
        np.testing.assert_allclose(bsr.k, bs.k, atol=1e-12)

    def test_zero_spinor_rejected(self):
        with pytest.raises(ZeroSpinorError):
            bilinear_set(BiSpinor(0, 0, 0, 0))

    def test_gamma_route_agrees_with_closed_form(self, rng):
        for _ in range(100):
            psi = random_bispinor(rng)
            fast = bilinear_set(psi)
            slow = oracles.sandwich_bilinears(psi.array)
            scale = psi.norm_sq
            for name in ("sigma", "omega", "j", "k", "s"):
                # every sandwich is real up to rounding
                assert np.max(np.abs(np.imag(slow[name]))) <= 1e-12 * scale
                np.testing.assert_allclose(getattr(fast, name), np.real(slow[name]),
                                           rtol=0, atol=1e-13 * scale)


class TestFpkResiduals:
    def test_small_for_any_spinor(self, rng):
        worst = 0.0
        for _ in range(2000):
            res = fpk_residuals(bilinear_set(random_bispinor(rng)))
            worst = max(worst, float(np.max(res)))
        assert worst < 1e-10

    def test_pinned_regular_example(self):
        bs = bilinear_set(BiSpinor(1, 0, 1, 0))
        # J.J = 4 = sigma^2 + omega^2
        jj = bs.j[0] ** 2 - bs.j[1] ** 2 - bs.j[2] ** 2 - bs.j[3] ** 2
        assert jj == 4.0
        assert np.max(fpk_residuals(bs)) == 0.0

    def test_scale_free_near_zero_norm(self):
        tiny = 1e-8
        psi = BiSpinor(tiny * (1 + 1j), tiny * 0.3, tiny * (-0.7j), tiny)
        assert np.max(fpk_residuals(bilinear_set(psi))) < 1e-10

    def test_constructor_families_satisfy_identities(self, rng):
        from spinorlab import build_dual_helicity, build_self_conjugate

        for _ in range(100):
            t = float(np.arccos(rng.uniform(-0.99, 0.99)))
            f = float(rng.uniform(0, 2 * np.pi))
            psi = build_dual_helicity("+-", 1.2 - 0.3j, 0.4 + 1j, t, f)
            assert np.max(fpk_residuals(bilinear_set(psi))) < 1e-12
            psi = build_self_conjugate(-1, complex(*rng.normal(size=2)), 1.0)
            assert np.max(fpk_residuals(bilinear_set(psi))) < 1e-12


# Exact reference for kernels.bilinears and kernels.tensor: every bilinear
# as a gamma-matrix sandwich of the row's components in rational arithmetic.
# A float64 is a dyadic rational, so Fraction(x) holds it exactly; the
# literals of oracles have Gaussian-integer entries, and so do their
# products, which numpy forms exactly.
_U = Fraction(1, 2**53)  # unit roundoff of float64

# Each output of the two kernels is +-2 or +-1 times a signed sum of
# products of two components in which no component appears twice, summed
# in a tree; the factor 2 is exact.  A term passes through at most four
# roundings: its product and three additions (J^0, K^0, J^3, K^3; the
# others take two).  So |fl - exact| <= gamma_4 * sum |x y| (Higham,
# "Accuracy and Stability of Numerical Algorithms", 2nd ed., Lemma 3.1 and
# section 3.1), and |x y| <= (x^2 + y^2) / 2 bounds that sum, factor 2
# included, by j0 = sum x^2: c = gamma_4 / eps, about 2.  This holds while
# no product under- or overflows, as at the drawn scales.
_BOUND = 4 * _U / (1 - 4 * _U)  # Higham's gamma_k = k u / (1 - k u), k = 4

# (prefactor, gamma0 M) of sigma, omega, J^0..3, K^0..3, S^{01..23}: the
# bilinear is prefactor * conj(psi) . (gamma0 M) psi
_SANDWICHES = (
    [(1, oracles.GAMMA0), (1j, oracles.GAMMA0 @ oracles.GAMMA5)]
    + [(1, oracles.GAMMA0 @ g) for g in oracles.GAMMAS]
    + [(1, oracles.GAMMA0 @ g @ oracles.GAMMA5) for g in oracles.GAMMAS]
    + [(1j, oracles.GAMMA0 @ oracles.GAMMAS[m] @ oracles.GAMMAS[n])
       for m, n in oracles._S_PAIRS])


def _cmul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _exact_bilinears(row):
    """(j0, [sigma, omega, J, K, S]) of one row, all exact Fractions."""
    psi = [(Fraction(z.real), Fraction(z.imag)) for z in row]
    j0 = sum(re * re + im * im for re, im in psi)
    out = []
    for pre, mat in _SANDWICHES:
        re = im = Fraction(0)
        for i, j in zip(*np.nonzero(mat)):
            g = (int(mat[i, j].real), int(mat[i, j].imag))
            term = _cmul(_cmul((psi[i][0], -psi[i][1]), g), psi[j])
            re, im = re + term[0], im + term[1]
        re, im = _cmul((int(pre.real), int(pre.imag)), (re, im))
        assert im == 0  # every bilinear is real
        out.append(re)
    return j0, out


@pytest.mark.parametrize("family", ["random_raw", *sampling.FAMILY_PARAMS])
def test_kernels_within_a_rounding_bound_of_the_exact_bilinears(family):
    rows = 300
    rng = sampling.rng_for(11)
    if family == "random_raw":
        arr = sampling.random_raw_spinors(rng, rows)
    else:
        arr = oracles.family_draw(family, rng, rows)[0]
    cols = kernels.columns(arr)
    sigma, omega, j, k = kernels.bilinears(cols)
    got = np.stack([sigma, omega, *j, *k, *kernels.tensor(cols)], axis=1)
    for row, values in zip(arr, got):
        j0, exact = _exact_bilinears(row)
        for value, want in zip(values.tolist(), exact):
            assert abs(Fraction(value) - want) <= _BOUND * j0, (family, value, float(want))
