"""Charge conjugation, parity, Dirac-operator and theta-link diagnostics."""
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
    FourMomentum,
    MasslessError,
    ProvenanceError,
    ZeroSpinorError,
    boost_bispinor,
    build_dual_helicity,
    build_parity_linked,
    build_self_conjugate,
    build_single_helicity,
    c_eigen_check,
    charge_conjugate,
    dirac_flip_residual,
    dirac_matrix,
    dirac_residual,
    parity_apply,
    parity_eigen_check,
    rest_spinor,
    symmetry_report,
    theta_link_check,
)
from spinorlab import kernels, sampling
from spinorlab.algebra import boost_block_batch, momentum_frame, theta_conjugate
from spinorlab.factory import (
    boost_bispinor_batch,
    dual_helicity_batch,
    parity_linked_batch,
    singular_form_batch,
)
from spinorlab.report import symmetry_to_dict
from spinorlab.sampling import random_raw_spinors
from spinorlab.symmetries import (
    _pow2_scaled,
    c_eigen_residuals,
    c_involution_max,
    charge_conjugate_batch,
    dirac_flip_residuals,
    dirac_matrix_batch,
    dirac_residuals,
    eigen_states,
    parity_batch,
    theta_link_residuals,
)
from spinorlab.tolerances import EXACT


class TestChargeConjugation:
    def test_involution_exact(self, rng):
        for _ in range(1000):
            psi = random_bispinor(rng)
            twice = charge_conjugate(charge_conjugate(psi))
            assert np.array_equal(twice.array, psi.array)
        # the batch form bit for bit: signs of zeros, subnormals and entries
        # near the float64 maximum included
        specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308])
        psis = np.concatenate([rng.choice(specials, size=(3000, 8)).view(complex),
                               random_raw_spinors(rng, 64)])
        twice = charge_conjugate_batch(charge_conjugate_batch(psis))
        np.testing.assert_array_equal(twice.view(np.uint64), psis.view(np.uint64))

    def test_self_conjugate_fixture(self):
        psi = BiSpinor(-1j, 0, 0, 1)
        np.testing.assert_array_equal(charge_conjugate(psi).array, psi.array)
        check = c_eigen_check(psi)
        assert check.eigenvalue == 1
        assert check.residual == 0.0

    def test_dirac_type_spinor_not_proportional_to_image(self):
        psi = BiSpinor(1, 0, 1, 0)
        image = charge_conjugate(psi).array
        overlap = abs(np.vdot(psi.array, image))
        assert overlap < 1e-14 * psi.norm_sq  # orthogonal, let alone proportional
        assert c_eigen_check(psi).eigenvalue is None

    @pytest.mark.parametrize("sign", [1, -1])
    def test_constructed_eigenspinors(self, sign, rng):
        for _ in range(200):
            c = complex(*rng.normal(size=2))
            d = complex(*rng.normal(size=2))
            if abs(c) + abs(d) < 1e-3:
                continue
            psi = build_self_conjugate(sign, c, d)
            check = c_eigen_check(psi)
            assert check.eigenvalue == sign
            assert check.residual < 1e-14

    def test_single_helicity_never_conjugate(self, rng):
        for _ in range(300):
            t = math.acos(rng.uniform(-0.99, 0.99))
            f = rng.uniform(0, 2 * math.pi)
            psi = build_single_helicity(
                "++", complex(*rng.normal(size=2)) + 0.2, complex(*rng.normal(size=2)) + 0.2, t, f
            )
            check = c_eigen_check(psi)
            assert check.eigenvalue is None
            assert check.residual > 0.5  # far from any eigenspinor

    def test_norm_condition_fixture_flagged(self):
        # phases follow the +1 eigenspinor pattern but |a| != |d|
        psi = BiSpinor(-2j, 1j, 1.0, 1.0)
        check = c_eigen_check(psi)
        assert check.eigenvalue is None
        violated = check.violated()
        assert "norm_ad" in violated
        assert "norm_bc" not in violated
        assert "phase_ad_plus" not in violated
        assert "phase_bc_plus" not in violated

    def test_flag_dipole_violates_norm_condition(self):
        psi = build_dual_helicity("+-", 1.0, 2.0, math.pi / 2, 0.0)
        check = c_eigen_check(psi)
        assert check.eigenvalue is None
        assert "norm_ad" in check.violated()

    def test_fused_eigen_residuals_match_the_norm_form(self, rng):
        raw = random_raw_spinors(rng, 4096)
        conj, *_, params = oracles.family_draw("self_conjugate", rng, 4096)
        rows = np.concatenate([raw, conj])
        cols = kernels.columns(rows)
        res_plus, res_minus = c_eigen_residuals(cols, kernels.bilinears(cols)[2][0])

        image = charge_conjugate_batch(rows)
        nrm = np.linalg.norm(rows, axis=1)
        want_plus = np.linalg.norm(image - rows, axis=1) / nrm
        want_minus = np.linalg.norm(image + rows, axis=1) / nrm
        # both sides round a four-term sum, a square root and a division, in
        # different orders
        np.testing.assert_array_max_ulp(res_plus, want_plus, maxulp=8)
        np.testing.assert_array_max_ulp(res_minus, want_minus, maxulp=8)

        sign = params["sign"]
        assert {1, -1} <= set(sign)
        assert np.all(res_plus[len(raw):][sign == 1] == 0.0)
        assert np.all(res_minus[len(raw):][sign == -1] == 0.0)
        exact = EXACT
        for got, want in ((res_plus, want_plus), (res_minus, want_minus)):
            assert np.count_nonzero(got <= exact) == np.count_nonzero(want <= exact)
        assert np.count_nonzero(res_plus <= exact) == np.count_nonzero(sign == 1)

    def test_residual_kernel_within_a_rounding_bound_of_the_exact_ratio(self):
        # Each branch of kernels.c_eigen_residuals squares four rounded sums
        # x +- y (two roundings a term), adds the squares in three more
        # (nonnegative terms, so at most five roundings a term in all),
        # doubles exactly and divides by J^0 of kernels.bilinears, itself a
        # sum of eight squares with four roundings a term, before a rounded
        # square root.  So res^2 / Q lies in [(1-u)^8 / (1+u)^4,
        # (1+u)^8 / (1-u)^4] for the exact ratio Q = ||C psi -+ psi||^2 /
        # psi^dag psi, while nothing under- or overflows, and res = 0 exactly
        # when Q = 0 (Higham, "Accuracy and Stability of Numerical
        # Algorithms", 2nd ed., Lemma 3.1).
        lo, hi = (1 - _U) ** 8 / (1 + _U) ** 4, (1 + _U) ** 8 / (1 - _U) ** 4
        rng = sampling.rng_for(41)
        raw = kernels.columns(random_raw_spinors(rng, 400))
        ar, ai, br, bi = (c[:200] for c in raw[:4])
        # exact eigenspinors, (a, b, +-i conj(b), -+i conj(a)), of each sign
        plus = (ar, ai, br, bi, bi, br, -ai, -ar)
        minus = (ar, ai, br, bi, -bi, -br, ai, ar)
        # and the same rows a little off, where x +- y cancels
        nudge = [c.copy() for c in plus]
        nudge[7] += rng.uniform(-1e-9, 1e-9, 200)
        cols = tuple(np.concatenate(parts) for parts in zip(raw, plus, minus, nudge))
        res_plus, res_minus = kernels.c_eigen_residuals(cols, kernels.bilinears(cols)[2][0])
        assert np.all(res_plus[400:600] == 0.0) and np.all(res_minus[600:800] == 0.0)
        assert res_minus[400:600].min() > 0.0 and res_plus[600:800].min() > 0.0
        for i in range(len(cols[0])):
            a, b, c, d = ((Fraction(float(cols[2 * j][i])), Fraction(float(cols[2 * j + 1][i])))
                          for j in range(4))
            norm_sq = sum(x * x + y * y for x, y in (a, b, c, d))
            # C psi = (-i conj(d), i conj(c), i conj(b), -i conj(a))
            image = ((-d[1], -d[0]), (c[1], c[0]), (b[1], b[0]), (-a[1], -a[0]))
            for sign, got in ((1, res_plus[i]), (-1, res_minus[i])):
                ratio = sum((x - sign * p) ** 2 + (y - sign * q) ** 2
                            for (x, y), (p, q) in zip(image, (a, b, c, d))) / norm_sq
                value = Fraction(float(got)) ** 2
                assert ratio * lo <= value <= ratio * hi, (i, sign)

    @pytest.mark.parametrize("rows, expected", [
        ([[-0.0, 5e-324, complex(0.0, -5e-324), complex(-0.0, -0.0)]], 0.0),
        ([[complex(0.5, -0.0), complex(-0.0, 5e-324), 2.0, -1j]], 0.0),
        ([[math.nan, 0, 0, 0]], math.nan),
        ([[complex(0.25, math.nan), 0, 0, -0.0], [1, 0, 0, 0]], math.nan),
        ([[math.inf, 1, 1, 1]], math.nan),
        ([[1, complex(0.0, -math.inf), 0, 5e-324]], math.nan),
    ])
    def test_involution_max_is_the_elementwise_form(self, rows, expected, rng):
        psis = np.concatenate([np.array(rows, dtype=complex), random_raw_spinors(rng, 64)])
        with np.errstate(invalid="ignore"):  # inf - inf in both forms
            want = np.max(np.abs(charge_conjugate_batch(charge_conjugate_batch(psis)) - psis))
            got = c_involution_max(psis)
        assert type(got) is float
        np.testing.assert_equal(got, want)
        np.testing.assert_equal(got, expected)


_EXACT = EXACT


@pytest.mark.parametrize("res_plus, res_minus, state", [
    (0.0, 0.0, 0),                                  # a tie goes to +1
    (_EXACT, 0.5, 0),
    (0.5, _EXACT, 1),
    (np.nextafter(_EXACT, 1.0), 0.5, 2),
    (np.nextafter(_EXACT, 1.0), _EXACT, 1),
    (math.nan, 0.0, 1),
    (math.nan, math.nan, 2),
    (0.5, math.nan, 2),
])
def test_eigen_states(res_plus, res_minus, state):
    assert eigen_states(res_plus, res_minus) == state
    got = eigen_states(np.array([res_plus]), np.array([res_minus]))
    np.testing.assert_array_equal(got, [state])


# eight real parts on a 2**-20 grid in [-1, 1]: 2**k psi is exact for every
# |k| <= 1000, subnormal or not
_GRID_PARTS = st.lists(st.integers(-2**20, 2**20), min_size=8, max_size=8).filter(any)


class TestCEigenScale:
    @given(_GRID_PARTS, st.integers(-1000, 1000))
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scaling_leaves_the_check_unchanged(self, parts, k):
        vals = [math.ldexp(p, -20) for p in parts]
        psi = BiSpinor(*(complex(re, im) for re, im in zip(vals[0::2], vals[1::2])))
        scaled = BiSpinor(*(complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
                            for z in psi.array))
        want = c_eigen_check(psi)
        got = c_eigen_check(scaled)
        assert (got.eigenvalue, got.residual_plus, got.residual_minus) == (
            want.eigenvalue, want.residual_plus, want.residual_minus)
        assert got.constraints == want.constraints

    @pytest.mark.parametrize("s", [1e-160, 1e200])
    def test_extreme_magnitudes_match_the_unit_scale(self, s):
        # tiny components once lost digits to subnormal squares, and large
        # ones overflowed into a ScaleError
        unit = c_eigen_check(BiSpinor(1.0, 0.5, 0.25, 1j))
        far = c_eigen_check(BiSpinor(s, 0.5 * s, 0.25 * s, 1j * s))
        assert far.residual_plus == pytest.approx(unit.residual_plus, rel=1e-15)
        assert far.residual_minus == pytest.approx(unit.residual_minus, rel=1e-15)

    def test_zero_spinor_rejected(self):
        with pytest.raises(ZeroSpinorError):
            c_eigen_check(BiSpinor(0, 0, 0, 0))


def _reference_pow2_scaled(x, dtype=complex):
    # the row scaling with the maximum as a numpy row reduction
    flat = np.ascontiguousarray(x, dtype=dtype).view(np.float64)
    exp = np.frexp(np.max(np.abs(flat), axis=-1, keepdims=True))[1]
    return np.ldexp(flat, -exp).view(dtype)


class TestPow2Scaling:
    SPECIALS = np.array([0.0, -0.0, 1.0, -3.0, 5e-324, -1e-310, 2.2e-308,
                         1e300, -1.7e308, np.inf, -np.inf, np.nan])

    def _same(self, got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_complex_rows(self, rng):
        parts = rng.choice(self.SPECIALS, size=(3000, 8))
        parts *= np.where(rng.random((3000, 8)) < 0.5, 1.0,
                          rng.uniform(0.5, 1.0, size=(3000, 8)))
        # each column in turn holds the only nonzero part of a row
        parts = np.concatenate([parts, np.diag(np.linspace(0.1, 0.8, 8))])
        psis = parts.view(complex)
        with np.errstate(invalid="ignore"):
            self._same(_pow2_scaled(psis), _reference_pow2_scaled(psis))

    def test_real_rows(self, rng):
        # a momentum frame's (m, pmag): one power of two per row
        mp = np.abs(rng.choice(self.SPECIALS, size=(3000, 2)))
        mp = np.concatenate([mp, [[0.0, 3.0], [3.0, 0.0], [1e-300, 1e300]]])
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan rows
            frame = momentum_frame(mp[:, 0], mp[:, 1], 0.0, 0.0)
        got = np.stack([frame.m, frame.pmag], axis=-1)
        self._same(got, _reference_pow2_scaled(mp, float))

    @pytest.mark.parametrize("m,pmag", [(1.0, 2.0), (1e-300, 1e300), (3.0, 0.0),
                                        (0.0, 5e-324)])
    def test_scalar_mass(self, m, pmag):
        want = _reference_pow2_scaled(np.stack([m, pmag], axis=-1), float)
        got_m, got_p, *_ = momentum_frame(m, pmag, 0.0, 0.0)
        self._same(np.asarray(got_m), want[..., 0])
        self._same(np.asarray(got_p), want[..., 1])


class TestParity:
    def test_rest_dirac_spinor_has_eigenvalue_plus_one(self):
        p = FourMomentum(1.0, 0.0, 0.7, 0.2)
        psi = build_parity_linked(1, p)
        out = parity_apply(psi, p)
        np.testing.assert_array_equal(out.array, psi.array)
        assert parity_eigen_check(psi, p) == (1, 0.0)

    def test_boosted_dirac_spinor_still_eigenstate(self):
        p = FourMomentum(1.0, 5.0, 1.1, 0.4)
        psi = build_parity_linked(-1, p)
        eig, resid = parity_eigen_check(psi, p)
        assert eig == 1
        assert resid < 1e-12

    def test_boosted_right_block_maps_to_left_block(self):
        # applying the reflected boost to the rest block swaps handedness
        rest = rest_spinor(1, 0.9, 1.3, 1.0)
        p = FourMomentum(1.0, 4.0, 0.9, 1.3)
        refl = FourMomentum(p.m, p.pmag, math.pi - p.theta, p.phi + math.pi)
        via_parity = oracles.boost_block("right", refl) @ rest
        np.testing.assert_allclose(
            via_parity, oracles.boost_block("left", p) @ rest, rtol=1e-12
        )

    def test_dual_helicity_not_parity_eigenspinor(self):
        p = FourMomentum(1.0, 2.0, 1.0, 0.5)
        psi = boost_bispinor(build_dual_helicity("+-", 1.0, 2.0, 1.0, 0.5), p)
        eig, resid = parity_eigen_check(psi, p)
        assert eig is None
        assert resid > 0.9  # image is orthogonal to the input

    def test_single_helicity_rest_spinor_has_eigenvalue_minus_one(self):
        # gamma0 swaps the equal blocks (1, t) and (-1, -t)
        psi = build_single_helicity("++", 1, -1, 0.7, 0.2)
        assert parity_eigen_check(psi) == (-1, 0.0)

    @pytest.mark.parametrize("k", [-1000, -520, 520, 1000])
    def test_residual_is_scale_free(self, k):
        # psi and its image are scaled by one power of two, so the residual
        # keeps its bits where psi^dag psi under- or overflows float64
        p = FourMomentum(1.0, 2.0, 0.5, 0.3)

        def built(scale):
            a, c = math.ldexp(0.3, scale), complex(0.0, math.ldexp(0.8, scale))
            return (build_single_helicity("++", a, c, 0.5, 0.3),
                    boost_bispinor(build_dual_helicity("+-", a, c, 0.5, 0.3), p))

        for psi, scaled, q in zip(built(0), built(k), (None, p)):
            assert parity_eigen_check(scaled, q) == parity_eigen_check(psi, q)

    def test_raw_spinor_rejected(self):
        with pytest.raises(ProvenanceError):
            parity_apply(BiSpinor(1, 0, 0, 0), FourMomentum(1.0, 0.0))

    def test_momentum_mismatch_rejected(self):
        p = FourMomentum(1.0, 2.0, 1.0, 0.5)
        psi = build_parity_linked(1, p)
        with pytest.raises(ProvenanceError):
            parity_apply(psi, FourMomentum(1.0, 3.0, 1.0, 0.5))

    @staticmethod
    def _reflection_route(psi):
        # gamma0 of the rest blocks, each boosted at the reflected momentum
        prov = psi.provenance
        p = prov.momentum
        refl = FourMomentum(p.m, p.pmag, math.pi - p.theta, p.phi + math.pi)
        right = oracles.boost_block("right", refl) @ np.asarray(prov.rest_right)
        left = oracles.boost_block("left", refl) @ np.asarray(prov.rest_left)
        return np.concatenate([left, right])

    @staticmethod
    def _boosted(family, rng):
        m = 10.0 ** rng.uniform(-1.0, 1.0)
        pmag = m * 10.0 ** rng.uniform(-3.0, 3.0)
        theta, phi = rng.uniform(0.05, math.pi - 0.05), rng.uniform(0.0, 2 * math.pi)
        a, c, d = (complex(*rng.uniform(-1.0, 1.0, size=2)) for _ in range(3))
        if family == "parity_linked":
            return build_parity_linked(int(rng.choice([1, -1])),
                                       FourMomentum(m, pmag, theta, phi))
        if family == "single_helicity":
            psi = build_single_helicity(str(rng.choice(["++", "--"])), a, c, theta, phi)
        elif family == "dual_helicity":
            psi = build_dual_helicity(str(rng.choice(["+-", "-+"])), a, c, theta, phi)
        else:
            psi = build_self_conjugate(int(rng.choice([1, -1])), c, d)
        return boost_bispinor(psi, FourMomentum(m, pmag, *psi.provenance.direction))

    @pytest.mark.parametrize("family", ["single_helicity", "dual_helicity",
                                        "self_conjugate", "parity_linked"])
    def test_matches_the_reflected_momentum_route(self, family, rng):
        # pmag/m log-uniform on [1e-3, 1e3]
        for _ in range(300):
            psi = self._boosted(family, rng)
            want = self._reflection_route(psi)
            got = parity_apply(psi, psi.provenance.momentum).array
            assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


def _dirac_image(psi, p):
    # gamma_mu p^mu psi through the compensated kernel, at the scale of p
    f = p.frame()
    image = kernels.dirac_apply_shift(psi.array[None, :], f, 0.0)[0]
    return np.ldexp(image.view(np.float64), f.exp[0]).view(complex)


# Exact reference for kernels.dirac_apply_shift.  Each real or imaginary
# part of an output component is a four-term dot product sum a_i b_i of
# matrix entries a_i (E +- pz, +-px, +-py, -shift) and components b_i.
# - Only the entries E +- pz are rounded before it.  The direct sum takes
#   one rounding, and (m^2 + px^2 + py^2)/(E -+ pz) at most five (three on
#   the positive terms of the numerator, the denominator's sum, the
#   quotient).  So each is its exact branch value a times (1 + theta_5),
#   |theta_5| <= gamma_5 (Higham, "Accuracy and Stability of Numerical
#   Algorithms", 2nd ed., Lemmas 3.1 and 3.3).
# - The compensated dot product of the rounded entries fl(a_i) is within
#   u |s| + gamma_4^2 sum |fl(a_i) b_i| of their exact dot product s (Ogita,
#   Rump and Oishi, "Accurate sum and dot product", SIAM J. Sci. Comput. 26,
#   2005, Dot2).
# With |fl(a)| <= (1 + gamma_5) |a| and |s| <= sum |fl(a_i) b_i|, the two
# give |out - exact| <= c u sum |a_i| |b_i|, with
# c u = (u + gamma_4^2)(1 + gamma_5) + gamma_5, about 6 u.  This holds while
# no product under- or overflows.
_U = Fraction(1, 2**53)


def _gamma(k):
    return k * _U / (1 - k * _U)


_DIRAC_BOUND = (_U + _gamma(4) ** 2) * (1 + _gamma(5)) + _gamma(5)


def _frac(z):
    return Fraction(z.real), Fraction(z.imag)


def _exact_dirac_matrix(e, m, px, py, pz):
    """gamma_mu p^mu from the oracles literals, in exact (re, im) pairs of
    the kernel's float inputs, each E +- pz entry the value of the branch
    that the kernel takes; and whether each entry is such an entry."""
    e, m, px, py, pz = (Fraction(float(x)) for x in (e, m, px, py, pz))
    mt2 = m * m + (px * px + py * py)
    mat, branch = [], []
    for k in range(4):
        for j in range(4):
            # E gamma0 - px gamma1 - py gamma2 - pz gamma3: Gaussian-integer
            # literals times the exact inputs
            coef = [(int(g[k, j].real), int(g[k, j].imag)) for g in oracles.GAMMAS]
            terms = list(zip(coef, (e, -px, -py, -pz)))
            entry = (sum(c[0] * q for c, q in terms), sum(c[1] * q for c, q in terms))
            branch.append(bool(coef[0][0] and coef[3][0]))
            if branch[-1]:  # E + sz pz
                sz = -coef[3][0]
                entry = (e + sz * pz if sz * pz >= 0 else mt2 / (e - sz * pz), Fraction(0))
            mat.append(entry)
    return mat, branch


def _dirac_parts(mat, row, shift):
    """(value, sum |a_i| |b_i|) of the eight real parts of mat psi - shift
    psi, exactly, for a 4x4 matrix of (re, im) pairs in row order."""
    psi = [_frac(z) for z in row]
    out = []
    for k in range(4):
        re = im = re_scale = im_scale = Fraction(0)
        for j in range(4):
            ar, ai = mat[4 * k + j]
            if j == k:
                ar = ar - shift
            br, bi = psi[j]
            re += ar * br - ai * bi
            im += ar * bi + ai * br
            re_scale += abs(ar) * abs(br) + abs(ai) * abs(bi)
            im_scale += abs(ar) * abs(bi) + abs(ai) * abs(br)
        out += [(re, re_scale), (im, im_scale)]
    return out


class TestDiracOperator:
    def test_kernel_within_a_rounding_bound_of_the_exact_product(self):
        rng = sampling.rng_for(29)
        rows = 300
        m, pmag, theta, phi = sampling.random_momenta(rng, rows, ratio=(1e-3, 1e6))
        pmag[:20] = 0.0  # at rest
        theta[20:40] = 0.0  # on the poles, where pz = +-pmag
        theta[40:60] = math.pi
        frame = momentum_frame(m, pmag, theta, phi)
        shift = frame.m * rng.choice([0.0, 1.0, -1.0], rows)
        psis = random_raw_spinors(rng, rows)
        e, m, px, py, pz = frame.e, frame.m, frame.px, frame.py, frame.pz
        assert (pz < 0).sum() > 50 and (pz > 0).sum() > 50
        got = kernels.dirac_apply_shift(psis, frame, shift)
        # the kernel's rounded entries: its images of the basis spinors,
        # exact since each has one nonzero product, at the frame's scale
        rounded = dirac_matrix_batch(frame._replace(exp=np.zeros(rows, dtype=int)))
        for i in range(rows):
            exact, branch = _exact_dirac_matrix(e[i], m[i], px[i], py[i], pz[i])
            entries = [_frac(z) for z in rounded[i].ravel()]
            for (ar, ai), (fr, fi), rounds in zip(exact, entries, branch):
                assert abs(fr - ar) <= (_gamma(5) * abs(ar) if rounds else 0), i
                assert fi == ai, i
            values = [Fraction(v) for v in got[i].view(np.float64).tolist()]
            shift_i = Fraction(float(shift[i]))
            for value, (want, scale), (dot, dot_scale) in zip(
                    values, _dirac_parts(exact, psis[i], shift_i),
                    _dirac_parts(entries, psis[i], shift_i)):
                assert abs(value - dot) <= _U * abs(dot) + _gamma(4) ** 2 * dot_scale, i
                assert abs(value - want) <= _DIRAC_BOUND * scale, i

    def test_matrix_matches_reference(self, rng):
        cases = [(rng.uniform(0.5, 2.0), rng.uniform(0.0, 10.0),
                  math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
                 for _ in range(50)]
        # at rest, on both poles, and massless
        cases += [(1.3, 0.0, 0.4, 2.0), (0.7, 4.0, 0.0, 1.0), (0.7, 4.0, math.pi, 5.0),
                  (0.0, 3.0, 1.1, 0.6)]
        for m, pm, t, f in cases:
            ours = dirac_matrix(FourMomentum(m, pm, t, f))
            ref = oracles.dirac_operator(m, pm, t, f)
            np.testing.assert_allclose(ours, ref, atol=1e-12 * (m + pm))

    def test_apply_agrees_with_matrix_product(self, rng):
        for _ in range(100):
            psi = random_bispinor(rng)
            p = FourMomentum(1.0, float(rng.uniform(0, 5)), 1.1, 0.3)
            fast = _dirac_image(psi, p)
            slow = dirac_matrix(p) @ psi.array
            np.testing.assert_allclose(fast, slow, atol=1e-13 * math.hypot(p.m, p.pmag))

    def test_rest_frame_dirac_spinor_residual_exactly_zero(self):
        psi = BiSpinor(1, 0, 1, 0, provenance=None)
        p = FourMomentum(1.0, 0.0, 0.0, 0.0)
        assert dirac_residual(psi, p, 1) == 0.0

    def test_parity_linked_residual_small_and_sign_selective(self):
        p = FourMomentum(2.0, 30.0, 0.8, 5.9)
        psi = build_parity_linked(1, p)
        assert dirac_residual(psi, p, 1) < 1e-13
        assert dirac_residual(psi, p, -1) > 1.0

    def test_dual_helicity_residual_at_least_one(self, rng):
        for _ in range(100):
            t = math.acos(rng.uniform(-0.99, 0.99))
            f = rng.uniform(0, 2 * math.pi)
            p = FourMomentum(1.0, float(rng.uniform(0.1, 20)), t, f)
            psi = boost_bispinor(
                build_dual_helicity("+-", complex(*rng.normal(size=2)) + 0.3,
                                    complex(*rng.normal(size=2)) + 0.3, t, f), p
            )
            assert dirac_residual(psi, p, 1) >= 1.0 - 1e-12
            assert dirac_residual(psi, p, -1) >= 1.0 - 1e-12

    def test_massless_rejected(self):
        with pytest.raises(MasslessError):
            dirac_residual(BiSpinor(1, 0, 0, 0), FourMomentum(0.0, 1.0), 1)

    def test_integer_inputs_read_as_floats(self):
        psi = build_dual_helicity("+-", 1, 2, 0.3, 0.4)
        ints, floats = FourMomentum(1, 2, 0.3, 0.4), FourMomentum(1.0, 2.0, 0.3, 0.4)
        assert dirac_residual(psi, ints, 1) == dirac_residual(psi, floats, 1)
        assert dirac_flip_residual(psi, psi, ints) == dirac_flip_residual(psi, psi, floats)
        assert theta_link_check([1, 2], ints) == theta_link_check([1, 2], floats)
        # an integer mass whose square leaves int64, through every N=1 boost
        big_int = FourMomentum(5 * 10**9, 2, 0.3, 0.4)
        big_float = FourMomentum(5e9, 2.0, 0.3, 0.4)
        assert dirac_matrix(big_int).tobytes() == dirac_matrix(big_float).tobytes()
        for build in (lambda p: boost_bispinor(psi, p),
                      lambda p: build_parity_linked(1, p),
                      lambda p: parity_apply(boost_bispinor(psi, p))):
            assert build(big_int).array.tobytes() == build(big_float).array.tobytes()

    def test_zero_spinor_rejected(self):
        with pytest.raises(ZeroSpinorError):
            dirac_residual(BiSpinor(0, 0, 0, 0), FourMomentum(1.0, 1.0), 1)


class TestDiracFlip:
    def test_partner_pair_collinear_both_directions(self):
        t, f = math.pi / 3, math.pi / 7
        p = FourMomentum(1.0, 2.0, t, f)
        fwd = boost_bispinor(build_dual_helicity("+-", 1.0, 2.0, t, f), p)
        rev = parity_apply(fwd)
        assert dirac_flip_residual(fwd, rev, p) < 1e-10
        assert dirac_flip_residual(rev, fwd, p) < 1e-10

    @staticmethod
    def _identity_defects(rest, m, pmag, theta, phi):
        # || gamma_mu p^mu psi - m P psi || / (m ||psi||), psi the boosted
        # rows, at the frame's scale
        frame = momentum_frame(m, pmag, theta, phi)
        psis = boost_bispinor_batch(rest, frame)
        image = kernels.dirac_apply_shift(psis, frame, 0.0)
        diff = image - frame.m[:, None] * parity_batch(rest, frame)
        return np.linalg.norm(diff, axis=1) / (frame.m * np.linalg.norm(psis, axis=1))

    def test_dirac_image_is_m_times_the_parity_image(self):
        # gamma_mu p^mu psi = m P psi for any rest spinor boosted in any
        # direction.  Between pmag/m = 1e2 and 1e5 the defect grows like
        # eps E/m for raw and singular-form rows (up to 100 eps E/m for
        # single-helicity ones), and like 3-4 eps (E/m)^2 for dual-helicity,
        # self-conjugate and Weyl rows: the matrix boost of a helicity
        # eigenblock cancels entries of size sqrt(E/m).  Worst of 200,000 raw
        # rows at pmag/m up to 1e3: 1.5e-12; of 50,000 rows per family at
        # pmag/m up to 1e2: 5.8e-12
        rng = sampling.rng_for(41)
        raw = random_raw_spinors(rng, 20_000)
        mom = sampling.random_momenta(rng, 20_000)
        assert np.max(self._identity_defects(raw, *mom)) < 1e-11
        draws = [oracles.family_draw(family, rng, 10_000)[:2]
                 for family in sampling.FAMILY_PARAMS]
        cols, n = singular_form_batch(*(sampling.random_amplitudes(rng, 10_000)
                                        for _ in range(3)))
        draws.append((kernels.components(cols), n))
        for rest, (nx, ny, nz) in draws:
            # each row boosted along its own direction
            theta, phi = np.arctan2(np.hypot(nx, ny), nz), np.arctan2(ny, nx)
            m, pmag, _, _ = sampling.random_momenta(rng, 10_000, ratio=(1e-3, 1e2))
            assert np.max(self._identity_defects(rest, m, pmag, theta, phi)) < 1e-10

    def test_image_lies_in_flipped_family(self):
        # the Dirac image of a (+,-) spinor has block helicities (-, +)
        t, f = 1.0, 0.8
        p = FourMomentum(1.0, 3.0, t, f)
        psi = boost_bispinor(build_dual_helicity("+-", 0.7 + 0.1j, -1.3, t, f), p)
        image = _dirac_image(psi, p)
        assert oracles.eigen_sign(image[:2], t, f) == -1
        assert oracles.eigen_sign(image[2:], t, f) == 1

    def test_mismatched_amplitudes_not_collinear(self):
        t, f = 1.0, 0.8
        p = FourMomentum(1.0, 2.0, t, f)
        fwd = build_dual_helicity("+-", 1.0, 2.0, t, f)
        same_amplitudes = build_dual_helicity("-+", 1.0, 2.0, t, f)
        assert dirac_flip_residual(fwd, same_amplitudes, p) > 0.1

    def test_massless_rejected(self):
        psi = build_dual_helicity("+-", 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(MasslessError):
            dirac_flip_residual(psi, psi, FourMomentum(0.0, 1.0, 1.0, 0.0))


class TestKleinGordon:
    def test_squared_dirac_operator_on_shell(self, rng):
        for _ in range(200):
            m = float(rng.uniform(0.2, 5.0))
            p = FourMomentum(m, float(m * rng.uniform(0, 10)),
                             math.acos(rng.uniform(-1, 1)),
                             float(rng.uniform(0, 2 * math.pi)))
            mat = dirac_matrix(p)
            dev = np.max(np.abs(mat @ mat - m * m * np.eye(4)))
            assert dev < 1e-12 * m * m


class TestThetaLink:
    def test_rest_limit_exact(self):
        p = FourMomentum(1.0, 0.0, 0.3, 0.4)
        assert theta_link_check([1.0, 2.0j], p) == 0.0

    def test_random_momenta_small_residual(self, rng):
        worst = 0.0
        for _ in range(200):
            p = FourMomentum(
                float(rng.uniform(0.2, 3.0)), float(rng.uniform(0, 100.0)),
                math.acos(rng.uniform(-1, 1)), float(rng.uniform(0, 2 * math.pi)),
            )
            block = rng.normal(size=2) + 1j * rng.normal(size=2)
            worst = max(worst, theta_link_check(block, p, 1.0))
        assert worst < 1e-12

    def test_one_bispinor_boost_equals_the_block_products(self):
        # the block-wise formula, B_L on the block and B_R on its zeta Theta
        # conjugate, on the same power-of-two scaled inputs
        rng = sampling.rng_for(30)
        rows = 3000
        m, pmag, theta, phi = sampling.random_momenta(rng, rows, ratio=(1e-3, 1e6))
        blocks = random_raw_spinors(rng, rows)[:, :2]
        zeta = sampling.random_unit_phases(rng, rows)
        frame = momentum_frame(m, pmag, theta, phi)
        got = theta_link_residuals(blocks, zeta, frame)
        x, z = _pow2_scaled(blocks), zeta[:, None]
        left = boost_block_batch(-1, frame) @ x[..., None]
        lhs = z * theta_conjugate(left[..., 0])
        rhs = boost_block_batch(1, frame) @ (z * theta_conjugate(x))[..., None]
        want = np.linalg.norm(lhs - rhs[..., 0], axis=-1) / np.linalg.norm(lhs, axis=-1)
        assert got.tobytes() == want.tobytes()

    def test_phase_does_not_change_residual(self):
        p = FourMomentum(1.0, 7.0, 1.2, 0.9)
        block = [0.4 - 0.1j, 1.1 + 0.6j]
        base = theta_link_check(block, p, 1.0)
        rotated = theta_link_check(block, p, np.exp(1j * math.pi / 4))
        assert base < 1e-12 and rotated < 1e-12
        assert abs(base - rotated) < 1e-13

    def test_non_unit_phase_rejected(self):
        with pytest.raises(ValueError):
            theta_link_check([1.0, 0.0], FourMomentum(1.0, 1.0), 2.0)


def _times_pow2(rows, k):
    return np.ldexp(rows.view(np.float64), k).view(complex)


class TestBatchResidualsTakeRowsAsGiven:
    # The batch residuals do not rescale their rows.  On rows drawn as each
    # verify campaign draws them, a power-of-two factor moves no bit of any
    # residual, so rows scaled or not read the same.
    ROWS = 2000
    SHIFTS = (-200, -60, -1, 1, 60, 200)

    def test_dirac_residuals(self):
        rng = sampling.rng_for(3)
        mom = sampling.random_momenta(rng, self.ROWS)
        psis = parity_linked_batch(sampling._random_signs(rng, self.ROWS), *mom)
        frame = momentum_frame(*mom)
        for sign in (1, -1):
            want = dirac_residuals(psis, frame, sign).tobytes()
            for k in self.SHIFTS:
                assert dirac_residuals(_times_pow2(psis, k), frame, sign).tobytes() == want

    def test_dirac_flip_residuals(self):
        # dual-helicity rows and their parity images, scaled by every pair of
        # factors, equal or not
        rng = sampling.rng_for(4)
        mom = sampling.random_momenta(rng, self.ROWS, ratio=(1e-3, 1e2))
        sign = sampling._random_signs(rng, self.ROWS)
        a, c = (sampling.random_amplitudes(rng, self.ROWS) for _ in range(2))
        frame = momentum_frame(*mom)
        rest = kernels.components(dual_helicity_batch(sign, a, c, *mom[2:])[0])
        parr, arr = parity_batch(np.stack([rest, rest[:, [2, 3, 0, 1]]]), frame)
        for src, dst in ((arr, parr), (parr, arr)):
            want = dirac_flip_residuals(src, dst, frame).tobytes()
            for k in self.SHIFTS:
                for j in self.SHIFTS:
                    got = dirac_flip_residuals(_times_pow2(src, k), _times_pow2(dst, j),
                                               frame)
                    assert got.tobytes() == want

    def test_theta_link_residuals(self):
        rng = sampling.rng_for(6)
        mom = sampling.random_momenta(rng, self.ROWS)
        blocks = np.stack([sampling.random_amplitudes(rng, self.ROWS),
                           sampling.random_amplitudes(rng, self.ROWS)], axis=1)
        zetas = sampling.random_unit_phases(rng, self.ROWS)
        frame = momentum_frame(*mom)
        want = theta_link_residuals(blocks, zetas, frame).tobytes()
        for k in self.SHIFTS:
            assert theta_link_residuals(_times_pow2(blocks, k), zetas, frame).tobytes() == want


class TestSymmetryReport:
    def test_self_conjugate_report(self):
        psi = build_self_conjugate(1, 0.0, 1.0)
        p = FourMomentum(1.0, 2.0, *psi.provenance.direction)
        rep = symmetry_report(psi, p)
        assert rep.c_eigenvalue == 1
        assert rep.c_involution_residual == 0.0
        assert rep.dirac_residual_plus > 1.0
        assert rep.dirac_residual_minus > 1.0
        assert rep.theta_link_residual < 1e-12

    def test_dual_helicity_report_includes_flip(self):
        psi = build_dual_helicity("+-", 1.0, 2.0, 1.0, 0.3)
        p = FourMomentum(1.0, 2.0, 1.0, 0.3)
        rep = symmetry_report(psi, p)
        assert rep.dirac_flip_residual is not None
        assert rep.dirac_flip_residual < 1e-10

    def test_missing_momentum_produces_findings(self):
        # a rest spinor with provenance: parity runs without a momentum,
        # and both momentum-bound checks are skipped in this order
        psi = build_single_helicity("--", 0.6 - 0.2j, 0.1 + 0.9j, 2.1, 5.0)
        rep = symmetry_report(psi)
        assert rep.findings == ("no momentum supplied; Dirac diagnostics skipped",
                                "no momentum supplied; theta-link check skipped")
        assert symmetry_to_dict(rep) == {
            "parity": {"eigenvalue": None, "residual": 1.2675004445952591},
            "charge_conjugation": {
                "eigenvalue": None, "residual": 1.414213562373095,
                "involution_residual": 0.0,
                "constraints": {
                    "norm_ad": 0.08029190475894515, "norm_bc": 0.4245541998409124,
                    "phase_ad_plus": 1.5128062106859017,
                    "phase_bc_plus": 1.3082115153560463,
                    "phase_ad_minus": 1.308211515356046,
                    "phase_bc_minus": 1.5128062106859017,
                },
            },
            "dirac": {"residual_plus": None, "residual_minus": None,
                      "flip_residual": None},
            "theta_link_residual": None,
        }


def test_compensated_dirac_apply_beats_plain_matmul():
    # at high boost the kernel's compensated products keep the worst-case
    # residual of Dirac-type spinors below plain matrix evaluation
    from spinorlab import FourMomentum, build_parity_linked, dirac_matrix, dirac_residual

    rng = np.random.default_rng(13)
    worst_kernel = worst_plain = 0.0
    for _ in range(100):
        p = FourMomentum(1.0, 1e3, float(np.arccos(rng.uniform(-1, 1))),
                         float(rng.uniform(0, 2 * np.pi)))
        psi = build_parity_linked(1, p)
        worst_kernel = max(worst_kernel, dirac_residual(psi, p, 1))
        plain = np.linalg.norm(
            dirac_matrix(p) @ psi.array - psi.array
        ) / np.linalg.norm(psi.array)
        worst_plain = max(worst_plain, plain)
    assert worst_kernel < 1e-12
    assert worst_kernel < worst_plain
