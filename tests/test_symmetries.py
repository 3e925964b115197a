"""Charge conjugation, parity, Dirac-operator and theta-link diagnostics."""
import math

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
    boost_block,
    build_dual_helicity,
    build_parity_linked,
    build_self_conjugate,
    build_single_helicity,
    c_eigen_check,
    charge_conjugate,
    dirac_flip_residual,
    dirac_matrix,
    dirac_residual,
    dual_helicity_partner,
    parity_apply,
    parity_eigen_check,
    rest_spinor,
    symmetry_report,
    theta_link_check,
    RestSpinorSpec,
)
from spinorlab import kernels
from spinorlab.algebra import momentum_components
from spinorlab.sampling import random_raw_spinors
from spinorlab.symmetries import (
    _pow2_mass,
    _pow2_scaled,
    c_eigen_residuals,
    charge_conjugate_batch,
    eigen_states,
)
from spinorlab.tolerances import DEFAULT_TOLERANCES


class TestChargeConjugation:
    def test_involution_exact(self, rng):
        for _ in range(1000):
            psi = random_bispinor(rng)
            twice = charge_conjugate(charge_conjugate(psi))
            assert np.array_equal(twice.array, psi.array)

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
        conj, _, _, params = oracles.family_draw("self_conjugate", rng, 4096)
        rows = np.concatenate([raw, conj])
        res_plus, res_minus = c_eigen_residuals(rows)

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
        exact = DEFAULT_TOLERANCES.exact
        for got, want in ((res_plus, want_plus), (res_minus, want_minus)):
            assert np.count_nonzero(got <= exact) == np.count_nonzero(want <= exact)
        assert np.count_nonzero(res_plus <= exact) == np.count_nonzero(sign == 1)


_EXACT = DEFAULT_TOLERANCES.exact


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
    assert eigen_states(res_plus, res_minus, DEFAULT_TOLERANCES) == state
    got = eigen_states(np.array([res_plus]), np.array([res_minus]), DEFAULT_TOLERANCES)
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
        mp = rng.choice(self.SPECIALS, size=(3000, 2))
        mp = np.concatenate([mp, [[0.0, 3.0], [3.0, 0.0], [1e-300, 1e300]]])
        with np.errstate(invalid="ignore"):
            self._same(_pow2_scaled(mp, float), _reference_pow2_scaled(mp, float))

    @pytest.mark.parametrize("m,pmag", [(1.0, 2.0), (1e-300, 1e300), (3.0, 0.0),
                                        (0.0, 5e-324)])
    def test_scalar_mass(self, m, pmag):
        want = _reference_pow2_scaled(np.stack([m, pmag], axis=-1), float)
        got_m, got_p = _pow2_mass(m, pmag)
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
        spec = RestSpinorSpec(1, 0.9, 1.3, 1.0)
        p = FourMomentum(1.0, 4.0, 0.9, 1.3)
        refl = p.reflected()
        via_parity = boost_block("right", refl) @ rest_spinor(spec)
        np.testing.assert_allclose(
            via_parity, boost_block("left", p) @ rest_spinor(spec), rtol=1e-12
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

    def test_raw_spinor_rejected(self):
        with pytest.raises(ProvenanceError):
            parity_apply(BiSpinor(1, 0, 0, 0), FourMomentum(1.0, 0.0))

    def test_momentum_mismatch_rejected(self):
        p = FourMomentum(1.0, 2.0, 1.0, 0.5)
        psi = build_parity_linked(1, p)
        with pytest.raises(ProvenanceError):
            parity_apply(psi, FourMomentum(1.0, 3.0, 1.0, 0.5))


def _dirac_image(psi, p):
    # gamma_mu p^mu psi through the compensated kernel
    e, px, py, pz = momentum_components(p.m, p.pmag, p.theta, p.phi)
    return kernels.dirac_apply_shift(psi.array[None, :], e, p.m, px, py, pz, 0.0)[0]


class TestDiracOperator:
    def test_matrix_matches_reference(self, rng):
        for _ in range(50):
            m = rng.uniform(0.5, 2.0)
            pm = rng.uniform(0.0, 10.0)
            t = math.acos(rng.uniform(-1, 1))
            f = rng.uniform(0, 2 * math.pi)
            ours = dirac_matrix(FourMomentum(m, pm, t, f))
            ref = oracles.dirac_operator(m, pm, t, f)
            np.testing.assert_allclose(ours, ref, atol=1e-12 * (m + pm))

    def test_apply_agrees_with_matrix_product(self, rng):
        for _ in range(100):
            psi = random_bispinor(rng)
            p = FourMomentum(1.0, float(rng.uniform(0, 5)), 1.1, 0.3)
            fast = _dirac_image(psi, p)
            slow = dirac_matrix(p) @ psi.array
            np.testing.assert_allclose(fast, slow, atol=1e-13 * p.energy)

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

    def test_zero_spinor_rejected(self):
        with pytest.raises(ZeroSpinorError):
            dirac_residual(BiSpinor(0, 0, 0, 0), FourMomentum(1.0, 1.0), 1)


class TestDiracFlip:
    def test_partner_pair_collinear_both_directions(self):
        t, f = math.pi / 3, math.pi / 7
        p = FourMomentum(1.0, 2.0, t, f)
        fwd = boost_bispinor(build_dual_helicity("+-", 1.0, 2.0, t, f), p)
        rev = dual_helicity_partner(fwd)
        assert dirac_flip_residual(fwd, rev, p) < 1e-10
        assert dirac_flip_residual(rev, fwd, p) < 1e-10

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
        psi = build_self_conjugate(-1, 1.0, 0.0)
        rep = symmetry_report(psi, None)
        assert rep.dirac_residual_plus is None
        assert any("Dirac diagnostics skipped" in f for f in rep.findings)


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
