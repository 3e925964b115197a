"""Spinor family constructors."""
import math

import numpy as np
import pytest

import oracles
from spinorlab import (
    DirectionMismatchError,
    FourMomentum,
    MasslessError,
    SingularAngleError,
    ZeroSpinorError,
    boost_bispinor,
    build_dual_helicity,
    build_parity_linked,
    build_self_conjugate,
    build_single_helicity,
    build_singular_form,
    build_weyl,
    parity_apply,
    rest_spinor,
)


class TestRestSpinor:
    def test_north_pole_plus(self):
        out = rest_spinor(1, 0.0, 0.0, 1.0, phase=0.0)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-16)

    def test_matches_component_formula_and_eigenvalue(self):
        t, f, m, ph = 1.1, 2.7, 3.0, 0.4
        out = rest_spinor(1, t, f, m, phase=ph)
        pref = math.sqrt(m) * np.exp(1j * ph)
        expected = pref * np.array(
            [math.cos(t / 2) * np.exp(-0.5j * f), math.sin(t / 2) * np.exp(0.5j * f)]
        )
        np.testing.assert_allclose(out, expected, rtol=1e-15)
        assert oracles.eigen_sign(out, t, f) == 1

    def test_minus_helicity_pinned_example(self):
        # h = -, theta = pi/2, phi = pi/2, m = 4, phase = 0
        out = rest_spinor(-1, math.pi / 2, math.pi / 2, 4.0, phase=0.0)
        s = math.sin(math.pi / 4)
        expected = 2.0 * np.array(
            [s * np.exp(-0.25j * math.pi), -s * np.exp(0.25j * math.pi)]
        )
        np.testing.assert_allclose(out, expected, rtol=1e-15)
        sig = oracles.sigma_dot(math.pi / 2, math.pi / 2)
        np.testing.assert_allclose(sig @ out, -out, atol=1e-14)

    def test_opposite_helicities_orthogonal(self, rng):
        for _ in range(25):
            t = math.acos(rng.uniform(-1, 1))
            f = rng.uniform(0, 2 * math.pi)
            up = rest_spinor(1, t, f, 2.0)
            dn = rest_spinor(-1, t, f, 2.0)
            assert abs(np.vdot(up, dn)) < 1e-14

    def test_default_phases(self):
        up = rest_spinor(1, 0.3, 0.1, 1.0)
        dn = rest_spinor(-1, 0.3, 0.1, 1.0)
        explicit_up = rest_spinor(1, 0.3, 0.1, 1.0, phase=0.0)
        explicit_dn = rest_spinor(-1, 0.3, 0.1, 1.0, phase=math.pi)
        np.testing.assert_array_equal(up, explicit_up)
        np.testing.assert_array_equal(dn, explicit_dn)

    def test_massless_rejected(self):
        with pytest.raises(MasslessError):
            rest_spinor(1, 0.0, 0.0, 0.0)

    def test_default_phases_rotate_the_z_basis(self, rng):
        # with the default phases (0, pi) both helicity states are one SU(2)
        # rotation, R_z(phi) R_y(theta), of spin up and spin down
        for _ in range(25):
            t = math.acos(rng.uniform(-1, 1))
            f = rng.uniform(0, 2 * math.pi)
            m = rng.uniform(0.1, 10.0)
            rot = (oracles.rotation_block(-f, [0, 0, 1])
                   @ oracles.rotation_block(-t, [0, 1, 0]))
            for hel, column in ((1, 0), (-1, 1)):
                out = rest_spinor(hel, t, f, m)
                np.testing.assert_allclose(out, math.sqrt(m) * rot[:, column],
                                           atol=1e-15 * math.sqrt(m))


class TestBoostedBlock:
    """A rest spinor boosted along its own direction."""

    def test_rest_limit(self):
        rest = rest_spinor(1, 0.9, 0.2, 1.5)
        p = FourMomentum(1.5, 0.0, 0.9, 0.2)
        np.testing.assert_array_equal(oracles.boost_block("right", p) @ rest, rest)

    def test_z_axis_scale_factor(self):
        rest = rest_spinor(1, 0.0, 0.0, 1.0, phase=0.0)
        p = FourMomentum(1.0, 1.0, 0.0, 0.0)
        e = math.sqrt(2.0)
        factor = (e + 2.0) / math.sqrt(2.0 * (e + 1.0))
        np.testing.assert_allclose(
            oracles.boost_block("right", p) @ rest, [factor, 0.0], rtol=1e-15
        )

    def test_agrees_with_matrix_route(self):
        # parity-linked blocks take the boost as the scalar eigenfactor
        rest = rest_spinor(-1, 1.2, 4.0, 2.0, phase=0.7)
        p = FourMomentum(2.0, 9.0, 1.2, 4.0)
        psi = build_parity_linked(-1, p, phase=0.7)
        for handedness, block in (("right", psi.right), ("left", psi.left)):
            via_matrix = oracles.boost_block(handedness, p) @ rest
            np.testing.assert_allclose(block, via_matrix, rtol=1e-12)

    def test_eigenvalue_preserved_under_boost(self):
        rest = rest_spinor(1, 0.8, 1.9, 1.0)
        p = FourMomentum(1.0, 5.0, 0.8, 1.9)
        out = oracles.boost_block("right", p) @ rest
        assert oracles.eigen_sign(out, 0.8, 1.9) == 1

    def test_direction_mismatch_rejected(self):
        psi = build_single_helicity("++", 1.0, 1.0, 0.8, 1.9)
        with pytest.raises(DirectionMismatchError):
            boost_bispinor(psi, FourMomentum(1.0, 5.0, 0.9, 1.9))


class TestSingleHelicity:
    def test_aligned_with_z_axis(self):
        psi = build_single_helicity("++", 2.0, 3.0, 0.0, 0.0)
        np.testing.assert_array_equal(psi.array, [2.0, 0.0, 3.0, 0.0])

    def test_equatorial_plus_plus(self):
        psi = build_single_helicity("++", 1.0, 2.0, math.pi / 2, 0.0)
        np.testing.assert_allclose(psi.array, [1, 1, 2, 2], atol=1e-15)
        assert oracles.eigen_sign(psi.right, math.pi / 2, 0.0) == 1
        assert oracles.eigen_sign(psi.left, math.pi / 2, 0.0) == 1

    def test_equatorial_minus_minus(self):
        psi = build_single_helicity("--", 1.0, 1.0, math.pi / 2, 0.0)
        np.testing.assert_allclose(psi.array, [1, -1, 1, -1], atol=1e-15)
        assert oracles.eigen_sign(psi.right, math.pi / 2, 0.0) == -1

    def test_blocks_share_eigenvalue_generic(self, rng):
        for _ in range(50):
            t = math.acos(rng.uniform(-0.999, 0.999))
            f = rng.uniform(0, 2 * math.pi)
            pair = "++" if rng.uniform() < 0.5 else "--"
            want = 1 if pair == "++" else -1
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) + 0.1
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) + 0.1
            psi = build_single_helicity(pair, a, c, t, f)
            assert oracles.eigen_sign(psi.right, t, f) == want
            assert oracles.eigen_sign(psi.left, t, f) == want

    def test_singular_angles_rejected(self):
        with pytest.raises(SingularAngleError):
            build_single_helicity("++", 1.0, 1.0, math.pi, 0.0)
        with pytest.raises(SingularAngleError):
            build_single_helicity("--", 1.0, 1.0, 0.0, 0.0)

    def test_zero_amplitudes_rejected(self):
        with pytest.raises(ZeroSpinorError):
            build_single_helicity("++", 0.0, 0.0, 1.0, 0.0)

    def test_bad_pair(self):
        with pytest.raises(ValueError):
            build_single_helicity("+-", 1.0, 1.0, 1.0, 0.0)


class TestDualHelicity:
    def test_equatorial_plus_minus(self):
        psi = build_dual_helicity("+-", 1.0, 1.0, math.pi / 2, 0.0)
        np.testing.assert_allclose(psi.array, [1, 1, 1, -1], atol=1e-15)
        assert oracles.eigen_sign(psi.right, math.pi / 2, 0.0) == 1
        assert oracles.eigen_sign(psi.left, math.pi / 2, 0.0) == -1

    def test_equatorial_minus_plus(self):
        psi = build_dual_helicity("-+", 1.0, 1.0, math.pi / 2, 0.0)
        np.testing.assert_allclose(psi.array, [1, -1, 1, 1], atol=1e-15)

    def test_opposite_block_eigenvalues_generic(self, rng):
        for _ in range(50):
            t = math.acos(rng.uniform(-0.999, 0.999))
            f = rng.uniform(0, 2 * math.pi)
            psi = build_dual_helicity("+-", 1.0 + 0.3j, -0.7, t, f)
            assert oracles.eigen_sign(psi.right, t, f) == 1
            assert oracles.eigen_sign(psi.left, t, f) == -1

    def test_matches_singular_structure(self, rng):
        # the leading component obeys a = -b c conj(d) / |c|^2 whenever c != 0
        for _ in range(50):
            t = math.acos(rng.uniform(-0.99, 0.99))
            f = rng.uniform(0, 2 * math.pi)
            a = complex(rng.uniform(0.1, 1), rng.uniform(-1, 1))
            c = complex(rng.uniform(0.1, 1), rng.uniform(-1, 1))
            pair = "+-" if rng.uniform() < 0.5 else "-+"
            psi = build_dual_helicity(pair, a, c, t, f)
            reference = -psi.b * psi.c * np.conj(psi.d) / abs(psi.c) ** 2
            assert abs(psi.a - reference) <= 1e-12 * abs(psi.a)

    def test_pole_rejected(self):
        with pytest.raises(SingularAngleError):
            build_dual_helicity("+-", 1.0, 1.0, 0.0, 0.0)

    def test_degenerate_amplitude_rejected(self):
        with pytest.raises(ZeroSpinorError):
            build_dual_helicity("+-", 0.0, 1.0, 1.0, 0.0)


class TestSingularForm:
    def test_zero_b_forces_zero_leading_component(self):
        psi = build_singular_form(0.0, 1.0, 1.0)
        np.testing.assert_array_equal(psi.array, [0, 0, 1, 1])

    def test_pinned_example(self):
        psi = build_singular_form(1j, 1.0, 1.0)
        np.testing.assert_array_equal(psi.array, [-1j, 1j, 1, 1])
        b = oracles.sandwich_bilinears(psi.array)
        assert abs(b["sigma"]) < 1e-15 and abs(b["omega"]) < 1e-15

    def test_always_singular(self, rng):
        for _ in range(200):
            vals = rng.normal(size=6)
            psi = build_singular_form(
                complex(vals[0], vals[1]),
                complex(vals[2], vals[3]) + 2.0,
                complex(vals[4], vals[5]),
            )
            b = oracles.sandwich_bilinears(psi.array)
            scale = psi.norm_sq
            assert abs(b["sigma"]) < 1e-13 * scale
            assert abs(b["omega"]) < 1e-13 * scale

    def test_c_zero_rejected(self):
        with pytest.raises(ZeroSpinorError):
            build_singular_form(1.0, 0.0, 1.0)


class TestSelfConjugate:
    def test_plus_pinned(self):
        psi = build_self_conjugate(1, 0.0, 1.0)
        np.testing.assert_array_equal(psi.array, [-1j, 0, 0, 1])

    def test_minus_pinned(self):
        psi = build_self_conjugate(-1, 1.0, 0.0)
        np.testing.assert_array_equal(psi.array, [0, -1j, 1, 0])

    def test_component_norm_relations(self, rng):
        for _ in range(100):
            c = complex(*rng.normal(size=2))
            d = complex(*rng.normal(size=2))
            psi = build_self_conjugate(-1 if rng.uniform() < 0.5 else 1, c, d)
            assert abs(psi.a) == abs(psi.d)
            assert abs(psi.b) == abs(psi.c)

    def test_zero_rejected(self):
        with pytest.raises(ZeroSpinorError):
            build_self_conjugate(1, 0.0, 0.0)


class TestWeyl:
    def test_right_only(self):
        psi = build_weyl("right", (1.0, 0.0))
        np.testing.assert_array_equal(psi.array, [1, 0, 0, 0])

    def test_left_only(self):
        psi = build_weyl("left", (0.0, 1.0))
        np.testing.assert_array_equal(psi.array, [0, 0, 0, 1])

    def test_classifies_as_class_6(self, rng):
        for _ in range(100):
            block = rng.normal(size=2) + 1j * rng.normal(size=2)
            which = "right" if rng.uniform() < 0.5 else "left"
            psi = build_weyl(which, block)
            assert oracles.brute_force_class(psi.array) == 6

    def test_zero_block_rejected(self):
        with pytest.raises(ZeroSpinorError):
            build_weyl("right", (0.0, 0.0))


@pytest.mark.parametrize("build, theta, phi", [
    (lambda: build_self_conjugate(1, 0.3 - 0.7j, -1.1 + 0.2j),
     "0x1.f214fb2b7d77fp+0", "0x1.082b507525be4p+2"),
    (lambda: build_self_conjugate(-1, -0.9 + 0.4j, 0.25 - 0.6j),
     "0x1.2aad95bb1d4fbp+0", "0x1.3120be89074c7p+1"),
    (lambda: build_weyl("right", (0.6 + 0.1j, -0.4 + 0.9j)),
     "0x1.047cb94047b5dp+1", "0x1.d2e94625b8cb0p+0"),
    (lambda: build_weyl("left", (-0.35 - 0.8j, 0.7 + 0.15j)),
     "0x1.5f99b6691bec2p+0", "0x1.18ded36305e46p+1"),
    # the right block (a, b) where it is nonzero, else the left block (c, d)
    (lambda: build_singular_form(0.5 - 0.25j, 0.8 + 0.3j, -0.2 + 1.1j),
     "0x1.4e17f98049382p+0", "0x1.222466f238c0ap+2"),
    (lambda: build_singular_form(0.0, 0.8 + 0.3j, -0.2 + 1.1j),
     "0x1.d62771083c6aep+0", "0x1.645231405d5f9p+0"),
    (lambda: build_self_conjugate(1, 1e150 * (0.3 - 0.7j), 1e150 * (-1.1 + 0.2j)),
     "0x1.f214fb2b7d77fp+0", "0x1.082b507525be4p+2"),
])
def test_bloch_family_directions_pinned(build, theta, phi):
    # the construction direction a Bloch-family spinor records, and reports
    # echo, keeps its bits
    prov = build().provenance
    assert (prov.theta.hex(), prov.phi.hex()) == (theta, phi)


class TestParityLinkedAndBoost:
    def test_rest_spinor_duplicated_into_both_blocks(self):
        p = FourMomentum(2.0, 0.0, 0.8, 0.3)
        psi = build_parity_linked(1, p)
        np.testing.assert_array_equal(psi.right, psi.left)

    def test_satisfies_dirac_equation(self, rng):
        for _ in range(25):
            p = FourMomentum(
                float(rng.uniform(0.5, 3.0)), float(rng.uniform(0, 20.0)),
                float(math.acos(rng.uniform(-1, 1))),
                float(rng.uniform(0, 2 * math.pi)),
            )
            h = 1 if rng.uniform() < 0.5 else -1
            psi = build_parity_linked(h, p)
            op = oracles.dirac_operator(p.m, p.pmag, p.theta, p.phi)
            resid = np.linalg.norm(op @ psi.array - p.m * psi.array)
            assert resid < 1e-11 * p.m * np.linalg.norm(psi.array)

    def test_boost_bispinor_matches_blockwise_matrices(self):
        psi = build_dual_helicity("+-", 1.0, 2.0, 1.0, 0.5)
        p = FourMomentum(1.0, 3.0, 1.0, 0.5)
        boosted = boost_bispinor(psi, p)
        np.testing.assert_allclose(
            boosted.right, oracles.boost_block("right", p) @ psi.right, rtol=1e-15
        )
        np.testing.assert_allclose(
            boosted.left, oracles.boost_block("left", p) @ psi.left, rtol=1e-15
        )
        assert boosted.provenance.momentum == p

    def test_boost_requires_matching_direction(self):
        psi = build_dual_helicity("+-", 1.0, 2.0, 1.0, 0.5)
        with pytest.raises(DirectionMismatchError):
            boost_bispinor(psi, FourMomentum(1.0, 3.0, 1.1, 0.5))

    def test_partner_swaps_amplitudes_and_pair(self):
        # the parity image of a dual-helicity spinor is the spinor with the
        # flipped pair and swapped amplitudes, bit for bit, at rest and boosted
        a, c, t, f = 1.0 + 1j, 2.0, 1.0, 0.5
        p = FourMomentum(1.5, 7.0, t, f)
        psi = build_dual_helicity("+-", a, c, t, f)
        flipped = build_dual_helicity("-+", c, a, t, f)
        boosted = boost_bispinor(psi, p)
        for image, want in ((parity_apply(psi), flipped),
                            (parity_apply(boosted), boost_bispinor(flipped, p))):
            np.testing.assert_array_equal(image.array.view(np.uint64),
                                          want.array.view(np.uint64))
