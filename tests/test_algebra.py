"""Constant operators, boosts and Bloch vectors."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spinorlab import (
    FourMomentum,
    gamma,
    gamma5,
    theta_conjugate,
)
from spinorlab.algebra import (
    SIGMA,
    angles_match,
    bloch_direction_batch,
    boost_factor_batch,
    momentum_frame,
    unit_vectors,
)

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


class TestGammas:
    def test_clifford_all_pairs(self):
        for mu in range(4):
            for nu in range(4):
                anti = gamma(mu) @ gamma(nu) + gamma(nu) @ gamma(mu)
                np.testing.assert_array_equal(anti, 2 * ETA[mu, nu] * np.eye(4))

    def test_gamma0_squares_to_identity(self):
        np.testing.assert_array_equal(gamma(0) @ gamma(0), np.eye(4))

    def test_gamma1_gamma2_anticommute(self):
        np.testing.assert_array_equal(
            gamma(1) @ gamma(2) + gamma(2) @ gamma(1), np.zeros((4, 4))
        )

    def test_gamma5_from_product(self):
        prod = 1j * gamma(0) @ gamma(1) @ gamma(2) @ gamma(3)
        np.testing.assert_allclose(prod, np.diag([1, 1, -1, -1]), atol=1e-15)
        np.testing.assert_array_equal(gamma5(), np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_matches_reference_literals(self):
        for mu in range(4):
            np.testing.assert_array_equal(gamma(mu), oracles.GAMMAS[mu])

    def test_hermiticity(self):
        np.testing.assert_array_equal(gamma(0), gamma(0).conj().T)
        for mu in (1, 2, 3):
            np.testing.assert_array_equal(gamma(mu), -gamma(mu).conj().T)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            gamma(4)


def _sigma_n(theta, phi):
    # sigma.n from the package's Pauli matrices
    n = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
         math.cos(theta))
    return n[0] * SIGMA[0] + n[1] * SIGMA[1] + n[2] * SIGMA[2]


class TestPauliDot:
    def test_z_axis_reduces_to_sigma3(self):
        np.testing.assert_array_equal(_sigma_n(0.0, 0.0), np.diag([1.0, -1.0]))

    def test_x_axis(self):
        np.testing.assert_allclose(
            _sigma_n(math.pi / 2, 0.0), [[0, 1], [1, 0]], atol=1e-16
        )

    def test_squares_to_identity_at_example_angles(self):
        m = _sigma_n(math.pi / 3, math.pi / 5)
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-15)

    def test_squares_to_identity_random_directions(self, rng):
        for _ in range(100):
            t = math.acos(rng.uniform(-1, 1))
            f = rng.uniform(0, 2 * math.pi)
            m = _sigma_n(t, f)
            np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-15)
            np.testing.assert_allclose(m, m.conj().T, atol=1e-16)
            np.testing.assert_allclose(m, oracles.sigma_dot(t, f), atol=1e-15)


class TestWignerTheta:
    def test_explicit_entries(self):
        # Theta conj(b) on the basis vectors gives the columns of Theta
        columns = np.stack([theta_conjugate([1, 0]), theta_conjugate([0, 1])], axis=1)
        np.testing.assert_array_equal(columns, oracles.THETA_MATRIX)
        np.testing.assert_array_equal(columns, [[0, -1], [1, 0]])

    def test_squares_to_minus_identity(self):
        th = oracles.THETA_MATRIX
        np.testing.assert_array_equal(th @ th, -np.eye(2))

    def test_conjugation_flips_pauli_matrices(self):
        th = oracles.THETA_MATRIX
        inv = np.linalg.inv(th)
        for sk in SIGMA:
            np.testing.assert_array_equal(th @ sk.conj() @ inv, -sk)

    def test_action_on_basis_vector(self, rng):
        block = rng.normal(size=2) + 1j * rng.normal(size=2)
        np.testing.assert_array_equal(theta_conjugate(block),
                                      oracles.THETA_MATRIX @ block.conj())


class TestThetaConjugate:
    def test_real_input(self):
        np.testing.assert_array_equal(theta_conjugate([1, 0]), [0, 1])

    def test_flips_helicity_eigenvalue(self):
        t, f = math.pi / 3, math.pi / 5
        plus = np.array([math.cos(t / 2) * np.exp(-0.5j * f),
                         math.sin(t / 2) * np.exp(0.5j * f)])
        assert oracles.eigen_sign(plus, t, f) == 1
        image = theta_conjugate(plus)
        sig = oracles.sigma_dot(t, f)
        np.testing.assert_allclose(sig @ image, -image, atol=1e-14)

    def test_twice_is_minus_identity(self, rng):
        block = rng.normal(size=2) + 1j * rng.normal(size=2)
        np.testing.assert_allclose(
            theta_conjugate(theta_conjugate(block)), -block, atol=0
        )


class TestBoost:
    def test_rest_is_identity(self):
        p = FourMomentum(2.0, 0.0, 1.1, 0.3)
        np.testing.assert_allclose(oracles.boost_block("right", p), np.eye(2), atol=1e-16)
        np.testing.assert_allclose(oracles.boost_block("left", p), np.eye(2), atol=1e-16)

    def test_z_boost_scalar_on_up_spinor(self):
        # m = 1, pmag = 1 along z: the right boost scales (1, 0) by
        # (E + m + pmag) / sqrt(2 m (E + m))
        p = FourMomentum(1.0, 1.0, 0.0, 0.0)
        e = math.sqrt(2.0)
        expected = (e + 1.0 + 1.0) / math.sqrt(2.0 * (e + 1.0))
        out = oracles.boost_block("right", p) @ np.array([1.0, 0.0])
        np.testing.assert_allclose(out, [expected, 0.0], rtol=1e-15)
        assert math.isclose(
            float(boost_factor_batch(1, 1, p.m, p.pmag)), expected, rel_tol=1e-15
        )

    def test_right_left_are_inverses(self, rng):
        for _ in range(50):
            p = FourMomentum(
                float(rng.uniform(0.2, 5.0)),
                float(rng.uniform(0.0, 50.0)),
                float(math.acos(rng.uniform(-1, 1))),
                float(rng.uniform(0, 2 * math.pi)),
            )
            prod = oracles.boost_block("right", p) @ oracles.boost_block("left", p)
            np.testing.assert_allclose(prod, np.eye(2), atol=1e-13)

    def test_determinant_product_is_one(self, rng):
        p = FourMomentum(1.3, 7.7, 0.9, 2.1)
        det = np.linalg.det(oracles.boost_block("right", p)) * np.linalg.det(
            oracles.boost_block("left", p)
        )
        assert abs(det - 1.0) < 1e-12

    def test_handedness_difference_vanishes_iff_at_rest(self):
        at_rest = FourMomentum(1.0, 0.0, 0.4, 0.2)
        moving = FourMomentum(1.0, 1e-3, 0.4, 0.2)
        def gap(p):
            return np.max(np.abs(oracles.boost_block("right", p)
                                 - oracles.boost_block("left", p)))

        assert gap(at_rest) == 0.0
        assert gap(moving) > 0.0

    def test_matches_naive_formula_at_moderate_boost(self, rng):
        # cancellation-free entries agree with the textbook expression
        p = FourMomentum(1.0, 3.0, 2.2, 5.1)
        f = p.frame()
        e, px, py, pz = (float(np.ldexp(x, f.exp)[0]) for x in (f.e, f.px, f.py, f.pz))
        naive = math.sqrt((e + 1) / 2.0) * (
            np.eye(2) + (px * np.array([[0, 1], [1, 0]])
                         + py * np.array([[0, -1j], [1j, 0]])
                         + pz * np.diag([1, -1])) / (e + 1)
        )
        np.testing.assert_allclose(oracles.boost_block("right", p), naive, rtol=1e-14)

    def test_eigenfactor_matches_matrix_action(self):
        p = FourMomentum(1.0, 40.0, 1.0, 0.7)
        plus = np.array([math.cos(0.5) * np.exp(-0.35j),
                         math.sin(0.5) * np.exp(0.35j)])
        out = oracles.boost_block("left", p) @ plus
        np.testing.assert_allclose(out, boost_factor_batch(-1, 1, p.m, p.pmag) * plus,
                                   rtol=1e-12)


class TestRotation:
    """The rotation reference that pins the rest-spinor phases."""

    def test_zero_angle(self):
        np.testing.assert_array_equal(oracles.rotation_block(0.0, [0, 0, 1]), np.eye(2))

    @pytest.mark.parametrize("axis", [(0, 0, 1), (1, 0, 0),
                                      (0.6, 0.0, 0.8), (0, 1, 0)])
    def test_full_turn_is_minus_identity(self, axis):
        np.testing.assert_allclose(
            oracles.rotation_block(2 * math.pi, axis), -np.eye(2), atol=1e-15
        )

    def test_half_turn_about_z(self):
        np.testing.assert_allclose(
            oracles.rotation_block(math.pi, [0, 0, 1]), np.diag([1j, -1j]), atol=1e-16
        )

    @given(st.floats(-10, 10), st.floats(0, math.pi), st.floats(0, 2 * math.pi))
    @settings(max_examples=50, deadline=None)
    def test_unitary_with_unit_determinant(self, angle, t, f):
        axis = [math.sin(t) * math.cos(f), math.sin(t) * math.sin(f), math.cos(t)]
        r = oracles.rotation_block(angle, axis)
        np.testing.assert_allclose(r @ r.conj().T, np.eye(2), atol=1e-14)
        assert abs(np.linalg.det(r) - 1.0) < 1e-14

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            oracles.rotation_block(1.0, [1, 1, 0])


class TestFourMomentum:
    def test_on_shell_by_construction(self):
        f = FourMomentum(1.5, 2.5, 0.7, 0.1).frame()
        assert math.isclose(f.e[0]**2 - f.pmag[0]**2, f.m[0]**2, rel_tol=1e-14)

    def test_vector_components(self):
        f = FourMomentum(1.0, 2.0, math.pi / 2, 0.0).frame()
        e, *vector = (float(np.ldexp(x, f.exp)[0]) for x in (f.e, f.px, f.py, f.pz))
        np.testing.assert_allclose(vector, [2.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(e, math.hypot(1.0, 2.0))

    @pytest.mark.parametrize(
        "kwargs",
        [dict(m=-1.0, pmag=0.0), dict(m=1.0, pmag=-2.0),
         dict(m=1.0, pmag=1.0, theta=4.0), dict(m=float("nan"), pmag=0.0)],
    )
    def test_invalid_inputs(self, kwargs):
        with pytest.raises(ValueError):
            FourMomentum(**{"theta": 0.0, "phi": 0.0, **kwargs})


class TestMomentumFrame:
    def test_scaled_by_one_power_of_two_along_one_direction(self, rng):
        rows = 2000
        m = 10.0 ** rng.uniform(-5, 5, rows)
        pmag = m * 10.0 ** rng.uniform(-12, 12, rows)
        pmag[:50] = 0.0
        theta, phi = np.arccos(rng.uniform(-1, 1, rows)), rng.uniform(0, 2 * math.pi, rows)
        f = momentum_frame(m, pmag, theta, phi)
        assert np.array_equal(np.ldexp(f.m, f.exp), m)
        assert np.array_equal(np.ldexp(f.pmag, f.exp), pmag)
        top = np.maximum(f.m, f.pmag)
        assert np.all((top >= 0.5) & (top < 1.0))
        assert all(np.array_equal(got, want) for got, want in zip(f.n, unit_vectors(theta, phi)))
        for got, nk in zip((f.px, f.py, f.pz), f.n):
            assert np.array_equal(got, f.pmag * nk)
        assert np.array_equal(f.e, np.hypot(f.m, f.pmag))

    def test_e_plus_minus_pz_multiply_to_the_transverse_mass(self, rng):
        # (E + pz)(E - pz) = m^2 + px^2 + py^2: within a few roundings on both
        # branches, where E - pz or E + pz alone would cancel at high boost
        rows = 2000
        m = np.ones(rows)
        pmag = 10.0 ** rng.uniform(-3, 8, rows)
        theta = np.concatenate([rng.uniform(0, 0.1, rows // 2),
                                rng.uniform(math.pi - 0.1, math.pi, rows // 2)])
        f = momentum_frame(m, pmag, theta, rng.uniform(0, 2 * math.pi, rows))
        mt2 = f.m * f.m + (f.px * f.px + f.py * f.py)
        assert np.all(np.abs(f.ezp * f.ezm - mt2) <= 8 * np.finfo(float).eps * mt2)
        direct = f.pz >= 0
        assert np.array_equal(f.ezp[direct], f.e[direct] + f.pz[direct])
        assert np.array_equal(f.ezm[~direct], f.e[~direct] - f.pz[~direct])

    def test_one_row_frame_of_a_four_momentum(self):
        p = FourMomentum(3, 4, 0.5, 0.2)
        want = momentum_frame(*(np.array([x]) for x in (3.0, 4.0, 0.5, 0.2)))
        for got, w in zip(p.frame(), want):
            assert np.asarray(got).tobytes() == np.asarray(w).tobytes()


class TestBlochDirection:
    def test_recovers_construction_angles(self, rng):
        for _ in range(50):
            t = math.acos(rng.uniform(-0.999, 0.999))
            f = rng.uniform(0, 2 * math.pi)
            scale = 10.0 ** rng.uniform(-100, 100)
            block = scale * np.array([math.cos(t / 2) * np.exp(-0.5j * f),
                                      math.sin(t / 2) * np.exp(0.5j * f)])
            n, v = bloch_direction_batch(block[0], block[1])
            np.testing.assert_allclose(n, unit_vectors(t, f), rtol=0, atol=1e-15)
            # v has length |b0|^2 + |b1|^2, the length n divides it by
            assert math.isclose(math.hypot(*v), scale * scale, rel_tol=1e-15)

    def test_poles(self):
        assert bloch_direction_batch(1 + 0j, 0j) == ((0.0, 0.0, 1.0),) * 2
        assert bloch_direction_batch(0j, 1 + 0j) == ((0.0, 0.0, -1.0),) * 2


class TestAnglesMatch:
    @pytest.mark.parametrize("pole", [0.0, math.pi])
    def test_azimuth_is_immaterial_at_a_pole(self, pole):
        # at theta = 0 or pi every phi names the same direction, within the
        # 1e-12 tolerance of the pole too
        near = 5e-13 if pole == 0.0 else math.pi - 5e-13
        for p1, p2 in ((0.0, 1.0), (1.0, 4.0), (-3.0, 2.5)):
            assert angles_match(pole, p1, pole, p2)
            assert angles_match(pole, p1, near, p2)
            assert angles_match(near, p1, pole, p2)

    def test_azimuth_matters_off_the_poles(self):
        for theta in (1e-11, 1.0, math.pi - 1e-11):
            assert not angles_match(theta, 0.0, theta, 1.0)
            # phi is compared modulo 2 pi
            assert angles_match(theta, 0.25, theta, 0.25 + 2.0 * math.pi)

    def test_polar_angles_must_agree(self):
        assert not angles_match(math.pi, 0.0, math.pi - 1e-9, 0.0)
        assert not angles_match(0.0, 0.0, 1e-9, 0.0)
