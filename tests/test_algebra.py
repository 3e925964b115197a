"""Constant operators, boosts and Bloch directions."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spinorlab import (
    FourMomentum,
    MasslessError,
    boost_block,
    gamma,
    gamma5,
    theta_conjugate,
)
from spinorlab.algebra import SIGMA, bloch_direction_batch, boost_factor_batch

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
        np.testing.assert_allclose(boost_block("right", p), np.eye(2), atol=1e-16)
        np.testing.assert_allclose(boost_block("left", p), np.eye(2), atol=1e-16)

    def test_z_boost_scalar_on_up_spinor(self):
        # m = 1, pmag = 1 along z: the right boost scales (1, 0) by
        # (E + m + pmag) / sqrt(2 m (E + m))
        p = FourMomentum(1.0, 1.0, 0.0, 0.0)
        e = math.sqrt(2.0)
        expected = (e + 1.0 + 1.0) / math.sqrt(2.0 * (e + 1.0))
        out = boost_block("right", p) @ np.array([1.0, 0.0])
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
            prod = boost_block("right", p) @ boost_block("left", p)
            np.testing.assert_allclose(prod, np.eye(2), atol=1e-13)

    def test_determinant_product_is_one(self, rng):
        p = FourMomentum(1.3, 7.7, 0.9, 2.1)
        det = np.linalg.det(boost_block("right", p)) * np.linalg.det(
            boost_block("left", p)
        )
        assert abs(det - 1.0) < 1e-12

    def test_handedness_difference_vanishes_iff_at_rest(self):
        at_rest = FourMomentum(1.0, 0.0, 0.4, 0.2)
        moving = FourMomentum(1.0, 1e-3, 0.4, 0.2)
        assert np.max(np.abs(
            boost_block("right", at_rest) - boost_block("left", at_rest))) == 0.0
        assert np.max(np.abs(
            boost_block("right", moving) - boost_block("left", moving))) > 0.0

    def test_massless_rejected(self):
        with pytest.raises(MasslessError):
            boost_block("right", FourMomentum(0.0, 1.0, 0.0, 0.0))

    def test_matches_naive_formula_at_moderate_boost(self, rng):
        # cancellation-free entries agree with the textbook expression
        p = FourMomentum(1.0, 3.0, 2.2, 5.1)
        e = p.energy
        naive = math.sqrt((e + 1) / 2.0) * (
            np.eye(2) + (p.vector[0] * np.array([[0, 1], [1, 0]])
                         + p.vector[1] * np.array([[0, -1j], [1j, 0]])
                         + p.vector[2] * np.diag([1, -1])) / (e + 1)
        )
        np.testing.assert_allclose(boost_block("right", p), naive, rtol=1e-14)

    def test_eigenfactor_matches_matrix_action(self):
        p = FourMomentum(1.0, 40.0, 1.0, 0.7)
        plus = np.array([math.cos(0.5) * np.exp(-0.35j),
                         math.sin(0.5) * np.exp(0.35j)])
        out = boost_block("left", p) @ plus
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
        p = FourMomentum(1.5, 2.5, 0.7, 0.1)
        assert math.isclose(p.energy**2 - p.pmag**2, p.m**2, rel_tol=1e-14)

    def test_vector_components(self):
        p = FourMomentum(1.0, 2.0, math.pi / 2, 0.0)
        np.testing.assert_allclose(p.vector, [2.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(p.four_vector[0], math.hypot(1.0, 2.0))

    def test_reflection_reverses_spatial_part(self):
        p = FourMomentum(1.0, 3.0, 0.8, 2.4)
        r = p.reflected()
        np.testing.assert_allclose(r.vector, -p.vector, atol=1e-14)
        assert r.energy == p.energy

    @pytest.mark.parametrize(
        "kwargs",
        [dict(m=-1.0, pmag=0.0), dict(m=1.0, pmag=-2.0),
         dict(m=1.0, pmag=1.0, theta=4.0), dict(m=float("nan"), pmag=0.0)],
    )
    def test_invalid_inputs(self, kwargs):
        with pytest.raises(ValueError):
            FourMomentum(**{"theta": 0.0, "phi": 0.0, **kwargs})


class TestBlochDirection:
    def test_recovers_construction_angles(self, rng):
        for _ in range(50):
            t = math.acos(rng.uniform(-0.999, 0.999))
            f = rng.uniform(0, 2 * math.pi)
            block = np.array([math.cos(t / 2) * np.exp(-0.5j * f),
                              math.sin(t / 2) * np.exp(0.5j * f)])
            tb, fb = bloch_direction_batch(block[0], block[1])
            assert abs(tb - t) < 1e-12
            assert abs(math.remainder(fb - f, 2 * math.pi)) < 1e-9

    def test_poles(self):
        assert bloch_direction_batch(1 + 0j, 0j)[0] == 0.0
        assert bloch_direction_batch(0j, 1 + 0j)[0] == math.pi
