"""The verify class checks' miss arithmetic, pinned where it counts misses,
the momentum checks' independence of their row block size, and a negative
control for each momentum check: rows that break its claim make it fail.

At the default tolerances both class checks count 0 misses, so the way a
miss is counted goes untested there.  Loose thresholds turn rows away from
their class and category; these pins hold the exact counts and details.
"""
import numpy as np
import pytest

from spinorlab import verification
from spinorlab.algebra import theta_conjugate
from spinorlab.factory import boost_bispinor_batch
from spinorlab.tolerances import Tolerances
from spinorlab.verification import check_constructor_class_table, check_helicity_dichotomy

LOOSE_CLASS = Tolerances(eps_class=0.3)
LOOSE_BOTH = Tolerances(eps_class=0.05, eps_helicity=0.05)


@pytest.mark.parametrize("tol, worst, details", [
    (LOOSE_CLASS, 3238,
     "single->1: 1576/3334 off; single->2: 173/3333 off; single->3: 182/3333 off; "
     "dual_helicity: 1307/10000 off; self_conjugate: 0/10000 off; weyl: 0/10000 off"),
    (LOOSE_BOTH, 132,
     "single->1: 71/3334 off; single->2: 0/3333 off; single->3: 0/3333 off; "
     "dual_helicity: 61/10000 off; self_conjugate: 0/10000 off; weyl: 0/10000 off"),
], ids=["loose-class", "loose-both"])
def test_constructor_class_table_misses_pinned(tol, worst, details):
    res = check_constructor_class_table(tol=tol)
    assert (res.worst, res.details) == (worst, details)
    assert (res.passed, res.count) == (False, 40_000)


@pytest.mark.parametrize("tol, worst, details", [
    (LOOSE_CLASS, 9697,
     "single_helicity: 4137/10000 off; dual_helicity: 5560/10000 off; "
     "self_conjugate: 0/10000 off; weyl: 0/10000 off"),
    (LOOSE_BOTH, 2368,
     "single_helicity: 517/10000 off; dual_helicity: 1851/10000 off; "
     "self_conjugate: 0/10000 off; weyl: 0/10000 off"),
], ids=["loose-class", "loose-both"])
def test_helicity_dichotomy_misses_pinned(tol, worst, details):
    res = check_helicity_dichotomy(tol=tol)
    assert (res.worst, res.details) == (worst, details)
    assert (res.passed, res.count) == (False, 40_000)


def test_momentum_checks_do_not_depend_on_the_block_size(monkeypatch):
    # every row's residual depends on that row alone, and the per-block
    # maxima and minima fold exactly, so a block size that divides nothing
    # and one block of all 10,000 rows give the default's results bit for bit
    default = verification.MOMENTUM_BLOCK_ROWS
    checks = (verification.check_parity_dirac_link,
              verification.check_dual_helicity_dirac,
              verification.check_theta_link)
    for seed in (0, 11):
        results = []
        for rows in (verification.MOMENTUM_BLOCK_ROWS, 997, 10_000):
            monkeypatch.setattr(verification, "MOMENTUM_BLOCK_ROWS", rows)
            results.append([check(seed) for check in checks])
        for got in results[1:]:
            assert got == results[0]
            assert [r.worst.hex() for r in got] == [r.worst.hex() for r in results[0]]

    # klein-gordon and boost-inverse draw 1,000 rows: 997 splits them into
    # two blocks, the second of 3 rows
    checks = (verification.check_klein_gordon, verification.check_boost_inverse)
    for seed in (0, 11):
        results = []
        for rows in (default, 997, 1):
            monkeypatch.setattr(verification, "MOMENTUM_BLOCK_ROWS", rows)
            results.append([check(seed) for check in checks])
        for got in results[1:]:
            assert got == results[0]
            assert [r.worst.hex() for r in got] == [r.worst.hex() for r in results[0]]


def _fails(result):
    assert result.passed is False, result
    return result


def test_parity_dirac_dynamics_fails_off_the_parity_link(monkeypatch):
    # the left block moved off the link by 1e-6 of its norm, in a random
    # complex direction: the worst Dirac residual reaches about 1e-4
    linked = verification.parity_linked_batch
    rng = np.random.default_rng(3)

    def off_link(helicity, *momentum):
        psis = linked(helicity, *momentum)
        kick = rng.normal(size=(len(psis), 2)) + 1j * rng.normal(size=(len(psis), 2))
        kick *= np.linalg.norm(psis[:, 2:], axis=1, keepdims=True)
        psis[:, 2:] += 1e-6 * kick / np.linalg.norm(kick, axis=1, keepdims=True)
        return psis

    monkeypatch.setattr(verification, "parity_linked_batch", off_link)
    assert _fails(verification.check_parity_dirac_link()).worst > 1e-5


@pytest.mark.parametrize("parity", [1, -1], ids=["P-even", "P-odd"])
def test_dual_helicity_dirac_fails_on_parity_eigenstates(monkeypatch, parity):
    # rows whose rest left block is parity times the right one are parity
    # eigenstates: boosted, they obey the Dirac dynamics on the +m (P-even)
    # or -m (P-odd) branch, and the Dirac operator maps each onto its own line
    dual = verification.dual_helicity_batch

    def eigen_rows(sign, a, c, theta, phi):
        cols, n = dual(sign, a, c, theta, phi)
        return (*cols[:4], *(parity * x for x in cols[:4])), n

    monkeypatch.setattr(verification, "dual_helicity_batch", eigen_rows)
    res = _fails(verification.check_dual_helicity_dirac())
    assert res.worst < res.threshold  # the flip defects still vanish
    branch, other = ("+m", "-m") if parity > 0 else ("-m", "+m")
    assert f"{branch} 0.000" in res.details and f"{other} 2.000" in res.details


def test_theta_link_fails_with_a_one_sided_phase(monkeypatch):
    # zeta Theta conj(B_left block) against B_right (Theta conj(block)): the
    # unit phase on one side only leaves a residual |zeta - 1|
    def one_sided(blocks, zeta, frame):
        boosted = boost_bispinor_batch(
            np.concatenate([theta_conjugate(blocks), blocks], axis=-1), frame)
        lhs = zeta[:, None] * theta_conjugate(boosted[:, 2:])
        return (np.linalg.norm(lhs - boosted[:, :2], axis=-1)
                / np.linalg.norm(lhs, axis=-1))

    monkeypatch.setattr(verification, "theta_link_residuals", one_sided)
    assert _fails(verification.check_theta_link()).worst > 1e-3


def test_klein_gordon_fails_off_shell(monkeypatch):
    # the matrices of p (1 + 1e-9), whose mass is m (1 + 1e-9): the square
    # misses m^2 by about 2e-9 m^2
    matrices = verification.dirac_matrix_batch
    monkeypatch.setattr(verification, "dirac_matrix_batch",
                        lambda frame: matrices(frame) * (1 + 1e-9))
    assert _fails(verification.check_klein_gordon()).worst > 1e-9


def test_boost_inverse_fails_for_same_handed_boosts(monkeypatch):
    # the right-handed boost in place of the left-handed one: B_R B_R is
    # not the identity once pmag is not small against m
    boost = verification.boost_block_batch
    monkeypatch.setattr(verification, "boost_block_batch", lambda side, frame: boost(1, frame))
    assert _fails(verification.check_boost_inverse()).worst > 1.0
