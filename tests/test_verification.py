"""The verify class checks' miss arithmetic, pinned where it counts misses,
and the momentum checks' independence of their row block size.

At the default tolerances both class checks count 0 misses, so the way a
miss is counted goes untested there.  Loose thresholds turn rows away from
their class and category; these pins hold the exact counts and details.
"""
import pytest

from spinorlab import verification
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
