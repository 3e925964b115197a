"""The verify class checks' miss arithmetic, pinned where it counts misses.

At the default tolerances both class checks count 0 misses, so the way a
miss is counted goes untested there.  Loose thresholds turn rows away from
their class and category; these pins hold the exact counts and details.
"""
import pytest

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
