"""Seeded random distributions for property campaigns and sample mode.

Every campaign draws through these helpers so that the distributions are
documented in one place and a (seed, count) pair reproduces a run exactly:

* raw spinors: eight real degrees of freedom uniform on [-1, 1], rejecting
  draws with psi^dag psi < 1e-6
* directions: cos(theta) uniform on [-1, 1], phi uniform on [0, 2 pi),
  rejecting |sin(theta)| < 1e-6 so the helicity component forms stay finite
* amplitudes: real and imaginary parts uniform on [-1, 1], rejecting
  modulus < 1e-3 (degenerate amplitudes collapse dual-helicity shapes onto
  single-block ones)
* momenta: mass log-uniform on [0.1, 10], pmag/m log-uniform over the
  requested ratio range, direction as above

Family draws return a batch constructor's ``(components, theta, phi)``
plus ``params``, its per-row parameter arrays keyed by argument name.
"""
from __future__ import annotations

import numpy as np

from .factory import (
    dual_helicity_batch,
    self_conjugate_batch,
    single_helicity_batch,
    weyl_batch,
)

MIN_RAW_NORM_SQ = 1e-6
MIN_AMPLITUDE = 1e-3
MIN_SIN_THETA = 1e-6
STEER_MARGIN = 0.05


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _rejection_fill(rng, count, draw, keep):
    """Draw batches until ``count`` samples satisfy ``keep``; a first batch
    that is kept whole is returned as drawn, without a copy."""
    chunks = []
    have = 0
    while have < count:
        cand = draw(rng, count - have)
        mask = keep(cand)
        if not chunks and mask.all():
            return cand
        chunks.append(cand[mask])
        have += len(chunks[-1])
    return np.concatenate(chunks)


def random_raw_spinors(rng, count: int) -> np.ndarray:
    def draw(r, n):
        # (re, im) pairs are complex128 in memory; uniform(-1, 1) never
        # returns -0.0, so this equals re + 1j * im bit for bit
        return r.uniform(-1.0, 1.0, size=(n, 8)).view(np.complex128)

    return _rejection_fill(
        rng, count, draw,
        lambda psi: np.sum(np.abs(psi) ** 2, axis=1) >= MIN_RAW_NORM_SQ,
    )


def random_directions(rng, count: int):
    def draw(r, n):
        ct = r.uniform(-1.0, 1.0, size=n)
        ph = r.uniform(0.0, 2.0 * np.pi, size=n)
        return np.stack([np.arccos(ct), ph], axis=1)

    pairs = _rejection_fill(
        rng, count, draw, lambda tp: np.abs(np.sin(tp[:, 0])) >= MIN_SIN_THETA
    )
    return pairs[:, 0], pairs[:, 1]


def random_amplitudes(rng, count: int, min_mod: float = MIN_AMPLITUDE) -> np.ndarray:
    def draw(r, n):
        dof = r.uniform(-1.0, 1.0, size=(n, 2))
        return dof[:, 0] + 1j * dof[:, 1]

    return _rejection_fill(rng, count, draw, lambda z: np.abs(z) >= min_mod)


def random_unit_phases(rng, count: int) -> np.ndarray:
    ang = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return np.exp(1j * ang)


def random_momenta(rng, count: int, ratio=(1e-3, 1e3), mass=(0.1, 10.0)):
    """Arrays (m, pmag, theta, phi) of on-shell momenta."""
    m = np.exp(rng.uniform(np.log(mass[0]), np.log(mass[1]), size=count))
    r = np.exp(rng.uniform(np.log(ratio[0]), np.log(ratio[1]), size=count))
    theta, phi = random_directions(rng, count)
    return m, m * r, theta, phi


def steered_amplitudes(rng, count: int, target_class: int):
    """(a, c) amplitude pairs steering a single-helicity spinor's subclass.

    The regular subclass is set by conj(a)*c: both real and imaginary parts
    nonzero gives class 1, real multiples give class 2 (imaginary part zero
    exactly), imaginary multiples give class 3.  Class-1 draws keep both
    parts above STEER_MARGIN * |a| |c| so the verdict is threshold-safe.
    """
    if target_class == 1:
        def draw(r, n):
            a = random_amplitudes(r, n)
            c = random_amplitudes(r, n)
            return np.stack([a, c], axis=1)

        def keep(ac):
            cross = np.conj(ac[:, 0]) * ac[:, 1]
            floor = STEER_MARGIN * np.abs(ac[:, 0]) * np.abs(ac[:, 1])
            return (np.abs(cross.real) >= floor) & (np.abs(cross.imag) >= floor)

        pairs = _rejection_fill(rng, count, draw, keep)
        return pairs[:, 0], pairs[:, 1]
    if target_class in (2, 3):
        a = random_amplitudes(rng, count)
        rho = _rejection_fill(
            rng, count,
            lambda r, n: r.uniform(-1.0, 1.0, size=n),
            lambda x: np.abs(x) >= 0.1,
        )
        c = (rho if target_class == 2 else 1j * rho) * a
        return a, c
    raise ValueError(f"target_class must be 1, 2 or 3, got {target_class!r}")


def draw_single_helicity(rng, count: int, steer: int | None = None):
    """Single-helicity draws; steer picks the targeted regular subclass."""
    theta, phi = random_directions(rng, count)
    sign = np.where(rng.integers(0, 2, size=count) == 0, 1, -1)
    if steer is None:
        a = random_amplitudes(rng, count)
        c = random_amplitudes(rng, count)
    else:
        a, c = steered_amplitudes(rng, count, steer)
    return (*single_helicity_batch(sign, a, c, theta, phi),
            {"sign": sign, "a": a, "c": c})


def draw_dual_helicity(rng, count: int):
    theta, phi = random_directions(rng, count)
    sign = np.where(rng.integers(0, 2, size=count) == 0, 1, -1)
    a = random_amplitudes(rng, count)
    c = random_amplitudes(rng, count)
    return (*dual_helicity_batch(sign, a, c, theta, phi),
            {"sign": sign, "a": a, "c": c})


def draw_self_conjugate(rng, count: int):
    sign = np.where(rng.integers(0, 2, size=count) == 0, 1, -1)
    c = random_amplitudes(rng, count)
    d = random_amplitudes(rng, count)
    return (*self_conjugate_batch(sign, c, d), {"sign": sign, "c": c, "d": d})


def draw_weyl(rng, count: int):
    right = rng.integers(0, 2, size=count) == 0
    b0 = random_amplitudes(rng, count)
    b1 = random_amplitudes(rng, count)
    return (*weyl_batch(right, b0, b1), {"right": right, "b0": b0, "b1": b1})


FAMILY_DRAWS = {
    "single_helicity": draw_single_helicity,
    "dual_helicity": draw_dual_helicity,
    "self_conjugate": draw_self_conjugate,
    "weyl": draw_weyl,
}
