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
* momenta: mass log-uniform on MASS_RANGE = [0.1, 10], pmag/m log-uniform
  over the requested ratio range, direction as above

``FAMILY_PARAMS`` maps each constructor family to its parameter draw, which
returns the batch constructor's per-row arguments as (N,) arrays keyed by
argument name; both helicity families share :func:`single_helicity_params`.
``FAMILY_CONSTRUCTORS`` maps the family to that constructor (rows and n).
:func:`campaign` is the one engine over them, behind sample mode and every
sampled verify campaign of raw or constructed spinors: it draws
``RAW_DRAW_ROWS`` raw or ``DRAW_ROWS`` constructed rows at a time,
constructs and analyses one ``SAMPLE_BLOCK_ROWS`` block at a time, and adds
up one class x helicity-category x charge-conjugation-state count table and
the constraint maxima.  A constructed row does not depend on the rows built
with it, and a raw row does not depend on the chunk it is drawn in.
Each block's row verdicts (class, helicity category and C state) come from
one :func:`classify.analyze` pass, which evaluates S only for the singular
rows, where sigma and omega both test zero: a random_raw or single_helicity
block, all regular, skips it.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .classify import CATEGORY_NAMES, analyze
from .factory import (
    dual_helicity_batch,
    self_conjugate_batch,
    single_helicity_batch,
    weyl_batch,
)
from .tolerances import Tolerances

MIN_RAW_NORM_SQ = 1e-6
MIN_AMPLITUDE = 1e-3
MIN_SIN_THETA = 1e-6
STEER_MARGIN = 0.05
MASS_RANGE = (0.1, 10.0)

# Rows handled at a time in a campaign: the batch constructors, the raw
# norm test and the analysis run one block at a time, which keeps their
# per-row temporaries in cache and bounds their memory, whatever the count.
SAMPLE_BLOCK_ROWS = 8192
# Constructor-family rows drawn at a time in a campaign, from its one
# generator, so that memory does not grow with the count.  A family draws
# all of a chunk's arguments in turn, so the chunk fixes the order of its
# RNG calls: another size would move the reports of counts above it.
DRAW_ROWS = 16 * SAMPLE_BLOCK_ROWS
# Rows drawn at a time for random_raw, whose rows do not depend on the chunk
# (the generator fills them one after another, and the rejection keeps them
# in stream order): 2 MB of components, which fits one core's 2 MB L2 on
# the 2-CPU Xeon it was measured on.  Chunks of DRAW_ROWS, 8 MB, took a
# 1e6-row sample's peak RSS 6 MB higher.  Chunks
# of several blocks keep glibc from returning the blocks' freed memory to
# the OS after every block: its dynamic mmap and trim thresholds follow the
# size of the last large free, and freeing a chunk is that free, so each
# chunk is a fresh allocation on purpose.  At 1e6 rows, four blocks a chunk
# took 7.5k minor page faults; two blocks peaked 1 MB lower but took 42k
# and ran slower, and one block took 66k.  Drawing every chunk into one
# reused buffer (Generator.random(out=...), the same bits) took 33k.
RAW_DRAW_ROWS = 4 * SAMPLE_BLOCK_ROWS


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
        # the bits of uniform(-1.0, 1.0, size=(n, 8)), which forms -1 + 2u
        # from the same doubles u one call at a time; the bulk fill and two
        # in-place passes are faster.  (re, im) pairs are complex128 in
        # memory, and uniform(-1, 1) never returns -0.0, so this equals
        # re + 1j * im bit for bit
        x = r.random((n, 8))
        x *= 2.0
        x -= 1.0
        return x.view(np.complex128)

    def keep(psi):
        # |psi|^2 as c_eigen_residuals forms it, on the (n, 8) float view,
        # with no (n, 4) temporaries.  The (n,) sums are formed whole: a
        # block-wise bool mask took the same 7.5k minor page faults at 1e6
        # rows in chunks of RAW_DRAW_ROWS, and more in chunks of DRAW_ROWS
        # (11k instead of 6.7k).
        x = psi.view(np.float64)
        return np.einsum("ij,ij->i", x, x) >= MIN_RAW_NORM_SQ

    return _rejection_fill(rng, count, draw, keep)


def random_directions(rng, count: int):
    def draw(r, n):
        ct = r.uniform(-1.0, 1.0, size=n)
        ph = r.uniform(0.0, 2.0 * np.pi, size=n)
        return np.stack([np.arccos(ct), ph], axis=1)

    pairs = _rejection_fill(
        rng, count, draw, lambda tp: np.abs(np.sin(tp[:, 0])) >= MIN_SIN_THETA
    )
    return pairs[:, 0], pairs[:, 1]


def random_amplitudes(rng, count: int) -> np.ndarray:
    def draw(r, n):
        # bit for bit re + 1j * im, as in random_raw_spinors
        return r.uniform(-1.0, 1.0, size=(n, 2)).view(np.complex128)[:, 0]

    return _rejection_fill(rng, count, draw, lambda z: np.abs(z) >= MIN_AMPLITUDE)


def random_unit_phases(rng, count: int) -> np.ndarray:
    ang = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return np.exp(1j * ang)


def random_momenta(rng, count: int, ratio=(1e-3, 1e3)):
    """Arrays (m, pmag, theta, phi) of on-shell momenta."""
    m = np.exp(rng.uniform(np.log(MASS_RANGE[0]), np.log(MASS_RANGE[1]),
                           size=count))
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


def _random_signs(rng, count: int) -> np.ndarray:
    return np.where(rng.integers(0, 2, size=count) == 0, 1, -1)


def single_helicity_params(rng, count: int, steer: int | None = None) -> dict:
    """Single- or dual-helicity arguments; steer picks the targeted regular
    subclass of a single-helicity spinor."""
    theta, phi = random_directions(rng, count)
    sign = _random_signs(rng, count)
    if steer is None:
        a = random_amplitudes(rng, count)
        c = random_amplitudes(rng, count)
    else:
        a, c = steered_amplitudes(rng, count, steer)
    return {"sign": sign, "a": a, "c": c, "theta": theta, "phi": phi}


def self_conjugate_params(rng, count: int) -> dict:
    sign = _random_signs(rng, count)
    c = random_amplitudes(rng, count)
    d = random_amplitudes(rng, count)
    return {"sign": sign, "c": c, "d": d}


def weyl_params(rng, count: int) -> dict:
    right = rng.integers(0, 2, size=count) == 0
    b0 = random_amplitudes(rng, count)
    b1 = random_amplitudes(rng, count)
    return {"right": right, "b0": b0, "b1": b1}


# Plain dicts whose values are functions: callers look an entry up at call
# time, so a function swapped into a dict (as a tracer does) is the one run.
FAMILY_PARAMS = {
    "single_helicity": single_helicity_params,
    "dual_helicity": single_helicity_params,
    "self_conjugate": self_conjugate_params,
    "weyl": weyl_params,
}
FAMILY_CONSTRUCTORS = {
    "single_helicity": single_helicity_batch,
    "dual_helicity": dual_helicity_batch,
    "self_conjugate": self_conjugate_batch,
    "weyl": weyl_batch,
}


class Campaign(NamedTuple):
    """Aggregates of :func:`campaign`."""
    joint: np.ndarray      # (7, ncat, 3) int64 rows by class (0 = unclassifiable),
                           # CAT_* code (one column for random_raw) and C state:
                           # C = +1, C = -1 or neither, at EXACT
    fpk_max: np.ndarray    # (3,) worst constraint residuals


def campaign(family: str, rng, count: int, tol: Tolerances,
             steer: int | None = None) -> Campaign:
    """Draw, construct and analyse ``count`` rows of ``family`` from ``rng``.

    Rows are drawn in chunks, RAW_DRAW_ROWS at a time for random_raw and
    DRAW_ROWS for a constructor family, and built and analysed one
    SAMPLE_BLOCK_ROWS block at a time, so memory does not grow with
    ``count``; counts add up and maxima combine in any order, so no aggregate
    depends on the block size.  random_raw rows do not depend on the chunk
    size; a constructor family's do once ``count`` exceeds DRAW_ROWS, because
    each chunk draws all of its parameters in turn.  ``steer`` is passed on
    to :func:`single_helicity_params`.
    """
    raw = family == "random_raw"
    extra = {} if steer is None else {"steer": steer}
    joint = np.zeros((7, 1 if raw else len(CATEGORY_NAMES), 3), dtype=np.int64)
    fpk_max = np.full(3, -np.inf)
    draw_rows = RAW_DRAW_ROWS if raw else DRAW_ROWS
    for offset in range(0, count, draw_rows):
        rows = min(draw_rows, count - offset)
        if raw:
            chunk = random_raw_spinors(rng, rows)
        else:
            params = FAMILY_PARAMS[family](rng, rows, **extra)
            construct = FAMILY_CONSTRUCTORS[family]
        for start in range(0, rows, SAMPLE_BLOCK_ROWS):
            if raw:
                block, n = chunk[start:start + SAMPLE_BLOCK_ROWS], None
            else:
                block, n = construct(**{
                    key: value[start:start + SAMPLE_BLOCK_ROWS]
                    for key, value in params.items()})
            res = analyze(block, n, tol)
            cells = res.classes if raw else res.classes * joint.shape[1] + res.categories
            cells = cells * 3 + res.c_states
            joint += np.bincount(cells, minlength=joint.size).reshape(joint.shape)
            fpk_max = np.maximum(fpk_max, res.fpk_max)
            del block
        # release the chunk before the next one is drawn; a raw block is a
        # view of it, so the block above goes first
        chunk = params = None
    return Campaign(joint, fpk_max)
