"""Draw distributions: documented constraints and reproducibility."""
import hashlib
import math

import numpy as np
import pytest

import oracles
from spinorlab import (
    BiSpinor,
    FourMomentum,
    boost_bispinor,
    build_dual_helicity,
    build_parity_linked,
    build_self_conjugate,
    build_single_helicity,
    build_weyl,
    c_eigen_check,
    classify_report,
    dual_helicity_partner,
    sampling,
)
from spinorlab.algebra import momentum_components, unit_vectors
from spinorlab.classify import CATEGORY_NAMES, analyze
from spinorlab.factory import (
    boost_bispinor_batch,
    dual_helicity_partner_batch,
    parity_linked_batch,
)
from spinorlab.tolerances import DEFAULT_TOLERANCES


def test_raw_spinors_are_the_drawn_pairs_bit_for_bit():
    # the complex128 view of the (re, im) pairs against re + 1j * im
    arr = sampling.random_raw_spinors(sampling.rng_for(3), 5000)
    dof = sampling.rng_for(3).uniform(-1.0, 1.0, size=(5000, 8))
    expected = dof[:, 0::2] + 1j * dof[:, 1::2]
    assert arr.shape == (5000, 4)
    np.testing.assert_array_equal(arr.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("seed", [1, 7, 12])
def test_raw_draw_is_uniform_bit_for_bit(seed):
    # the bulk fill scaled in place against uniform(-1.0, 1.0), past one chunk
    rows = sampling.DRAW_ROWS + 5
    arr = sampling.random_raw_spinors(sampling.rng_for(seed), rows)
    dof = sampling.rng_for(seed).uniform(-1.0, 1.0, size=(rows, 8))
    assert arr.view(np.float64).tobytes() == dof.tobytes()


def test_raw_draws_do_not_depend_on_the_chunk_size(monkeypatch):
    # a norm floor of 2.0 rejects about 22% of the candidates, so each draw
    # refills its rejections; the rows kept are the stream's accepted rows
    # in order, however the draw is split
    monkeypatch.setattr(sampling, "MIN_RAW_NORM_SQ", 2.0)
    count = sampling.RAW_DRAW_ROWS + 5
    whole = sampling.random_raw_spinors(sampling.rng_for(13), count)
    for rows in (1, 7, sampling.SAMPLE_BLOCK_ROWS, sampling.RAW_DRAW_ROWS):
        rng = sampling.rng_for(13)
        parts = [sampling.random_raw_spinors(rng, min(rows, count - start))
                 for start in range(0, count, rows)]
        np.testing.assert_array_equal(np.concatenate(parts).view(np.uint64),
                                      whole.view(np.uint64))
    # so a raw campaign's aggregates do not depend on its chunk size either
    count = sampling.DRAW_ROWS + 5
    results = []
    for rows in (sampling.RAW_DRAW_ROWS, sampling.SAMPLE_BLOCK_ROWS, sampling.DRAW_ROWS):
        monkeypatch.setattr(sampling, "RAW_DRAW_ROWS", rows)
        results.append(sampling.campaign("random_raw", sampling.rng_for(13), count,
                                         DEFAULT_TOLERANCES))
    for result in results[1:]:
        np.testing.assert_array_equal(result.joint, results[0].joint)
        np.testing.assert_array_equal(result.fpk_max.view(np.uint64),
                                      results[0].fpk_max.view(np.uint64))


# sha256 of each family draw's parameters at seed 7, count 2000.  They come
# straight from the generator, so a change in the order of the RNG calls
# moves them even where the constructed spinors keep their class, category
# and constraint residuals (swapping the c and d draws of self_conjugate
# leaves every sample count and the sample bytes as they are).
DRAW_PARAMS_SHA256 = {
    "single_helicity": "3649bf80954a13e8fcf6dde4fe05f46da5218a3f305cff2f8c2e430018a2b6c9",
    "dual_helicity": "3649bf80954a13e8fcf6dde4fe05f46da5218a3f305cff2f8c2e430018a2b6c9",
    "self_conjugate": "2064d114d0bb91c5c7f3c4eb0331f0a0508508b13dbb16ebb3f3b223aac0ae5b",
    "weyl": "a955cf3f1204eac06a7d9c4f9970849745836cf5dd60678b6b217b0329f5ccd8",
}


@pytest.mark.parametrize("family", DRAW_PARAMS_SHA256)
def test_draw_params_pinned(family):
    *_, params = oracles.family_draw(family, sampling.rng_for(7), 2000)
    digest = hashlib.sha256()
    for key in sorted(params):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(params[key]).tobytes())
    assert digest.hexdigest() == DRAW_PARAMS_SHA256[family]


@pytest.mark.parametrize("family, steer", [
    ("single_helicity", None), ("single_helicity", 1), ("single_helicity", 2),
    ("single_helicity", 3), ("dual_helicity", None), ("self_conjugate", None),
    ("weyl", None)])
def test_draws_are_param_draws_then_blockwise_construction(family, steer):
    # a campaign draws the parameters whole and constructs them one block
    # at a time; the whole-array reference draw must give the same bits
    block_rows = sampling.SAMPLE_BLOCK_ROWS
    rows = 2 * block_rows + 3
    extra = {} if steer is None else {"steer": steer}
    arr, n, theta, phi, params = oracles.family_draw(family, sampling.rng_for(31), rows,
                                                     **extra)
    drawn = sampling.FAMILY_PARAMS[family](sampling.rng_for(31), rows, **extra)
    construct = sampling.FAMILY_CONSTRUCTORS[family]
    blocks = [construct(**{key: value[start:start + block_rows]
                           for key, value in drawn.items()})
              for start in range(0, rows, block_rows)]
    want = np.concatenate([block[0] for block in blocks])
    assert arr.dtype == want.dtype
    np.testing.assert_array_equal(arr.view(np.uint64), want.view(np.uint64))
    for got, parts in zip(n, zip(*(block[1] for block in blocks))):
        np.testing.assert_array_equal(got.view(np.uint64),
                                      np.concatenate(parts).view(np.uint64))
    if theta is None:
        # a Bloch family's n is its Bloch vector over its length
        norm = np.sqrt(n[0] ** 2 + n[1] ** 2 + n[2] ** 2)
        assert np.max(np.abs(norm - 1.0)) <= 4 * np.finfo(float).eps
    else:
        # a helicity family hands on the unit vectors of its drawn
        # directions, bit for bit
        np.testing.assert_array_equal(theta, drawn["theta"])
        np.testing.assert_array_equal(phi, drawn["phi"])
        for got, want in zip(n, unit_vectors(theta, phi)):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert set(params) == set(drawn) - {"theta", "phi"}
    for key, value in params.items():
        np.testing.assert_array_equal(value, drawn[key])


def test_same_seed_reproduces_draws():
    a = sampling.random_raw_spinors(sampling.rng_for(3), 500)
    b = sampling.random_raw_spinors(sampling.rng_for(3), 500)
    np.testing.assert_array_equal(a, b)
    m1 = sampling.random_momenta(sampling.rng_for(5), 100)
    m2 = sampling.random_momenta(sampling.rng_for(5), 100)
    for x, y in zip(m1, m2):
        np.testing.assert_array_equal(x, y)


def test_raw_spinors_respect_norm_floor():
    psis = sampling.random_raw_spinors(sampling.rng_for(0), 10_000)
    norms = np.sum(np.abs(psis) ** 2, axis=1)
    assert np.min(norms) >= sampling.MIN_RAW_NORM_SQ
    assert np.max(np.abs(psis.real)) <= 1.0
    assert np.max(np.abs(psis.imag)) <= 1.0


def test_directions_avoid_poles():
    theta, phi = sampling.random_directions(sampling.rng_for(1), 10_000)
    assert np.min(np.abs(np.sin(theta))) >= sampling.MIN_SIN_THETA
    assert np.all((phi >= 0) & (phi < 2 * np.pi))
    # cos(theta) roughly uniform
    assert abs(np.mean(np.cos(theta))) < 0.05


def test_amplitudes_respect_modulus_floor():
    amps = sampling.random_amplitudes(sampling.rng_for(2), 10_000)
    assert np.min(np.abs(amps)) >= sampling.MIN_AMPLITUDE


def test_momenta_on_shell_and_in_range():
    m, pmag, theta, phi = sampling.random_momenta(
        sampling.rng_for(4), 5000, ratio=(1e-2, 1e2)
    )
    lo, hi = sampling.MASS_RANGE
    assert np.all((m >= lo) & (m <= hi))
    ratio = pmag / m
    assert np.all((ratio >= 1e-2) & (ratio <= 1e2))
    e, _, _, _ = momentum_components(m, pmag, theta, phi)
    assert np.all(np.abs(e**2 - pmag**2 - m**2) < 1e-12 * e**2)


def test_steered_amplitudes_patterns():
    rng = sampling.rng_for(6)
    a1, c1 = sampling.steered_amplitudes(rng, 1000, 1)
    cross = np.conj(a1) * c1
    floor = sampling.STEER_MARGIN * np.abs(a1) * np.abs(c1)
    assert np.all(np.abs(cross.real) >= floor)
    assert np.all(np.abs(cross.imag) >= floor)

    # c is a real (imaginary) multiple of a, so conj(a)*c is real (imaginary)
    # up to rounding crumbs far below the 1e-9 classification threshold
    a2, c2 = sampling.steered_amplitudes(rng, 1000, 2)
    cross2 = np.conj(a2) * c2
    assert np.max(np.abs(cross2.imag)) < 1e-15
    assert np.min(np.abs(cross2.real) / (np.abs(a2) * np.abs(c2))) > 1e-3

    a3, c3 = sampling.steered_amplitudes(rng, 1000, 3)
    cross3 = np.conj(a3) * c3
    assert np.max(np.abs(cross3.real)) < 1e-15
    assert np.min(np.abs(cross3.imag) / (np.abs(a3) * np.abs(c3))) > 1e-3


def test_family_draws_carry_directions():
    # each nonzero block is a sigma.n eigenvector along its row's n
    for name in sampling.FAMILY_PARAMS:
        arr, n, _, _, params = oracles.family_draw(name, sampling.rng_for(11), 50)
        assert arr.shape == (50, 4) and arr.dtype == complex
        assert len(n) == 3 and all(np.shape(x) == (50,) for x in n)
        assert all(np.shape(v) == (50,) for v in params.values())
        for row, unit in zip(arr, np.stack(n, axis=1)):
            for block in (row[:2], row[2:]):
                if np.any(block != 0):
                    assert oracles.eigen_sign_along(block, unit) is not None, name


def _direction(theta, phi, i):
    # row i's drawn direction; a Bloch family draws none
    return (None, None) if theta is None else (float(theta[i]), float(phi[i]))


def _scalar_build(family, params, theta, phi):
    p = {key: value.item() for key, value in params.items()}
    if family == "single_helicity":
        pair = "++" if p["sign"] > 0 else "--"
        return build_single_helicity(pair, p["a"], p["c"], theta, phi)
    if family == "dual_helicity":
        pair = "+-" if p["sign"] > 0 else "-+"
        return build_dual_helicity(pair, p["a"], p["c"], theta, phi)
    if family == "self_conjugate":
        return build_self_conjugate(p["sign"], p["c"], p["d"])
    return build_weyl("right" if p["right"] else "left", (p["b0"], p["b1"]))


def _python_components(family, p, theta, phi):
    # each family's formula in Python complex arithmetic, the reference the
    # batch constructors reproduce
    def fraction(sign):
        eph = complex(math.cos(phi), math.sin(phi))
        st, ct = math.sin(theta), math.cos(theta)
        return (st if sign > 0 else -st) * eph / (1.0 + ct if sign > 0 else 1.0 - ct)

    if family == "single_helicity":
        t = fraction(p["sign"])
        return [p["a"], p["a"] * t, p["c"], p["c"] * t]
    if family == "dual_helicity":
        tr, tl = fraction(p["sign"]), fraction(-p["sign"])
        return [p["a"], p["a"] * tr, p["c"], p["c"] * tl]
    if family == "self_conjugate":
        s, c, d = p["sign"], p["c"], p["d"]
        return [-1j * s * d.conjugate(), 1j * s * c.conjugate(), c, d]
    zero = [0j, 0j]
    block = [p["b0"], p["b1"]]
    return block + zero if p["right"] else zero + block


def test_batch_rows_match_python_complex_formulas():
    for family in sampling.FAMILY_PARAMS:
        arr, _, theta, phi, params = oracles.family_draw(family, sampling.rng_for(23), 200)
        for i in range(200):
            row = {key: value[i].item() for key, value in params.items()}
            want = _python_components(family, row, *_direction(theta, phi, i))
            assert arr[i].tolist() == want, (family, i)


def _bits(x):
    return np.asarray(x, dtype=complex).view(np.uint64)


def test_scalar_constructors_are_the_batch_rows():
    # the scalar build_* on a row's inputs gives that row bit for bit,
    # signed zeros included, and so do the boost and the partner; the
    # direction it records is the row's drawn one, or for a Bloch family
    # the one whose unit vectors the row's n rounds
    n = 200
    for family in sampling.FAMILY_PARAMS:
        arr, units, theta, phi, params = oracles.family_draw(
            family, sampling.rng_for(21), n)
        for i in range(n):
            row = {key: value[i] for key, value in params.items()}
            psi = _scalar_build(family, row, *_direction(theta, phi, i))
            np.testing.assert_array_equal(_bits(psi.array), _bits(arr[i]))
            prov = psi.provenance
            if theta is not None:
                assert (prov.theta, prov.phi) == (theta[i], phi[i])
            np.testing.assert_allclose([x[i] for x in units],
                                       unit_vectors(prov.theta, prov.phi),
                                       rtol=0, atol=1e-15)

    rng = sampling.rng_for(22)
    arr, _, theta, phi, params = oracles.family_draw("dual_helicity", rng, n)
    m, pmag, _, _ = sampling.random_momenta(rng, n)
    boosted = boost_bispinor_batch(arr, m, pmag, theta, phi)
    partners = dual_helicity_partner_batch(params["sign"], params["a"],
                                           params["c"], theta, phi, m, pmag)
    linked = parity_linked_batch(params["sign"], m, pmag, theta, phi)
    for i in range(n):
        p = FourMomentum(float(m[i]), float(pmag[i]), float(theta[i]), float(phi[i]))
        row = {key: value[i] for key, value in params.items()}
        psi = boost_bispinor(
            _scalar_build("dual_helicity", row, p.theta, p.phi), p)
        np.testing.assert_array_equal(_bits(psi.array), _bits(boosted[i]))
        np.testing.assert_array_equal(_bits(dual_helicity_partner(psi).array),
                                      _bits(partners[i]))
        np.testing.assert_array_equal(_bits(build_parity_linked(row["sign"].item(), p).array),
                                      _bits(linked[i]))


@pytest.mark.parametrize("family, steer", [
    ("random_raw", None), ("single_helicity", None), ("single_helicity", 2),
    ("single_helicity", 3), ("dual_helicity", None), ("self_conjugate", None),
    ("weyl", None)])
def test_scalar_verdicts_are_the_batch_verdicts(family, steer):
    # every row's class, helicity category and C eigenvalue from analyze
    # equal those of the N=1 route: the row built by build_* and classified
    # along its recorded direction, or a raw row along its drawn one.  A
    # Bloch family's N=1 direction is arctan2 of its Bloch vector, taken
    # back through unit_vectors; the batch reads the normalised vector
    rows = 300
    rng = sampling.rng_for(21)
    if family == "random_raw":
        arr = sampling.random_raw_spinors(rng, rows)
        theta, phi = sampling.random_directions(rng, rows)
        n = unit_vectors(theta, phi)
    else:
        extra = {} if steer is None else {"steer": steer}
        arr, n, theta, phi, params = oracles.family_draw(family, rng, rows, **extra)
    res = analyze(arr, n)
    for i in range(rows):
        if family == "random_raw":
            psi, direction = BiSpinor.from_array(arr[i]), (theta[i], phi[i])
        else:
            row = {key: value[i] for key, value in params.items()}
            psi, direction = _scalar_build(family, row, *_direction(theta, phi, i)), None
        report = classify_report(psi, direction)
        assert res.classes[i] == (report.lounesto.index or 0), (family, i)
        assert CATEGORY_NAMES[res.categories[i]] == report.helicity.category, (family, i)
        assert (1, -1, None)[res.c_states[i]] == c_eigen_check(psi).eigenvalue, (family, i)


def test_unit_phases():
    z = sampling.random_unit_phases(sampling.rng_for(12), 1000)
    np.testing.assert_allclose(np.abs(z), 1.0, atol=1e-15)


@pytest.mark.parametrize("steer", [1, 2, 3])
def test_campaign_steers_every_row_across_draw_chunks(steer):
    # two draw chunks, the second of 5 rows: each draws its steered
    # amplitudes anew, and every row lands in the targeted class
    count = sampling.DRAW_ROWS + 5
    joint = sampling.campaign("single_helicity", sampling.rng_for(41), count,
                              DEFAULT_TOLERANCES, steer=steer).joint
    assert joint[steer].sum() == joint.sum() == count
