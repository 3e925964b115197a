"""Numpy batch kernels: the one implementation behind every analysis path.

Each kernel takes an (N, 4) complex128 array, one spinor per row, and
expands complex products into explicit real and imaginary parts.  The
evaluation order is part of the output format: the golden reports and the
sample bytes depend on it.

Kernel contracts
----------------
columns(psi)                   -> the 8 contiguous float columns of psi
bilinears(psi, cols=None)      -> sigma, omega (N,); j, k as tuples of 4
                                  (N,) columns
tensor(cols)                   -> the 6 (N,) columns of S, from any rows'
                                  columns; callers evaluate it only for the
                                  rows whose sigma and omega both test zero
helicity_residuals(psi, nz, nx, ny, cols=None)
                               -> ||M b - b||, ||M b + b||, ||b|| for the
                                  right then the left block, M = sigma.n,
                                  with (nx, ny, nz) from algebra.unit_vectors
dirac_apply_shift(psi, e, m, px, py, pz, shift)
                               -> (N,4) gamma_mu p^mu psi - shift psi

The Dirac products are compensated because for a Dirac-type spinor an image
of size E ||psi|| cancels against m psi; plain products would leave a
relative residual of order eps E/m.  Each output component is a four-term
dot product whose product errors (Veltkamp splitting) and sum errors
(two-sum) are added back, so the dot product of the rounded matrix entries
is as accurate as evaluating it in twice the working precision (Ogita, Rump
and Oishi, "Accurate sum and dot product", SIAM J. Sci. Comput. 26, 2005).
The entries E +- pz are themselves rounded before the dot product, so the
kernel's own error still grows like eps E/m.
"""
import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1 (Veltkamp splitting constant)


def _two_prod(a, b):
    # exact product: a*b = p + e
    p = a * b
    ca = _SPLIT * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLIT * b
    bh = cb - (cb - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def _two_sum(a, b):
    s = a + b
    t = s - a
    e = (a - (s - t)) + (b - t)
    return s, e


def _dot4(a0, b0, a1, b1, a2, b2, a3, b3):
    # compensated a0*b0 + a1*b1 + a2*b2 + a3*b3
    s, err = _two_prod(a0, b0)
    p, pe = _two_prod(a1, b1)
    s, se = _two_sum(s, p)
    err = err + (pe + se)
    p, pe = _two_prod(a2, b2)
    s, se = _two_sum(s, p)
    err = err + (pe + se)
    p, pe = _two_prod(a3, b3)
    s, se = _two_sum(s, p)
    err = err + (pe + se)
    return s + err


def _sum_diff(a, b):
    return a + b, a - b


def columns(psi):
    """The eight columns (re0, im0, ..., re3, im3) of the (N, 8) float view
    of an (N, 4) complex array, each one contiguous."""
    x = np.ascontiguousarray(psi, dtype=np.complex128).view(np.float64)
    return tuple(np.ascontiguousarray(x.T))


def bilinears(psi, cols=None):
    """sigma, omega, J and K of every row of psi; ``cols`` are its
    :func:`columns` when the caller holds them already."""
    ar, ai, br, bi, cr, ci, dr, di = columns(psi) if cols is None else cols

    # A product sum shared by two outputs is computed once and dropped as
    # soon as both are formed.  Only identical expressions are shared
    # (products commute exactly); a negated one would flip the sign of an
    # exact zero.
    sigma = 2.0 * ((ar * cr + ai * ci) + (br * dr + bi * di))
    omega = 2.0 * ((ar * ci - ai * cr) + (br * di - bi * dr))

    r, r3 = _sum_diff(ar * ar + ai * ai, br * br + bi * bi)
    l, l3 = _sum_diff(cr * cr + ci * ci, dr * dr + di * di)
    r1 = 2.0 * (ar * br + ai * bi)
    r2 = 2.0 * (ar * bi - ai * br)
    l1 = 2.0 * (cr * dr + ci * di)
    l2 = 2.0 * (cr * di - ci * dr)

    j = (r + l, r1 - l1, r2 - l2, r3 - l3)
    k = (r - l, r1 + l1, r2 + l2, r3 + l3)
    return sigma, omega, j, k


def tensor(cols):
    """The six columns of S, in the order of :mod:`bilinears`, from the
    :func:`columns` of some rows (whole or gathered)."""
    ar, ai, br, bi, cr, ci, dr, di = cols
    # product sums shared as in bilinears; S^{12} repeats sigma's two sums
    w3_re = (ar * cr + ai * ci) - (br * dr + bi * di)
    w1_re, q_re = _sum_diff(cr * br + ci * bi, dr * ar + di * ai)
    w1_im, q_im = _sum_diff(cr * bi - ci * br, dr * ai - di * ar)
    w3_im = (cr * ai - ci * ar) - (dr * bi - di * br)
    return (
        -2.0 * w1_im,  # S^{01}
        2.0 * q_re,    # S^{02}
        -2.0 * w3_im,  # S^{03}
        2.0 * w3_re,   # S^{12}
        -2.0 * q_im,   # S^{13}
        2.0 * w1_re,   # S^{23}
    )


def helicity_residuals(psi, nz, nx, ny, cols=None):
    """Eigen-residual numerators of sigma.n on each chiral block.

    (nx, ny, nz) are the unit vectors n of :func:`algebra.unit_vectors`, and
    ``cols`` the :func:`columns` of psi when the caller holds them already.
    Returns ||M b - b||, ||M b + b|| and ||b|| for the right block, then the
    same three for the left block (all 2-norms).
    """
    if cols is None:
        cols = columns(psi)
    out = []
    for lo in (0, 4):
        x0r, x0i, x1r, x1i = cols[lo:lo + 4]
        m0r = nz * x0r + (nx * x1r + ny * x1i)
        m0i = nz * x0i + (nx * x1i - ny * x1r)
        m1r = (nx * x0r - ny * x0i) - nz * x1r
        m1i = (nx * x0i + ny * x0r) - nz * x1i
        res_p = np.sqrt(
            ((m0r - x0r) ** 2 + (m0i - x0i) ** 2)
            + ((m1r - x1r) ** 2 + (m1i - x1i) ** 2)
        )
        res_m = np.sqrt(
            ((m0r + x0r) ** 2 + (m0i + x0i) ** 2)
            + ((m1r + x1r) ** 2 + (m1i + x1i) ** 2)
        )
        nrm = np.sqrt((x0r * x0r + x0i * x0i) + (x1r * x1r + x1i * x1i))
        out.extend([res_p, res_m, nrm])
    return tuple(out)


def _row_max_abs(cols):
    """max |c| over the columns ``cols`` (equal-shape arrays, such as the
    ``.T`` of an (N, k) array), NaN where a row holds NaN (as np.max)."""
    # one pass per column: numpy's reduce over a short last axis costs about
    # 15 times as much
    first, *rest = cols
    out = np.abs(first, out=np.empty(np.shape(first)))
    col = np.empty_like(out)
    for c in rest:
        np.maximum(out, np.abs(c, out=col), out=out)
    return out


def _e_plus_minus_pz(e, m, px, py, pz):
    """(E + pz, E - pz), each through (m^2 + px^2 + py^2)/(E -+ pz) where
    the direct form would cancel.  The branch np.where discards may divide
    by zero at a pole; it is silenced, never used."""
    mt2 = m * m + (px * px + py * py)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.where(pz >= 0.0, e + pz, mt2 / (e - pz)),
                np.where(pz <= 0.0, e - pz, mt2 / (e + pz)))


def dirac_apply_shift(psi, e, m, px, py, pz, shift):
    """gamma_mu p^mu psi - shift psi, one momentum per row.

    Matrix entries E +- pz are evaluated through (m^2 + px^2 + py^2)/(E -+ pz)
    when the direct form would cancel, and every output component is a
    compensated four-term dot product, so the result stays accurate at
    pmag/m ratios of order 1e3.
    """
    e = np.asarray(e, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    pz = np.asarray(pz, dtype=np.float64)
    shift = np.asarray(shift, dtype=np.float64)

    ezp, ezm = _e_plus_minus_pz(e, m, px, py, pz)

    p0r, p0i, p1r, p1i, p2r, p2i, p3r, p3i = columns(psi)

    out = np.empty((len(p0r), 4), dtype=np.complex128)
    # top block: (E + sigma.p) acting on (psi2, psi3)
    out[:, 0] = _dot4(ezp, p2r, px, p3r, py, p3i, -shift, p0r) + 1j * _dot4(
        ezp, p2i, px, p3i, -py, p3r, -shift, p0i
    )
    out[:, 1] = _dot4(px, p2r, -py, p2i, ezm, p3r, -shift, p1r) + 1j * _dot4(
        px, p2i, py, p2r, ezm, p3i, -shift, p1i
    )
    # bottom block: (E - sigma.p) acting on (psi0, psi1)
    out[:, 2] = _dot4(ezm, p0r, -px, p1r, -py, p1i, -shift, p2r) + 1j * _dot4(
        ezm, p0i, -px, p1i, py, p1r, -shift, p2i
    )
    out[:, 3] = _dot4(-px, p0r, py, p0i, ezp, p1r, -shift, p3r) + 1j * _dot4(
        -px, p0i, -py, p0r, ezp, p1i, -shift, p3i
    )
    return out
