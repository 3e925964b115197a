"""Numpy batch kernels: the one implementation behind every analysis path.

A block of N spinors is carried as its eight float :func:`columns` (re0,
im0, ..., re3, im3), which the batch constructors build directly; only the
Dirac kernel takes the (N, 4) complex128 form.  Kernels expand complex
products into explicit real and imaginary parts.  The evaluation order is
part of the output format: the golden reports and the sample bytes depend
on it.

Kernel contracts
----------------
columns(psi)                   -> the 8 contiguous float columns of an
                                  (N, 4) complex array
components(cols)               -> the (N, 4) complex128 array of 8 columns;
                                  the one inverse of columns
bilinears(cols)                -> sigma, omega (N,); j, k as tuples of 4
                                  (N,) columns
tensor(cols)                   -> the 6 (N,) columns of S, from any rows'
                                  columns; callers evaluate it only for the
                                  rows whose sigma and omega both test zero
c_eigen_residuals(cols, norm_sq)
                               -> ||C psi - psi||, ||C psi + psi|| (N,),
                                  each over sqrt(norm_sq) = ||psi||
helicity_residuals(cols, n)    -> ||M b - b||, ||M b + b||, ||b|| for the
                                  right then the left block, M = sigma.n,
                                  with n = (nx, ny, nz) the rows' unit
                                  vectors
dirac_apply_shift(psi, frame, shift)
                               -> (N,4) gamma_mu p^mu psi - shift psi at the
                                  rows of an algebra.Frame; the one place
                                  that writes gamma_mu p^mu (and so
                                  symmetries.dirac_matrix_batch)

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


def components(cols):
    """The (N, 4) complex128 array whose :func:`columns` are ``cols``."""
    return np.stack(cols, axis=1).view(np.complex128)


def bilinears(cols):
    """sigma, omega, J and K of every row, from the rows' :func:`columns`."""
    ar, ai, br, bi, cr, ci, dr, di = cols

    # A product sum shared by two outputs is computed once and dropped as
    # soon as both are formed.  Only identical expressions are shared
    # (products commute exactly); a negated one would flip the sign of an
    # exact zero.
    sigma = 2.0 * ((ar * cr + ai * ci) + (br * dr + bi * di))
    omega = 2.0 * ((ar * ci - ai * cr) + (br * di - bi * dr))

    # J = R - L and K = R + L, from the block sums R and L; J^0 and K^0
    # flip the roles
    r, r3 = _sum_diff(ar * ar + ai * ai, br * br + bi * bi)
    l, l3 = _sum_diff(cr * cr + ci * ci, dr * dr + di * di)
    j0, k0 = _sum_diff(r, l)
    k3, j3 = _sum_diff(r3, l3)
    del r, r3, l, l3
    k1, j1 = _sum_diff(2.0 * (ar * br + ai * bi), 2.0 * (cr * dr + ci * di))
    k2, j2 = _sum_diff(2.0 * (ar * bi - ai * br), 2.0 * (cr * di - ci * dr))
    return sigma, omega, (j0, j1, j2, j3), (k0, k1, k2, k3)


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


def c_eigen_residuals(cols, norm_sq):
    """(res_plus, res_minus): ||C psi -+ psi|| / ||psi|| for each nonzero
    row, C the charge conjugation, from the rows' :func:`columns` and
    psi^dag psi, ``norm_sq`` (such as J^0 of :func:`bilinears`).  Components
    0 and 3 of C psi -+ psi have equal moduli, as do 1 and 2, so
    ||C psi -+ psi||^2 = 2 [(a_r +- d_i)^2 + (a_i +- d_r)^2
                            + (b_r -+ c_i)^2 + (b_i -+ c_r)^2],
    in real arithmetic; an eigenspinor of either sign reads exactly 0 on its
    branch."""
    ar, ai, br, bi, cr, ci, dr, di = cols

    def residual(ad, bc):
        total = np.square(ad(ar, di))
        total += np.square(ad(ai, dr))
        total += np.square(bc(br, ci))
        total += np.square(bc(bi, cr))
        total *= 2.0
        total /= norm_sq
        return np.sqrt(total, out=total)

    return residual(np.add, np.subtract), residual(np.subtract, np.add)


def helicity_residuals(cols, n):
    """Eigen-residual numerators of sigma.n on each chiral block.

    ``cols`` are the rows' :func:`columns` and n = (nx, ny, nz) their unit
    vectors, as the batch constructors hand them on.  Returns ||M b - b||,
    ||M b + b|| and ||b|| for the right block, then the same three for the
    left block (all 2-norms).
    """
    nx, ny, nz = n
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


def dirac_apply_shift(psi, frame, shift):
    """gamma_mu p^mu psi - shift psi, one momentum per row: a row of
    ``frame`` (an :class:`algebra.Frame`), whose entries E +- pz are
    cancellation-free.  Every output component is a compensated four-term
    dot product, so the result stays accurate at pmag/m ratios of order 1e3.
    The shift is an (N,) float64 array or a float, on the frame's scale.
    """
    ezp, ezm, px, py = frame.ezp, frame.ezm, frame.px, frame.py
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
