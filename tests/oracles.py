"""Independent reference implementations used to pin expected values.

Everything here is written from hard-coded matrix literals, on purpose: the
production code derives its operators from Pauli blocks, so agreement
between the two routes checks the conventions end to end.  The one
exception is :func:`family_draw`, a whole-array reference draw that the
block-wise campaign engine and the constructors are checked against.
"""
import numpy as np

from spinorlab import sampling

GAMMA0 = np.array(
    [[0, 0, 1, 0],
     [0, 0, 0, 1],
     [1, 0, 0, 0],
     [0, 1, 0, 0]], dtype=complex)
GAMMA1 = np.array(
    [[0, 0, 0, -1],
     [0, 0, -1, 0],
     [0, 1, 0, 0],
     [1, 0, 0, 0]], dtype=complex)
GAMMA2 = np.array(
    [[0, 0, 0, 1j],
     [0, 0, -1j, 0],
     [0, -1j, 0, 0],
     [1j, 0, 0, 0]], dtype=complex)
GAMMA3 = np.array(
    [[0, 0, -1, 0],
     [0, 0, 0, 1],
     [1, 0, 0, 0],
     [0, -1, 0, 0]], dtype=complex)
GAMMA5 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
GAMMAS = (GAMMA0, GAMMA1, GAMMA2, GAMMA3)

THETA_MATRIX = np.array([[0, -1], [1, 0]], dtype=complex)
PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))

_S_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def sigma_dot(theta, phi):
    return np.array(
        [[np.cos(theta), np.sin(theta) * np.exp(-1j * phi)],
         [np.sin(theta) * np.exp(1j * phi), -np.cos(theta)]])


def rotation_block(angle, axis):
    """Spin-1/2 rotation cos(angle/2) I + i sin(angle/2) sigma.axis about a
    unit 3-vector."""
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,) or abs(float(n @ n) - 1.0) > 1e-9:
        raise ValueError("axis must be a unit 3-vector")
    ns = n[0] * PAULI[0] + n[1] * PAULI[1] + n[2] * PAULI[2]
    return np.cos(angle / 2) * np.eye(2) + 1j * np.sin(angle / 2) * ns


def dirac_adjoint(psi):
    """Row form conj(psi)^T gamma0."""
    return np.asarray(psi, dtype=complex).conj() @ GAMMA0


def sandwich_bilinears(psi):
    """All bilinears as raw complex sandwiches (caller checks reality)."""
    psi = np.asarray(psi, dtype=complex)
    bar = dirac_adjoint(psi)
    return {
        "sigma": bar @ psi,
        "omega": 1j * (bar @ GAMMA5 @ psi),
        "j": np.array([bar @ g @ psi for g in GAMMAS]),
        "k": np.array([bar @ g @ GAMMA5 @ psi for g in GAMMAS]),
        "s": np.array(
            [1j * (bar @ GAMMAS[m] @ GAMMAS[n] @ psi) for m, n in _S_PAIRS]),
    }


def brute_force_class(psi, eps=1e-9):
    """Lounesto class straight from the sandwich values; None if no row fits."""
    psi = np.asarray(psi, dtype=complex)
    b = sandwich_bilinears(psi)
    scale = eps * float(np.real(psi.conj() @ psi))
    sig0 = abs(b["sigma"]) <= scale
    om0 = abs(b["omega"]) <= scale
    k0 = np.max(np.abs(b["k"])) <= scale
    s0 = np.max(np.abs(b["s"])) <= scale
    if not sig0 and not om0:
        return 1
    if not sig0:
        return 2
    if not om0:
        return 3
    if not k0 and not s0:
        return 4
    if k0 and not s0:
        return 5
    if not k0 and s0:
        return 6
    return None


def eigen_sign(block, theta, phi, tol=1e-9):
    """+1/-1 if block is a sigma.n eigenvector along (theta, phi), else None."""
    block = np.asarray(block, dtype=complex)
    nrm = np.linalg.norm(block)
    image = sigma_dot(theta, phi) @ block
    if np.linalg.norm(image - block) / nrm < tol:
        return 1
    if np.linalg.norm(image + block) / nrm < tol:
        return -1
    return None


def dirac_operator(m, pmag, theta, phi):
    """gamma_mu p^mu from the matrix literals (plain evaluation)."""
    e = np.hypot(m, pmag)
    pvec = pmag * np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    return e * GAMMA0 - (pvec[0] * GAMMA1 + pvec[1] * GAMMA2 + pvec[2] * GAMMA3)


def family_draw(family, rng, count, **extra):
    """(components, theta, phi, params) of ``count`` rows of a constructor
    family: its parameter draw then its batch constructor over every row at
    once; ``params`` holds the drawn arguments other than the direction."""
    params = sampling.FAMILY_PARAMS[family](rng, count, **extra)
    arr, theta, phi = sampling.FAMILY_CONSTRUCTORS[family](**params)
    return arr, theta, phi, {key: value for key, value in params.items()
                             if key not in ("theta", "phi")}
