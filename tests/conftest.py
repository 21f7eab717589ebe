import math

import numpy as np
import pytest


def haar_unitary(rng, n=4):
    """Haar-random U(n) via QR of a complex Gaussian matrix, with the
    R-diagonal phase fix."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def noisy_unitaries(rng, n):
    """n Haar gates, each plus complex Gaussian noise of one scale
    10^U(-12, -9): some pass the unitarity checks, some do not."""
    for _ in range(n):
        u = haar_unitary(rng)
        s = 10 ** rng.uniform(-12, -9)
        yield u + s * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))


def off_unitarity(rng, deviation):
    """A Haar gate plus complex Gaussian noise, scaled so that it is off
    unitarity by deviation in require_unitary's measure, the largest
    entry of |u^dag u - I|, to first order in the noise."""
    u = haar_unitary(rng)
    noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    probe = u + 1e-10 * noise
    off = np.abs(probe.conj().T @ probe - np.eye(4)).max()
    return u + 1e-10 * deviation / off * noise


def expm_h(h, t=1.0):
    """e^{-i h t} of a Hermitian h by eigendecomposition: the tests'
    reference exponential, in the operation order of qmat._expm_eigh."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(w * (-1j * t))) @ v.conj().T


PAULIS = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


# The tests' own magic (Bell) basis Q = MAGIC2 / sqrt(2) (Zhang, Vala,
# Sastry and Whaley, PRA 67, 042313 (2003)), written out apart from the
# library's private one, which the tests check against it. Its columns
# are (|00> + |11>), i(|01> + |10>), |01> - |10> and i(|00> - |11>), over
# sqrt(2).
MAGIC2 = np.array([[1, 0, 0, 1j],
                   [0, 1j, 1, 0],
                   [0, 1j, -1, 0],
                   [1, 0, 0, -1j]], dtype=complex)
MAGIC = (1 / math.sqrt(2)) * MAGIC2
MAGIC_DAG = MAGIC.conj().T
# GEN_DIAGS[:, k]: the diagonal of XX, YY and ZZ (k = 0, 1, 2) in Q, by
# hand: XX swaps |00>, |11> and |01>, |10>; YY does so with a sign -1 on
# |00> <-> |11>; ZZ is +1 on |00>, |11> and -1 on |01>, |10>.
GEN_DIAGS = np.array([[1, -1, 1],
                      [1, 1, -1],
                      [-1, -1, -1],
                      [-1, 1, 1]], dtype=float)


def lab_hamiltonian(j, eps):
    """-(eps/2)(Z1 + Z2) + sum_mn j[m, n] sigma_1^m sigma_2^n of a 3x3
    tensor j, by Kronecker products: the tests' lab-frame reference."""
    z = PAULIS[2]
    h = -(eps / 2) * (np.kron(z, np.eye(2)) + np.kron(np.eye(2), z))
    return h + sum(j[m][n] * np.kron(PAULIS[m], PAULIS[n])
                   for m in range(3) for n in range(3))


def random_su2(rng):
    u = haar_unitary(rng, 2)
    return u / np.sqrt(np.linalg.det(u))


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
