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


def expm_h(h, t=1.0):
    """e^{-i h t} of a Hermitian h by eigendecomposition: the tests'
    reference exponential, in the operation order of qmat._expm_eigh."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(w * (-1j * t))) @ v.conj().T


_PAULIS = (np.array([[0, 1], [1, 0]], dtype=complex),
           np.array([[0, -1j], [1j, 0]], dtype=complex),
           np.array([[1, 0], [0, -1]], dtype=complex))


def lab_hamiltonian(j, eps):
    """-(eps/2)(Z1 + Z2) + sum_mn j[m, n] sigma_1^m sigma_2^n of a 3x3
    tensor j, by Kronecker products: the tests' lab-frame reference."""
    z = _PAULIS[2]
    h = -(eps / 2) * (np.kron(z, np.eye(2)) + np.kron(np.eye(2), z))
    return h + sum(j[m][n] * np.kron(_PAULIS[m], _PAULIS[n])
                   for m in range(3) for n in range(3))


def random_su2(rng):
    u = haar_unitary(rng, 2)
    return u / np.sqrt(np.linalg.det(u))


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
