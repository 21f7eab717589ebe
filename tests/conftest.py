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


def random_su2(rng):
    u = haar_unitary(rng, 2)
    return u / np.sqrt(np.linalg.det(u))


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
