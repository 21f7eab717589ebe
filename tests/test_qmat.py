import math

import numpy as np
import pytest

from qgd import qmat
from qgd.errors import NonHermitianInput
from qgd.qmat import I2, I4, SX, SY, SZ, distance, expm_hermitian, kron

from conftest import haar_unitary

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), I4)

    def test_zz(self):
        assert np.allclose(kron(SZ, SZ), np.diag([1, -1, -1, 1]))

    def test_xx(self):
        assert np.allclose(kron(SX, SX), np.fliplr(np.eye(4)))


class TestCouplingOperator:
    def test_matches_kron_sum(self, rng):
        paulis = (SX, SY, SZ)
        for _ in range(50):
            t = rng.normal(size=(3, 3))
            ref = sum(t[m, n] * kron(paulis[m], paulis[n])
                      for m in range(3) for n in range(3))
            assert np.max(np.abs(qmat.coupling_operator(t) - ref)) < 1e-14


class TestExpmHermitian:
    def test_zero_generator(self):
        assert np.allclose(expm_hermitian(np.zeros((4, 4)), 2.7), I4)

    def test_diagonal_phases(self):
        # sigma_z x I has eigenvalues (1, 1, -1, -1): e^{-i lambda t}.
        u = expm_hermitian(kron(SZ, I2), math.pi / 2)
        assert np.allclose(u, np.diag([-1j, -1j, 1j, 1j]), atol=1e-14)
        u = expm_hermitian(kron(SZ, I2), math.pi)
        assert np.allclose(u, -I4, atol=1e-14)

    def test_unitary_and_semigroup(self, rng):
        for _ in range(50):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (a + a.conj().T) / 2
            u = expm_hermitian(h, 0.8)
            assert np.max(np.abs(u.conj().T @ u - I4)) < 1e-12
            u12 = expm_hermitian(h, 0.3) @ expm_hermitian(h, 0.5)
            assert distance(u12, u) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            expm_hermitian(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


class TestDistance:
    def test_identical(self, rng):
        u = haar_unitary(rng)
        assert distance(u, u) == 0.0
        assert distance(u, u, up_to_global_phase=True) == 0.0

    def test_phase_factored_out(self, rng):
        u = haar_unitary(rng)
        assert distance(u, np.exp(1j * math.pi / 7) * u,
                        up_to_global_phase=True) < 1e-12

    def test_phase_distance_has_no_sqrt_floor(self, rng):
        # A tiny deviation must read as itself, not as the sqrt of the
        # trace roundoff (~1e-8).
        u = haar_unitary(rng)
        v = np.exp(0.3j) * u @ expm_hermitian(kron(SZ, SX), 1e-12)
        d = distance(u, v, up_to_global_phase=True)
        assert 1e-12 < d < 3e-12

    def test_identity_to_cnot(self):
        assert abs(distance(I4, CNOT) - 2.0) < 1e-14

    def test_metric_properties(self, rng):
        for _ in range(20):
            u, v, w = (haar_unitary(rng) for _ in range(3))
            assert abs(distance(u, v) - distance(v, u)) < 1e-12
            assert distance(u, w) <= distance(u, v) + distance(v, w) + 1e-12
