"""Dense complex 2x2 / 4x4 matrix algebra.

Pauli operators, Kronecker products, Hermitian matrix exponentials and
unitary distance metrics. Every generator the package evolves under is
constant over its interval, so a propagator is one exponential; there is
no time-ordered product. Everything here is a pure function of its
arguments.
"""
from __future__ import annotations

import numpy as np

from .errors import NonHermitianInput, NotUnitary

__all__ = [
    "I2", "I4", "SX", "SY", "SZ", "PAULI",
    "kron", "is_hermitian", "is_unitary", "require_hermitian",
    "require_unitary", "expm_hermitian", "distance",
]

# Algebraic-identity tolerance (Hermiticity / unitarity checks).
ALGEBRA_TOL = 1e-12

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"x": SX, "y": SY, "z": SZ}


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with qubit 1 as the left factor."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def is_hermitian(h: np.ndarray, tol: float = ALGEBRA_TOL) -> bool:
    h = np.asarray(h)
    return bool(np.all(np.isfinite(h.view(float))) and
                np.max(np.abs(h - h.conj().T)) < tol)


def is_unitary(u: np.ndarray, tol: float = ALGEBRA_TOL) -> bool:
    u = np.asarray(u)
    if not np.all(np.isfinite(u.view(float))):
        return False
    eye = np.eye(u.shape[0])
    return bool(np.max(np.abs(u.conj().T @ u - eye)) < tol)


def require_hermitian(h: np.ndarray, tol: float = ALGEBRA_TOL) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, tol):
        raise NonHermitianInput(
            f"matrix deviates from Hermiticity by more than {tol}")
    return h


def require_unitary(u: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, tol):
        raise NotUnitary(f"matrix deviates from unitarity by more than {tol}")
    return u


def expm_hermitian(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^{-i h t} for Hermitian h, via eigendecomposition.

    Exactly unitary up to eigensolver accuracy; raises NonHermitianInput
    if the symmetry check fails.
    """
    h = require_hermitian(h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def distance(u: np.ndarray, v: np.ndarray,
             up_to_global_phase: bool = False) -> float:
    """Frobenius distance between two unitaries.

    With the flag set, minimizes over a global phase: the minimum of
    ||u - e^{i theta} v||_F sits at e^{i theta} = t^* / |t| with
    t = tr(u^dag v), and is evaluated there directly (the equivalent
    sqrt(2n - 2|t|) loses half the digits to cancellation near zero).
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if up_to_global_phase:
        overlap = np.vdot(u, v)  # tr(u^dag v)
        if overlap != 0:
            v = v * (np.conj(overlap) / abs(overlap))
    return float(np.linalg.norm(u - v))
