"""Dense complex 2x2 / 4x4 matrix algebra.

Pauli operators, Kronecker products, the two-qubit coupling operator of a
3x3 tensor, Hermitian matrix exponentials and unitary distance metrics,
and the one finite-number rule of every scalar input.
Every generator the package evolves under is constant over its interval,
so a propagator is one exponential; there is no time-ordered product.
Everything here is a pure function of its arguments.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import NonHermitianInput, NotUnitary

__all__ = [
    "I2", "I4", "SX", "SY", "SZ", "PAULI", "PAULI_PAIRS",
    "kron", "coupling_operator", "require_hermitian", "require_unitary",
    "expm_hermitian", "distance",
]

# Tolerances of the algebraic-identity checks: a generator must be
# Hermitian to roundoff, an input gate unitary to the verification scale.
ALGEBRA_TOL = 1e-12
UNITARY_TOL = 1e-9

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"x": SX, "y": SY, "z": SZ}
# PAULI_PAIRS[m, n] = sigma^m (x) sigma^n, m, n indexing x, y, z.
PAULI_PAIRS = np.array([[np.kron(a, b) for b in (SX, SY, SZ)]
                        for a in (SX, SY, SZ)])


def _finite(what: str, value) -> float:
    """value as a finite Python float; ValueError for anything else."""
    try:
        x = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int too large for a float
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{what} {value!r} is not a finite number")
    return x


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with qubit 1 as the left factor."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def coupling_operator(t) -> np.ndarray:
    """sum_{mn} t[m, n] sigma_1^m sigma_2^n for a real 3x3 tensor t.

    Every two-qubit coupling Hamiltonian and entangler generator of the
    package is this contraction of some tensor.
    """
    pairs = PAULI_PAIRS.reshape(9, 16)
    return (np.asarray(t, dtype=float).reshape(9) @ pairs).reshape(4, 4)


def require_hermitian(h: np.ndarray) -> np.ndarray:
    """h as a complex array, if finite and Hermitian within ALGEBRA_TOL."""
    h = np.asarray(h, dtype=complex)
    if not (np.all(np.isfinite(h))
            and np.max(np.abs(h - h.conj().T)) < ALGEBRA_TOL):
        raise NonHermitianInput(
            f"matrix deviates from Hermiticity by more than {ALGEBRA_TOL}")
    return h


def require_unitary(u: np.ndarray) -> np.ndarray:
    """u as a complex array, if finite and unitary within UNITARY_TOL."""
    u = np.asarray(u, dtype=complex)
    if not (np.all(np.isfinite(u))
            and np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
            < UNITARY_TOL):
        raise NotUnitary(
            f"matrix deviates from unitarity by more than {UNITARY_TOL}")
    return u


def expm_hermitian(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^{-i h t} for Hermitian h, via eigendecomposition.

    Exactly unitary up to eigensolver accuracy; raises NonHermitianInput
    if the symmetry check fails and ValueError if the largest phase,
    spectral radius times |t|, is not finite.
    """
    h = require_hermitian(h)
    w, v = np.linalg.eigh(h)
    # eigh sorts w; an overflow of Python floats is inf, not a warning.
    if not math.isfinite(max(-float(w[0]), float(w[-1])) * abs(float(t))):
        raise ValueError(f"phase overflows: |t| = {abs(float(t)):.3e} is "
                         "too long for a generator this strong")
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
