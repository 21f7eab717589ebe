"""Dense complex 2x2 / 4x4 matrix algebra.

Pauli operators, Kronecker products, the magic (Bell) basis with the
diagonals of XX, YY and ZZ in it (GEN_DIAGS, exactly +-1), the two-qubit
coupling operator of a 3x3 tensor, Hermitian matrix exponentials and
unitary distance metrics, and the number rules of every scalar input
(_real, _finite).
Every generator the package evolves under is constant over its interval.
One closed form, _entangler, gives the five distinct entries of A, which
pulses.simulate_schedule applies as they are and _entangler_array lays
out for canonical_entangler and rot_frame_propagator. The general
exponential here, an eigendecomposition, serves only the lab frame, whose
Hamiltonian has no such form. There is no time-ordered product.
Everything here is a pure function of its arguments.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import NonHermitianInput, NotUnitary

__all__ = [
    "I2", "I4", "SX", "SY", "SZ", "PAULI", "PAULI_PAIRS",
    "MAGIC", "MAGIC_DAG", "GEN_DIAGS",
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

# Magic (Bell) basis: local rotations become real orthogonal matrices here.
MAGIC = (1 / math.sqrt(2)) * np.array([
    [1, 0, 0, 1j],
    [0, 1j, 1, 0],
    [0, 1j, -1, 0],
    [1, 0, 0, -1j],
], dtype=complex)
MAGIC_DAG = MAGIC.conj().T
# GEN_DIAGS[:, k]: the diagonal of PAULI_PAIRS[k, k] (XX, YY, ZZ) in the
# magic basis, where all three are diagonal; every entry is exactly +-1
# (rounded from the computed diagonal, which is +-1 to roundoff).
GEN_DIAGS = np.rint(np.stack([
    np.real(np.diag(MAGIC_DAG @ PAULI_PAIRS[k, k] @ MAGIC))
    for k in range(3)], axis=1))


def _real(what: str, value) -> float:
    """value as a Python float, nan and +-inf kept (a huge int is +-inf);
    ValueError naming what for a non-number."""
    if type(value) is float:  # the common case: no ABC check, no copy
        return value
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{what} {value!r} is not a finite number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _finite(what: str, value) -> float:
    """value as a finite Python float; ValueError for anything else."""
    x = value if type(value) is float else _real(what, value)
    if not math.isfinite(x):
        raise ValueError(f"{what} {value!r} is not a finite number")
    return x


def _require_finite_phase(rate: float, t) -> float:
    """_real("t", t), if the largest phase rate * |t| of e^{-i h t} is
    finite (rate bounds the spectral radius of h); ValueError otherwise.
    On Python floats, so an overflow is inf, not a numpy warning."""
    t = _real("t", t)
    if not math.isfinite(float(rate) * abs(t)):
        raise ValueError(f"phase overflows: |t| = {abs(t):.3e} is "
                         "too long for a generator this strong")
    return t


def _entangler(d: float, s: float, z: float, tilt: complex) -> tuple:
    """A(x, y, z) = e^{-i(x XX + y YY + z ZZ)} from d = x - y, s = x + y
    and z, on Python floats, as its entries [0, 0], [0, 3], [1, 1], [1, 2]
    times the unit tilt and [2, 1] times tilt^*; the caller checks that the
    phases are finite. XX, YY and ZZ act within span{|00>, |11>} and
    span{|01>, |10>}:

        [0, 0] = [3, 3] = e^{-iz} cos d,  [0, 3] = [3, 0] = -i e^{-iz} sin d
        [1, 1] = [2, 2] = e^{iz} cos s,   [1, 2] = [2, 1] = -i e^{iz} sin s

    and zero elsewhere. For d = 0, tilt e^{i phi} turns A by Rz(phi) on
    qubit 2.
    """
    cz, sz = math.cos(z), math.sin(z)
    cd, sd = math.cos(d), math.sin(d)
    cs, ss = math.cos(s), math.sin(s)
    f = complex(sz * ss, -cz * ss)
    return (complex(cz * cd, -sz * cd), complex(-sz * sd, -cz * sd),
            complex(cz * cs, sz * cs), f * tilt, f * tilt.conjugate())


def _entangler_array(w: tuple) -> np.ndarray:
    """The 4x4 array of _entangler's entries w."""
    a, b, e, f, g = w
    return np.array((a, 0j, 0j, b,
                     0j, e, f, 0j,
                     0j, g, e, 0j,
                     b, 0j, 0j, a), dtype=complex).reshape(4, 4)


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
    # One reduction, as in require_unitary: a nan or inf entry makes its
    # own or its mirror's deviation nan or inf, which fails the < test.
    with np.errstate(invalid="ignore", over="ignore"):
        deviation = np.abs(h - h.conj().T).max()
    if not deviation < ALGEBRA_TOL:
        raise NonHermitianInput(
            f"matrix deviates from Hermiticity by more than {ALGEBRA_TOL}")
    return h


def _as_4x4(u) -> np.ndarray:
    """u as a complex 4x4 array; ValueError for anything else."""
    try:
        u = np.asarray(u, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"expected a 4x4 matrix: {exc}") from exc
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {u.shape}")
    return u


def require_unitary(u: np.ndarray) -> np.ndarray:
    """u as a complex 4x4 array, if finite and unitary within UNITARY_TOL.

    ValueError for anything that is not a 4x4 numeric array.
    """
    u = _as_4x4(u)
    # One reduction: a nan or inf entry makes the deviation nan or inf,
    # which fails the < test, so it needs no finiteness pass of its own.
    with np.errstate(invalid="ignore", over="ignore"):
        deviation = np.abs(u.conj().T @ u - I4).max()
    if not deviation < UNITARY_TOL:
        raise NotUnitary(
            f"matrix deviates from unitarity by more than {UNITARY_TOL}")
    return u


def expm_hermitian(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^{-i h t} for Hermitian h, via eigendecomposition.

    The general exponential, for the lab-frame Hamiltonian only: the
    rotating-frame and entangler propagators are closed forms. Exactly
    unitary up to eigensolver accuracy; raises NonHermitianInput
    if the symmetry check fails and ValueError if t is no number or the
    largest phase, spectral radius times |t|, is not finite.
    """
    h = require_hermitian(h)
    w, v = np.linalg.eigh(h)
    w_list = w.tolist()  # sorted
    t = _require_finite_phase(max(-w_list[0], w_list[-1]), t)
    return (v * np.exp(w * (-1j * t))) @ v.conj().T


def distance(u: np.ndarray, v: np.ndarray,
             up_to_global_phase: bool = False) -> float:
    """Frobenius distance between two 4x4 unitaries; ValueError for
    anything that is not a 4x4 numeric array.

    With the flag set, minimizes over a global phase: the minimum of
    ||u - e^{i theta} v||_F sits at e^{i theta} = t^* / |t| with
    t = tr(u^dag v), and is evaluated there directly (the equivalent
    sqrt(2n - 2|t|) loses half the digits to cancellation near zero).
    """
    u = _as_4x4(u)
    v = _as_4x4(v)
    if up_to_global_phase:
        overlap = complex(np.vdot(u, v))  # tr(u^dag v)
        if overlap != 0:
            v = v * (overlap.conjugate() / abs(overlap))
    d = u - v
    return math.sqrt(np.vdot(d, d).real)
