"""Dense complex 2x2 / 4x4 matrix algebra.

Pauli operators, Kronecker products, the two-qubit coupling operator of
a 3x3 tensor and its inverse, the Pauli read _pauli_coefficients (the
magic basis is equivalence's, which alone needs it), unitary distance
metrics, the one reader of a scalar real (_finite: a finite float, never
a bool, -0.0 read as 0.0), the reader of an integer (_exact_int) and the
type rule of the package's value arguments (_require_type). Matrix
arguments are read by _numeric, by dtype kind, never bool.
Every generator the package evolves under is constant over its interval.
One closed form, _entangler, gives the five distinct entries of A and is
the one place that refuses a phase that is not finite; _step
forms E (a (x) b) from them and a layer's 2x2 entries (with _ID_W, a (x) b
alone), and _entangler_array lays them out as a 4x4 array. There is no
public exponential: the one eigendecomposition, _expm_eigh, serves only
hamiltonian.rwa_infidelity's lab frame, whose Hamiltonian has no closed
form. There is no time-ordered product.
The public functions check their input (numeric dtype, shape, unitarity);
their kernels, _coupling_operator, _pauli_coefficients, _expm_eigh,
_distance and _phase_distance, trust what the package built.
Every product inside a function is ndarray.dot, here and across the
package, never @: on numpy 2.x the matmul ufunc's dispatch costs more
than a 4x4 product's arithmetic (a complex 4x4 product took 1.5 us by @
and 1.1 us by dot on a 2-vCPU Xeon VM, numpy 2.4), for the same bits.
Constants built once at import keep @.
Everything here is a pure function of its arguments.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import NotUnitary

__all__ = ["kron", "coupling_operator", "require_unitary", "distance"]

# Largest deviation from unitarity of an input gate.
UNITARY_TOL = 1e-9

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
# PAULI_PAIRS[m, n] = sigma^m (x) sigma^n, m, n indexing x, y, z.
PAULI_PAIRS = np.array([[np.kron(a, b) for b in (SX, SY, SZ)]
                        for a in (SX, SY, SZ)])


def _finite(what: str, value) -> float:
    """value as a finite Python float, -0.0 read as 0.0; ValueError naming
    what for anything else: a bool, a non-number, nan, +-inf or an int too
    large for a float. The one reader of a real: op angles and durations,
    couplings, tensor entries, coordinates, times, tolerances."""
    if type(value) is float:  # the common case: no ABC check, no copy
        x = value
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
    else:
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"{what} {value!r} is not a finite number")
    return x + 0.0


def _exact_int(n) -> int | None:
    """n as a Python int if it is an integer other than a bool (numpy
    integers included); None otherwise."""
    if type(n) is int:  # the common case skips the ABC check
        return n
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        return None
    return int(n)


def _require_type(value, cls) -> None:
    """ValueError naming cls unless value is an instance of it: the
    boundary check of each public function's package-typed arguments."""
    if not isinstance(value, cls):
        raise ValueError(f"expected {cls.__name__}, got {value!r}")


def _entangler(d: float, s: float, z: float, tilt: complex) -> tuple:
    """A(x, y, z) = e^{-i(x XX + y YY + z ZZ)} from d = x - y, s = x + y
    and z, on Python floats, as its entries [0, 0], [0, 3], [1, 1], [1, 2]
    times the unit tilt and [2, 1] times tilt^*. XX, YY and ZZ act within
    span{|00>, |11>} and span{|01>, |10>}:

        [0, 0] = [3, 3] = e^{-iz} cos d,  [0, 3] = [3, 0] = -i e^{-iz} sin d
        [1, 1] = [2, 2] = e^{iz} cos s,   [1, 2] = [2, 1] = -i e^{iz} sin s

    and zero elsewhere. For d = 0, tilt e^{i phi} turns A by Rz(phi) on
    qubit 2. ValueError when a magic-basis phase d +- z or s +- z (the
    eigenphases of A) is not finite: the one phase rule of the package.
    """
    # On Python floats: an overflowing phase is inf here, not a warning.
    if not all(map(math.isfinite, (d + z, d - z, s + z, s - z))):
        raise ValueError(f"phase overflows: entangler phases x - y = {d!r},"
                         f" x + y = {s!r}, z = {z!r} are too large")
    cz, sz = math.cos(z), math.sin(z)
    cd, sd = math.cos(d), math.sin(d)
    cs, ss = math.cos(s), math.sin(s)
    f = complex(sz * ss, -cz * ss)
    return (complex(cz * cd, -sz * cd), complex(-sz * sd, -cz * sd),
            complex(cz * cs, sz * cs), f * tilt, f * tilt.conjugate())


# A 2x2 matrix as the Python scalars (m00, m01, m10, m11), and A's five
# entries as _entangler returns them: the identities of each.
_ID2 = (1 + 0j, 0j, 0j, 1 + 0j)
_ID_W = (1, 0, 1, 0, 0)


def _step(w: tuple, a: tuple, b: tuple) -> np.ndarray:
    """E (a (x) b) for E of _entangler's entries w and the 2x2 entries a
    and b, qubit 1's factor a on the left: E has two entries a row, so each
    row sums two rows (x, y, z, v) of a (x) b."""
    e00, e03, e11, e12, e21 = w
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    x0, x1, x2, x3 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    y0, y1, y2, y3 = a0 * b2, a0 * b3, a1 * b2, a1 * b3
    z0, z1, z2, z3 = a2 * b0, a2 * b1, a3 * b0, a3 * b1
    v0, v1, v2, v3 = a2 * b2, a2 * b3, a3 * b2, a3 * b3
    return np.array([e00 * x0 + e03 * v0, e00 * x1 + e03 * v1,
                     e00 * x2 + e03 * v2, e00 * x3 + e03 * v3,
                     e11 * y0 + e12 * z0, e11 * y1 + e12 * z1,
                     e11 * y2 + e12 * z2, e11 * y3 + e12 * z3,
                     e21 * y0 + e11 * z0, e21 * y1 + e11 * z1,
                     e21 * y2 + e11 * z2, e21 * y3 + e11 * z3,
                     e03 * x0 + e00 * v0, e03 * x1 + e00 * v1,
                     e03 * x2 + e00 * v2, e03 * x3 + e00 * v3],
                    dtype=complex).reshape(4, 4)


def _entangler_array(w: tuple) -> np.ndarray:
    """The 4x4 array of _entangler's entries w."""
    a, b, e, f, g = w
    return np.array((a, 0j, 0j, b,
                     0j, e, f, 0j,
                     0j, g, e, 0j,
                     b, 0j, 0j, a), dtype=complex).reshape(4, 4)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with qubit 1 as the left factor; ValueError
    unless both are numeric arrays."""
    return np.kron(_numeric(a, "Kronecker factor"),
                   _numeric(b, "Kronecker factor"))


def coupling_operator(t) -> np.ndarray:
    """sum_{mn} t[m, n] sigma_1^m sigma_2^n for a real 3x3 tensor t;
    ValueError for a complex, non-numeric or non-3x3 one.

    Every two-qubit coupling Hamiltonian and entangler generator of the
    package is this contraction of some tensor.
    """
    t = _numeric(t, "real 3x3", kinds="iuf")
    if t.shape != (3, 3):
        raise ValueError(f"expected a real 3x3 matrix, got shape {t.shape}")
    return _coupling_operator(t)


def _coupling_operator(t: np.ndarray) -> np.ndarray:
    """coupling_operator of a real 3x3 array, unchecked."""
    return t.reshape(9).dot(PAULI_PAIRS.reshape(9, 16)).reshape(4, 4)


def _pauli_coefficients(g: np.ndarray) -> np.ndarray:
    """t[m, n] = tr(sigma^m (x) sigma^n g) / 4 of a Hermitian complex 4x4
    array g, unchecked: the inverse of _coupling_operator, and the part of
    g in its span otherwise. tr(P g) sums P[i, j] g[j, i]."""
    return PAULI_PAIRS.reshape(9, 16).dot(g.T.ravel()).real.reshape(3, 3) / 4


def _numeric(m, what: str, kinds: str = "iufc") -> np.ndarray:
    """m as a complex array, if of a dtype kind in kinds (by default any
    numeric one: a bool array is no matrix of numbers), or as a float
    array if kinds holds no "c"; ValueError if not."""
    try:
        m = np.asarray(m)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"expected a {what} matrix: {exc}") from exc
    if m.dtype.kind not in kinds:
        raise ValueError(f"expected a {what} matrix of numbers, not {m.dtype}")
    return m.astype(complex if "c" in kinds else float, copy=False)


def _as_4x4(u) -> np.ndarray:
    """u as a complex 4x4 array; ValueError for anything else."""
    u = _numeric(u, "4x4")
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
        deviation = np.abs(u.conj().T.dot(u) - I4).max()
    if not deviation < UNITARY_TOL:
        raise NotUnitary(
            f"matrix deviates from unitarity by more than {UNITARY_TOL}")
    return u


def _expm_eigh(h: np.ndarray, t: float) -> np.ndarray:
    """e^{-i h t} of a Hermitian complex array h and a Python float t, via
    eigendecomposition, unchecked: the lab frame's one exponential. The
    caller owns the bound on the phase, spectral radius times |t|;
    rwa_infidelity refuses any horizon past 2^32 before it calls this."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(w * (-1j * t))).dot(v.conj().T)


def distance(u: np.ndarray, v: np.ndarray,
             up_to_global_phase: bool = False) -> float:
    """Frobenius distance between two 4x4 unitaries; ValueError for
    anything that is not a 4x4 numeric array.

    With the flag set, minimizes over a global phase: the minimum of
    ||u - e^{i theta} v||_F sits at e^{i theta} = t^* / |t| with
    t = tr(u^dag v), and is evaluated there directly (the equivalent
    sqrt(2n - 2|t|) loses half the digits to cancellation near zero).
    """
    u, v = _as_4x4(u), _as_4x4(v)
    if up_to_global_phase:
        return _phase_distance(u, v)
    return _distance(u, v)


def _distance(u: np.ndarray, v: np.ndarray) -> float:
    """distance(u, v) of two complex 4x4 arrays, unchecked."""
    d = u - v
    return math.sqrt(np.vdot(d, d).real)


def _phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """distance(u, v, True) of two complex 4x4 arrays, unchecked."""
    overlap = complex(np.vdot(u, v))  # tr(u^dag v)
    if overlap != 0:
        v = v * (overlap.conjugate() / abs(overlap))
    return _distance(u, v)
