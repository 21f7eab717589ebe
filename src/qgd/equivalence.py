"""Local-equivalence machinery for two-qubit gates: Makhlin invariants,
equivalence testing, Weyl-chamber canonicalization, and a numeric KAK
(Cartan) decomposition of arbitrary U(4) elements.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .entangler import EntanglerCoords, canonical_entangler, wrap_angle
from .errors import NotUnitary
from .qmat import PAULI_PAIRS, kron, require_unitary

__all__ = [
    "MAGIC", "MakhlinInvariants", "KakFactors",
    "makhlin_invariants", "locally_equivalent",
    "kak_decompose", "weyl_canonicalize",
]

# Magic (Bell) basis: local rotations become real orthogonal matrices here.
MAGIC = (1 / math.sqrt(2)) * np.array([
    [1, 0, 0, 1j],
    [0, 1j, 1, 0],
    [0, 1j, -1, 0],
    [1, 0, 0, -1j],
], dtype=complex)

# Diagonals of XX, YY, ZZ in the magic basis (they are diagonal there);
# columns of the linear system that maps eigenphases to (x, y, z, phase).
_GEN_DIAGS = np.stack([
    np.real(np.diag(MAGIC.conj().T @ PAULI_PAIRS[k, k] @ MAGIC))
    for k in range(3)], axis=1)
_PHASE_SYSTEM = np.hstack([-_GEN_DIAGS, np.ones((4, 1))])

# Largest invariant distance at which two gates count as one local class.
CLASS_TOL = 1e-9


@dataclass(frozen=True)
class MakhlinInvariants:
    """The pair (G1, G2); G1 is generally complex, G2 real.

    g2_imag_residual is the magnitude of the (analytically zero)
    imaginary part of the computed G2, kept as a numerical health check.
    """

    g1: complex
    g2: float
    g2_imag_residual: float = 0.0

    def distance(self, other: "MakhlinInvariants") -> float:
        """|G1 - G1'| + |G2 - G2'|; zero iff the two local classes agree."""
        return abs(self.g1 - other.g1) + abs(self.g2 - other.g2)

    def to_dict(self) -> dict:
        return {"G1": [self.g1.real, self.g1.imag], "G2": self.g2}


def makhlin_invariants(u: np.ndarray) -> MakhlinInvariants:
    """G1 = tr(m)^2 / (16 det u), G2 = (tr(m)^2 - tr(m^2)) / (4 det u),
    with m = (Q^dag u Q)^T (Q^dag u Q) in the magic basis."""
    u = require_unitary(u)
    um = MAGIC.conj().T @ u @ MAGIC
    m = um.T @ um
    det = np.linalg.det(um)
    tr2 = np.trace(m) ** 2
    g1 = tr2 / (16 * det)
    g2 = (tr2 - np.trace(m @ m)) / (4 * det)
    residual = abs(g2.imag)
    if residual > 1e-10:
        raise NotUnitary(
            f"G2 imaginary residual {residual:.3e} exceeds 1e-10; "
            "input is not unitary enough")
    return MakhlinInvariants(g1=complex(g1), g2=float(g2.real),
                             g2_imag_residual=residual)


def locally_equivalent(u: np.ndarray, v: np.ndarray) -> bool:
    """True iff u and v differ only by local rotations and a phase,
    i.e. their Makhlin invariants lie within CLASS_TOL of each other."""
    return (makhlin_invariants(u).distance(makhlin_invariants(v))
            < CLASS_TOL)


@dataclass(frozen=True)
class KakFactors:
    """U = e^{i phase} (u_post1 x u_post2) A(coords) (u_pre1 x u_pre2),
    with each local factor in SU(2) and coords in the principal cell."""

    phase: float
    u_post: tuple  # (Mat2, Mat2)
    coords: EntanglerCoords
    u_pre: tuple   # (Mat2, Mat2)

    def reconstruct(self) -> np.ndarray:
        return (cmath.exp(1j * self.phase)
                * kron(*self.u_post)
                @ canonical_entangler(self.coords)
                @ kron(*self.u_pre))

    def to_dict(self) -> dict:
        def c2(m):
            return [[[z.real, z.imag] for z in row] for row in np.asarray(m)]
        return {
            "phase": self.phase,
            "coords": [self.coords.x, self.coords.y, self.coords.z],
            "u_post": [c2(self.u_post[0]), c2(self.u_post[1])],
            "u_pre": [c2(self.u_pre[0]), c2(self.u_pre[1])],
        }


def _joint_orthogonal_eigenbasis(m: np.ndarray) -> np.ndarray:
    """Real orthogonal eigenbasis of a unitary complex-symmetric matrix.

    Re(m) and Im(m) are commuting real symmetric matrices; diagonalize a
    generic linear combination. Degenerate clusters are resolved by
    retrying with deterministically-seeded weights.
    """
    re, im = m.real, m.imag
    rng = np.random.default_rng(20090619)
    weights = [(1 / math.pi, math.pi), (1 / 10, 10)]
    weights += [tuple(rng.normal(size=2)) for _ in range(20)]
    for wr, wi in weights:
        _, basis = np.linalg.eigh(wr * re + wi * im)
        check = basis.T @ m @ basis
        if np.max(np.abs(check - np.diag(np.diag(check)))) < 1e-11:
            return basis
    raise NotUnitary("could not jointly diagonalize; input is "
                     "likely far from unitary")


def _kron_factor_local(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an element of SU(2) x SU(2) into its SU(2) factors.

    The rank-1 structure of the reshaped matrix gives the factors by SVD;
    each is then projected to unit determinant and the leftover +-1 is
    folded into the first factor.
    """
    t = u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    w, s, vh = np.linalg.svd(t)
    f1 = math.sqrt(s[0]) * w[:, 0].reshape(2, 2)
    f2 = math.sqrt(s[0]) * vh[0, :].reshape(2, 2)
    f1 = f1 / cmath.sqrt(np.linalg.det(f1))
    f2 = f2 / cmath.sqrt(np.linalg.det(f2))
    residual = np.trace(kron(f1, f2).conj().T @ u) / 4
    f1 = f1 * round(residual.real)  # +-1; det unchanged
    return f1, f2


def kak_decompose(u: np.ndarray) -> KakFactors:
    """Numeric Cartan (KAK) factorization of a U(4) element.

    Works in the magic basis: m = U_B^T U_B is diagonalized over a real
    orthogonal frame; the eigenphases fix the entangler coordinates and
    global phase, the frames fix the local rotations.
    """
    u = require_unitary(u)
    ub = MAGIC.conj().T @ u @ MAGIC
    m = ub.T @ ub
    basis = _joint_orthogonal_eigenbasis(m)
    if np.linalg.det(basis) < 0:
        basis = basis.copy()
        basis[:, 0] = -basis[:, 0]
    d = np.diag(basis.T @ m @ basis)
    theta = np.angle(d) / 2
    k1 = ub @ basis @ np.diag(np.exp(-1j * theta))
    if np.linalg.det(k1).real < 0:
        theta = theta.copy()
        theta[0] += math.pi
        k1 = ub @ basis @ np.diag(np.exp(-1j * theta))
    # theta_k = phase - (x, y, z) . diag_k ; exact 4x4 linear solve.
    xyzp = np.linalg.solve(_PHASE_SYSTEM, theta)
    coords = EntanglerCoords(*map(float, xyzp[:3]))
    phase = float(xyzp[3])

    post1, post2 = _kron_factor_local(MAGIC @ k1.real @ MAGIC.conj().T)
    pre1, pre2 = _kron_factor_local(MAGIC @ basis.T @ MAGIC.conj().T)

    # Wrapping coordinates into the principal cell is exact (period 2*pi)
    # but the phase must be rewrapped too.
    factors = KakFactors(phase=float(wrap_angle(phase)),
                         u_post=(post1, post2),
                         coords=coords.wrapped(),
                         u_pre=(pre1, pre2))
    return factors


_QUARTER = math.pi / 4
_HALF = math.pi / 2
# Roundoff band within which a Weyl coordinate counts as on a chamber edge.
_EDGE_TOL = 1e-12


def weyl_canonicalize(c: EntanglerCoords) -> EntanglerCoords:
    """Canonical Weyl-chamber representative of the local class of A(c).

    Convention: pi/4 >= x >= y >= |z| with z >= 0 unless the class parity
    forces a single negative coordinate (then it is carried by z). Every
    move used is a local-class symmetry: per-axis shifts by pi/2, paired
    sign flips, and coordinate permutations.
    """
    v = c.as_array()
    # Reduce each coordinate to [-pi/4, pi/4], preferring +pi/4 on the edge.
    v = v - _HALF * np.floor((v + _QUARTER) / _HALF)
    v[np.isclose(v, -_QUARTER, rtol=0, atol=_EDGE_TOL)] = _QUARTER
    neg = int(np.sum(v < -_EDGE_TOL)) % 2
    order = np.argsort(-np.abs(v), kind="stable")
    mag = np.abs(v)[order]
    x, y, z = mag
    if neg:
        # A lone sign can be dropped on a 0 or pi/4 coordinate (a pi/2
        # shift there is itself a local move); otherwise z carries it.
        on_edge = any(math.isclose(m, _QUARTER, rel_tol=0, abs_tol=_EDGE_TOL)
                      or m < _EDGE_TOL
                      for m in mag)
        if not on_edge:
            z = -z
    return EntanglerCoords(float(x), float(y), float(z))
