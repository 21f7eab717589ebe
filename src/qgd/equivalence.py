"""Local-equivalence machinery for two-qubit gates: Makhlin invariants,
equivalence testing, Weyl-chamber canonicalization, and a numeric KAK
(Cartan) decomposition of arbitrary U(4) elements.

makhlin_invariants checks a gate (unitarity, then the G2 residual) and
memoizes, for the last 32 distinct inputs by content (the C-order bytes
of the 4x4 complex array), the invariants together with the checked gate
u, read-only, and det u; locally_equivalent, kak_decompose,
pulses.verify_schedule's target check and compiler's two targets gate
through it, so each content is checked once, and a failing check is not
memoized. Its kernel _makhlin needs no magic basis: Q Q^T = -Y (x) Y, so
the traces of m = ub^T ub, ub = Q^dag u Q, are those of
m' = u^T (Y (x) Y) u (Y (x) Y), one product, and det ub = det u; it also
takes a product the package simulated, unchecked. Determinants are
Laplace expansions on Python scalars (_det4); no LU factorization runs.
KAK alone needs the magic basis Q, which is private to this module.
KAK forms ub from the memo's u, takes it one Newton-Schulz step towards
U(4) and forms m = ub^T ub; it takes one eigh of Re m, one of Im m per
near-degenerate cluster of Re m, one of Re m per cluster Im m leaves
coupled, and so on. It maps the magic-basis eigenphases to the
coordinates and phase by one constant matrix, the exact inverse of a +-1
Hadamard system, which puts them within 3pi/4 of 0 with no wrap, and
reads all four local factors off the two real orthogonal magic-basis
forms by one constant real map (_ASSOC) to the quaternion products a b^T
(_so4_pairs). Every product is ndarray.dot, not @ (see qmat): KAK is a
few dozen 4x4 numpy calls, whose cost is dispatch, and a real-complex
R^T m R took 4.3 us by @ and 3.2 us by dot on a 2-vCPU Xeon VM, numpy
2.4. The Weyl-chamber moves run on Python floats, each coordinate reduced
exactly by math.remainder.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .entangler import EntanglerCoords, canonical_entangler
from .errors import NotUnitary
from .qmat import (I2, SX, SY, SZ, _as_4x4, _require_type, kron,
                   require_unitary)

__all__ = [
    "makhlin_invariants", "locally_equivalent",
    "kak_decompose", "weyl_canonicalize",
]

# The magic (Bell) basis Q = _MAGIC2 / sqrt(2) (Zhang, Vala, Sastry and
# Whaley, PRA 67, 042313 (2003)), where local rotations are real
# orthogonal. _MAGIC2's entries are exact, so Re(Q^dag m Q) =
# Re(_MAGIC2^dag m _MAGIC2) / 2 carries no roundoff of 1/sqrt(2).
_MAGIC2 = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0],
                    [1, 0, 0, -1j]], dtype=complex)
_MAGIC2_DAG = _MAGIC2.conj().T
_MAGIC = (1 / math.sqrt(2)) * _MAGIC2
_MAGIC_DAG = _MAGIC.conj().T
# _GEN_DIAGS[:, k]: the diagonal of XX, YY, ZZ (k = 0, 1, 2) in Q, where
# all three are diagonal; every entry is exactly +-1.
_GEN_DIAGS = np.stack([np.diag(_MAGIC2_DAG @ np.kron(s, s) @ _MAGIC2).real
                       / 2 for s in (SX, SY, SZ)], axis=1)

# The linear system theta = _PHASE_SYSTEM (x, y, z, phase) of the
# magic-basis eigenphases. _GEN_DIAGS is exactly +-1, so it is a Hadamard
# matrix (H H^T = 4 I) and its inverse H^T / 4 is exact.
_PHASE_SYSTEM = np.hstack([-_GEN_DIAGS, np.ones((4, 1))])
_PHASE_INVERSE = _PHASE_SYSTEM.T / 4

# The quaternion basis of SU(2): q = (q0, q1, q2, q3) stands for
# q0 I - i (q1 X + q2 Y + q3 Z), a unit q for an element of SU(2).
_QUATERNIONS = np.array([I2, -1j * SX, -1j * SY, -1j * SZ])
# Row 4j + k: the magic-basis form of sigma_j (x) sigma_k, an exact signed
# permutation matrix, raveled and over 4. These 16 real matrices are
# orthogonal with norm^2 4, so for o = Q^dag (a (x) b) Q, _ASSOC @ o.ravel()
# is the outer product a b^T of the quaternions. One einsum forms all 16
# Kronecker products: a fifth of the import time of np.kron on each.
_ASSOC = (_MAGIC2_DAG @ np.einsum("jab,kcd->jkacbd", _QUATERNIONS,
                                  _QUATERNIONS).reshape(16, 4, 4)
          @ _MAGIC2).real.reshape(16, 16) / 8

# (Y (x) Y) u (Y (x) Y) = _YY_SIGNS * u[::-1, ::-1]: Y (x) Y is the
# antidiagonal (-1, 1, 1, -1), so each entry is the mirrored one, signed.
# Complex, as u is: a real factor would be cast on every call.
_YY_SIGNS = np.outer([-1, 1, 1, -1], [-1, 1, 1, -1]).astype(complex)

# Distinct inputs whose invariants makhlin_invariants keeps.
_MEMO_SIZE = 32

# Largest invariant distance at which two gates count as one local class.
CLASS_TOL = 1e-9


@dataclass(frozen=True)
class MakhlinInvariants:
    """The pair (G1, G2); G1 is generally complex, G2 real."""

    g1: complex
    g2: float

    def distance(self, other: "MakhlinInvariants") -> float:
        """|G1 - G1'| + |G2 - G2'|; zero iff the two local classes agree."""
        return abs(self.g1 - other.g1) + abs(self.g2 - other.g2)

    def to_dict(self) -> dict:
        # + 0.0 turns a negative zero into 0.0, for the JSON form.
        return {"G1": [self.g1.real + 0.0, self.g1.imag + 0.0],
                "G2": self.g2 + 0.0}


def makhlin_invariants(u: np.ndarray) -> MakhlinInvariants:
    """G1 = tr(m)^2 / (16 det u), G2 = (tr(m)^2 - tr(m^2)) / (4 det u),
    with m = (Q^dag u Q)^T (Q^dag u Q) in the magic basis.

    Memoized by content: an input mutated in place is checked anew, and a
    failing check raises on every call."""
    return _invariants(_as_4x4(u).tobytes())[0]


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _invariants(raw: bytes) -> tuple:
    """(makhlin_invariants, u, det u) of the 4x4 complex array u with
    C-order bytes raw, checked: u is read-only."""
    u = require_unitary(np.frombuffer(raw, dtype=complex).reshape(4, 4))
    invariants, det = _makhlin(u)
    return invariants, u, det


def _makhlin(u: np.ndarray) -> tuple:
    """(makhlin_invariants, det u) of a complex 4x4 array trusted to be
    unitary; it still checks the G2 residual.

    Q Q^T = -Y (x) Y, so m = ub^T ub is similar to m' = u^T (Y (x) Y) u
    (Y (x) Y): tr m = tr m', tr m^2 = tr m'^2, and det ub = det u
    (Zhang, Vala, Sastry and Whaley, PRA 67, 042313 (2003))."""
    # Python complex scalars from here: cheaper than numpy scalars.
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), \
        (m30, m31, m32, m33) = u.T.dot(_YY_SIGNS * u[::-1, ::-1]).tolist()
    det = _det4(u.tolist())
    tr = m00 + m11 + m22 + m33
    tr2 = tr * tr
    # tr m'^2; m' is not symmetric.
    sq = (m00 * m00 + m11 * m11 + m22 * m22 + m33 * m33
          + 2 * (m01 * m10 + m02 * m20 + m03 * m30
                 + m12 * m21 + m13 * m31 + m23 * m32))
    g1 = tr2 / (16 * det)
    g2 = (tr2 - sq) / (4 * det)
    residual = abs(g2.imag)
    if residual > 1e-10:
        raise NotUnitary(
            f"G2 imaginary residual {residual:.3e} exceeds 1e-10; "
            "input is not unitary enough")
    return MakhlinInvariants(g1=g1, g2=g2.real), det


def _det4(r):
    """Determinant of a 4x4 matrix given as rows of Python scalars: the
    Laplace expansion over the 2x2 minors of rows 0-1 and rows 2-3."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), \
        (d0, d1, d2, d3) = r
    return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))


def locally_equivalent(u: np.ndarray, v: np.ndarray) -> bool:
    """True iff u and v differ only by local rotations and a phase,
    i.e. their Makhlin invariants lie within CLASS_TOL of each other."""
    return (makhlin_invariants(u).distance(makhlin_invariants(v))
            < CLASS_TOL)


@dataclass(frozen=True, eq=False)
class KakFactors:
    """U = e^{i phase} (u_post1 x u_post2) A(coords) (u_pre1 x u_pre2),
    with each local factor in SU(2). Each coordinate lies within 3pi/4 of
    0 and the phase in [-pi/2, 3pi/4].

    A local pair (a, b) is fixed up to the common sign (-a, -b), which
    leaves a (x) b unchanged. Convention: written as a0 I - i (a1 X +
    a2 Y + a3 Z), the first factor's component of largest magnitude is
    positive.

    Rebuilt, it is off u by about ||u^dag u - I||_F / 2 at most, plus up
    to about _COUPLED where eigenphases of m nearly coincide.
    """

    phase: float
    u_post: tuple  # (Mat2, Mat2)
    coords: EntanglerCoords
    u_pre: tuple   # (Mat2, Mat2)

    def reconstruct(self) -> np.ndarray:
        return (cmath.exp(1j * self.phase) * kron(*self.u_post)).dot(
            canonical_entangler(self.coords)).dot(kron(*self.u_pre))

    def to_dict(self) -> dict:
        # + 0.0 turns a computed negative zero into 0.0, for the JSON form.
        def c2(m):
            return [[[z.real + 0.0, z.imag + 0.0] for z in row]
                    for row in np.asarray(m)]
        return {
            "phase": self.phase + 0.0,
            "coords": [self.coords.x, self.coords.y, self.coords.z],
            "u_post": [c2(self.u_post[0]), c2(self.u_post[1])],
            "u_pre": [c2(self.u_pre[0]), c2(self.u_pre[1])],
        }


# Entry of basis^T m basis above which two eigenvectors of one part of m
# count as one near-degenerate cluster that the other part must resolve.
_COUPLED = 1e-12


def _joint_orthogonal_eigenbasis(m: np.ndarray, imag: bool = False):
    """(basis, diag): a real orthogonal eigenbasis of a unitary complex-
    symmetric m, and the diagonal of basis^T m basis.

    Re m and Im m commute. The columns of eigh(Re m) fall into runs, each
    ending where none of its columns couples through m to a later one; a
    longer run (a near-degenerate cluster) is resolved likewise from
    Im m, whose runs take Re m again, and so on. When no entry above the
    diagonal couples, as for every Haar gate, each run is one column long
    and the eigh basis is returned as it is.
    """
    _, basis = np.linalg.eigh(m.imag if imag else m.real)
    c = basis.T.dot(m).dot(basis).tolist()
    d = [row[k] for k, row in enumerate(c)]
    if not any(abs(z) > _COUPLED
               for k, row in enumerate(c) for z in row[k + 1:]):
        return basis, d
    n = len(c)
    start = 0
    for j in range(1, n + 1):
        if j < n and any(abs(z) > _COUPLED
                         for row in c[start:j] for z in row[j:]):
            continue
        if j - start > 1:
            v, d[start:j] = _joint_orthogonal_eigenbasis(
                np.array([row[start:j] for row in c[start:j]]), not imag)
            basis[:, start:j] = basis[:, start:j].dot(v)
        start = j
    return basis, d


def _so4_pairs(*frames: np.ndarray) -> np.ndarray:
    """The SU(2) pairs (a, b) with Q^dag (a (x) b) Q = o, for each real o
    in SO(4) of frames, in closed form, under KakFactors' sign convention:
    a, b, a', b', ... as one complex array of 2x2 factors.

    _ASSOC maps o to the outer product a b^T of the two unit quaternions.
    Its row k of largest norm is a_k b, |a_k| the largest component of a;
    scaled to unit norm it is s b, s the sign of a_k, and a b^T s b = s a
    has the positive k-th component |a_k|. The pair is (s a, s b).
    """
    entries = []
    for o in frames:
        rows = _ASSOC.dot(o.ravel()).reshape(4, 4).tolist()
        norms = [math.hypot(*row) for row in rows]
        n = max(norms)
        b0, b1, b2, b3 = [v / n for v in rows[norms.index(n)]]
        a0, a1, a2, a3 = [r0 * b0 + r1 * b1 + r2 * b2 + r3 * b3
                          for r0, r1, r2, r3 in rows]
        # q0 I - i (q1 X + q2 Y + q3 Z), as (re, im) pairs in C order.
        entries += (a0, -a3, -a2, -a1, a2, -a1, a0, a3,
                    b0, -b3, -b2, -b1, b2, -b1, b0, b3)
    return np.array(entries).view(complex).reshape(-1, 2, 2)


def kak_decompose(u: np.ndarray) -> KakFactors:
    """Numeric Cartan (KAK) factorization of a U(4) element.

    Works in the magic basis: m = U_B^T U_B is diagonalized over a real
    orthogonal frame; the eigenphases fix the entangler coordinates and
    global phase, the frames fix the local rotations. The input is
    checked, and refused, by the invariants memo, whose record for the
    content also holds the checked gate U and det U = det U_B.
    """
    _, u, det_ub = _invariants(_as_4x4(u).tobytes())
    ub = _MAGIC_DAG.dot(u).dot(_MAGIC)
    # One Newton-Schulz step squares the deviation ub^dag ub - I, which
    # require_unitary bounds by 1e-9.
    ub = 1.5 * ub - 0.5 * ub.dot(ub.conj().T.dot(ub))
    m = ub.T.dot(ub)
    # Flipping a column leaves the diagonal of basis^T m basis unchanged.
    basis, d = _joint_orthogonal_eigenbasis(m)
    if _det4(basis.tolist()) < 0:
        basis[:, 0] = -basis[:, 0]
    theta = np.angle(d) / 2
    k1 = ub.dot(basis) * np.exp(-1j * theta)
    # det k1 = det(ub) det(basis) e^{-i sum theta}, and det(basis) = 1.
    if (det_ub * cmath.exp(-1j * sum(theta.tolist()))).real < 0:
        theta[0] += math.pi
        k1[:, 0] = -k1[:, 0]
    # theta_k = phase - (x, y, z) . diag_k, inverted exactly.
    x, y, z, phase = _PHASE_INVERSE.dot(theta).tolist()

    post1, post2, pre1, pre2 = _so4_pairs(k1.real, basis.T)

    # theta lies in [-pi/2, pi/2], theta[0] in [-pi/2, 3pi/2]: so |x|, |y|,
    # |z| <= 3pi/4 and phase in [-pi/2, 3pi/4], with no wrap.
    return KakFactors(phase=phase, u_post=(post1, post2),
                      coords=EntanglerCoords(x, y, z), u_pre=(pre1, pre2))


_QUARTER = math.pi / 4
_HALF = math.pi / 2
# Roundoff band within which a Weyl coordinate counts as on a chamber edge.
_EDGE_TOL = 1e-12


def weyl_canonicalize(c: EntanglerCoords) -> EntanglerCoords:
    """Canonical Weyl-chamber representative of the local class of A(c).

    Convention: pi/4 >= x >= y >= |z| with z >= 0 unless the class parity
    forces a single negative coordinate (then it is carried by z). Every
    move used is a local-class symmetry: per-axis shifts by pi/2, paired
    sign flips, and coordinate permutations. Raises ValueError for
    anything but an EntanglerCoords (whose coordinates are finite).

    Each coordinate a is reduced by math.remainder(a, pi/2), which is
    exact, so every finite a lands in the chamber. It shifts a by whole
    multiples of the float pi/2, which is 6e-17 off the true one, so past
    |a| ~ 1e6 the class of A(c) is resolved only to within |a| 6e-17.
    """
    _require_type(c, EntanglerCoords)
    v = []
    for a in (c.x, c.y, c.z):
        # Reduce to [-pi/4, pi/4], preferring +pi/4 on the edge.
        a = math.remainder(a, _HALF)
        v.append(_QUARTER if abs(a + _QUARTER) <= _EDGE_TOL else a)
    neg = sum(a < -_EDGE_TOL for a in v) % 2
    x, y, z = mag = sorted(map(abs, v), reverse=True)
    if neg:
        # A lone sign can be dropped on a 0 or pi/4 coordinate (a pi/2
        # shift there is itself a local move); otherwise z carries it.
        on_edge = any(abs(m - _QUARTER) <= _EDGE_TOL or m < _EDGE_TOL
                      for m in mag)
        if not on_edge:
            z = -z
    return EntanglerCoords(x, y, z)
