"""Local-equivalence machinery for two-qubit gates: Makhlin invariants,
equivalence testing, Weyl-chamber canonicalization, and a numeric KAK
(Cartan) decomposition of arbitrary U(4) elements.

makhlin_invariants checks a gate (unitarity, then the G2 residual) and
memoizes the invariants of the last 32 distinct inputs by content (the
C-order bytes of the 4x4 complex array); locally_equivalent, kak_decompose
and pulses.verify_schedule check gates through it, so each content is
checked once, and a failing check is not memoized. KAK maps the magic-basis
eigenphases to the coordinates and phase by one constant matrix, the exact
inverse of a +-1 Hadamard system; its wraps and the Weyl-chamber moves run
on Python floats.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .entangler import EntanglerCoords, _wrap, canonical_entangler
from .errors import NotUnitary
from .qmat import GEN_DIAGS, MAGIC, MAGIC_DAG, _as_4x4, kron, require_unitary

__all__ = [
    "MAGIC", "MakhlinInvariants", "KakFactors",
    "makhlin_invariants", "locally_equivalent",
    "kak_decompose", "weyl_canonicalize",
]

# The linear system theta = _PHASE_SYSTEM (x, y, z, phase) of the
# magic-basis eigenphases. GEN_DIAGS is exactly +-1, so it is a Hadamard
# matrix (H H^T = 4 I) and its inverse H^T / 4 is exact.
_PHASE_SYSTEM = np.hstack([-GEN_DIAGS, np.ones((4, 1))])
_PHASE_INVERSE = _PHASE_SYSTEM.T / 4

# Distinct inputs whose invariants makhlin_invariants keeps.
_MEMO_SIZE = 32

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
    with m = (Q^dag u Q)^T (Q^dag u Q) in the magic basis.

    Memoized by content: an input mutated in place is checked anew, and a
    failing check raises on every call."""
    return _invariants(_as_4x4(u).tobytes())


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _invariants(raw: bytes) -> MakhlinInvariants:
    """makhlin_invariants of the 4x4 complex array with C-order bytes raw."""
    u = require_unitary(np.frombuffer(raw, dtype=complex).reshape(4, 4))
    um = MAGIC_DAG @ u @ MAGIC
    m = um.T @ um
    # Python complex scalars from here: cheaper than numpy scalars.
    det = complex(np.linalg.det(um))
    tr = complex(m.trace())
    tr2 = tr * tr
    g1 = tr2 / (16 * det)
    g2 = (tr2 - complex((m * m).sum())) / (4 * det)  # tr(m^2), m symmetric
    residual = abs(g2.imag)
    if residual > 1e-10:
        raise NotUnitary(
            f"G2 imaginary residual {residual:.3e} exceeds 1e-10; "
            "input is not unitary enough")
    return MakhlinInvariants(g1=g1, g2=g2.real, g2_imag_residual=residual)


def locally_equivalent(u: np.ndarray, v: np.ndarray) -> bool:
    """True iff u and v differ only by local rotations and a phase,
    i.e. their Makhlin invariants lie within CLASS_TOL of each other."""
    return (makhlin_invariants(u).distance(makhlin_invariants(v))
            < CLASS_TOL)


@dataclass(frozen=True)
class KakFactors:
    """U = e^{i phase} (u_post1 x u_post2) A(coords) (u_pre1 x u_pre2),
    with each local factor in SU(2) and coords in the principal cell.

    eigh_attempts counts the weights the eigenbasis search tried: 1 on
    the generic path, more when degenerate eigenvalues forced a retry.
    """

    phase: float
    u_post: tuple  # (Mat2, Mat2)
    coords: EntanglerCoords
    u_pre: tuple   # (Mat2, Mat2)
    eigh_attempts: int

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
            "eigh_attempts": self.eigh_attempts,
        }


# Off-diagonal positions of a flattened 4x4 matrix.
_OFF_DIAGONAL = ~np.eye(4, dtype=bool).ravel()


def _eigh_weights():
    """Weights (w_re, w_im) for _joint_orthogonal_eigenbasis, in order:
    two fixed pairs, then 20 seeded normal draws. The generator is built
    only when both fixed pairs fail, so the generic call never touches
    numpy.random (which a module-level generator would load at import)."""
    yield 1 / math.pi, math.pi
    yield 1 / 10, 10
    rng = np.random.default_rng(20090619)
    for _ in range(20):
        yield tuple(rng.normal(size=2))


def _joint_orthogonal_eigenbasis(m: np.ndarray):
    """(basis, diag, attempts): a real orthogonal eigenbasis of a unitary
    complex-symmetric matrix, the diagonal of basis^T m basis, and the
    number of weights tried.

    Re(m) and Im(m) are commuting real symmetric matrices; diagonalize a
    generic linear combination, accepted once basis^T m basis is diagonal
    within 1e-11. The fixed weights (1/pi, pi) and (1/10, 10) come first;
    the deterministically seeded retry weights are drawn only if both
    leave a degenerate cluster unresolved.
    """
    re, im = m.real, m.imag
    for attempt, (wr, wi) in enumerate(_eigh_weights(), start=1):
        _, basis = np.linalg.eigh(wr * re + wi * im)
        check = basis.T @ m @ basis
        if np.max(np.abs(check.ravel()[_OFF_DIAGONAL])) < 1e-11:
            return basis, np.diag(check), attempt
    raise NotUnitary("could not jointly diagonalize; input is "
                     "likely far from unitary")


def _det2(b: np.ndarray) -> complex:
    return b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]


def _kron_factor_local(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an element a (x) b of SU(2) x SU(2) into SU(2) factors, in
    closed form.

    Block (i, j) of a (x) b is a[i, j] b. The block of largest norm has
    norm sqrt(2)|a[i, j]| >= 1, so scaling it to unit determinant gives
    +-b stably; then a[i, j] = tr(b^dag block_ij) / 2, and a is scaled to
    unit determinant too. The common sign cancels in a (x) b.
    """
    blocks = u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    k = int(np.argmax(np.sum(np.abs(blocks) ** 2, axis=1)))
    b = blocks[k].reshape(2, 2)
    b = b / cmath.sqrt(_det2(b))
    a = (blocks @ b.conj().ravel()).reshape(2, 2) / 2
    a = a / cmath.sqrt(_det2(a))
    return a, b


def kak_decompose(u: np.ndarray) -> KakFactors:
    """Numeric Cartan (KAK) factorization of a U(4) element.

    Works in the magic basis: m = U_B^T U_B is diagonalized over a real
    orthogonal frame; the eigenphases fix the entangler coordinates and
    global phase, the frames fix the local rotations. The input is
    checked, and refused, by makhlin_invariants: a memo hit after it.
    """
    makhlin_invariants(u)
    u = _as_4x4(u)
    ub = MAGIC_DAG @ u @ MAGIC
    m = ub.T @ ub
    # Flipping a column leaves the diagonal of basis^T m basis unchanged.
    basis, d, attempts = _joint_orthogonal_eigenbasis(m)
    if np.linalg.det(basis) < 0:
        basis[:, 0] = -basis[:, 0]
    theta = np.angle(d) / 2
    k1 = (ub @ basis) * np.exp(-1j * theta)
    if np.linalg.det(k1).real < 0:
        theta[0] += math.pi
        k1[:, 0] = -k1[:, 0]
    # theta_k = phase - (x, y, z) . diag_k, inverted exactly.
    x, y, z, phase = (_PHASE_INVERSE @ theta).tolist()

    post1, post2 = _kron_factor_local(MAGIC @ k1.real @ MAGIC_DAG)
    pre1, pre2 = _kron_factor_local(MAGIC @ basis.T @ MAGIC_DAG)

    # Wrapping coordinates into the principal cell is exact (period 2*pi)
    # but the phase must be rewrapped too.
    return KakFactors(phase=_wrap(phase),
                      u_post=(post1, post2),
                      coords=EntanglerCoords(_wrap(x), _wrap(y), _wrap(z)),
                      u_pre=(pre1, pre2),
                      eigh_attempts=attempts)


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
    """
    if not isinstance(c, EntanglerCoords):
        raise ValueError(f"expected EntanglerCoords, got {c!r}")
    v = []
    for a in (c.x, c.y, c.z):
        # Reduce to [-pi/4, pi/4], preferring +pi/4 on the edge.
        a -= _HALF * math.floor((a + _QUARTER) / _HALF)
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
