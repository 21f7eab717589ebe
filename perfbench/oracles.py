"""Independent reference math for the benchmark's correctness checks.

Nothing here imports qgd: every reference (Paulis, rotations, the
eigh-based exponential, the magic basis, Makhlin invariants, the canonical
entangler, the area theorem) is rebuilt from its textbook definition, so a
defect in the code under test cannot also hide in its oracle.

References: Makhlin, quant-ph/0002045 (invariants G1, G2 in the magic
basis); Zhang, Vala, Sastry and Whaley, PRA 67, 042313 (2003) (KAK form
e^{i phi} K1 A(x, y, z) K2 and the Weyl chamber pi/4 >= x >= y >= |z|).
"""
from __future__ import annotations

import math

import numpy as np

# Bound at import, before any tracer rebinds numpy.linalg.eigh, so the
# oracles never show up in the traced eigensolver counts.
_eigh = np.linalg.eigh

I2 = np.eye(2, dtype=complex)
PX = np.array([[0, 1], [1, 0]], dtype=complex)
PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
PZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"x": PX, "y": PY, "z": PZ}
XX = np.kron(PX, PX)
YY = np.kron(PY, PY)
ZZ = np.kron(PZ, PZ)
XY = np.kron(PX, PY)
YX = np.kron(PY, PX)

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
TARGETS = {"CNOT": CNOT, "SWAP_CNOT": SWAP @ CNOT}

# Makhlin's magic basis (columns): Bell states with phases chosen so that
# SU(2) x SU(2) maps onto SO(4).
MAGIC = np.array([[1, 0, 0, 1j],
                  [0, 1j, 1, 0],
                  [0, 1j, -1, 0],
                  [1, 0, 0, -1j]], dtype=complex) / math.sqrt(2)

# Tolerances. Compiled schedules and KAK factors are exact constructions, so
# their float error is ~1e-14; 1e-9 is the verification tolerance qgd
# itself documents, and a nudge of one angle by 1e-6 moves the distance
# by ~1e-6, far outside it.
EXACT_TOL = 1e-9
# The RWA reference is the closed-form U_lab = exp(-i H_lab T). qgd
# integrates ~1e5 piecewise segments at g/eps = 1e-3 and drifts from it by
# up to ~4e-8 in the propagator through roundoff, so the infidelity is
# compared with an absolute 1e-6: 25x above that drift, yet a 1e-3 relative
# change of any infidelity in the scan (all above 1e-3) breaks it.
RWA_TOL = 1e-6


def haar_unitary(rng: np.random.Generator, n: int = 4) -> np.ndarray:
    """Haar-random U(n): QR of a complex Gaussian with the R-phase fix."""
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_su2(rng: np.random.Generator) -> np.ndarray:
    u = haar_unitary(rng, 2)
    return u / np.sqrt(np.linalg.det(u))


def expm_h(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i h t) for Hermitian h by eigendecomposition."""
    w, v = _eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def rotation(axis: str, angle: float, qubit: int) -> np.ndarray:
    """exp(-i angle sigma^axis / 2) on one qubit; qubit 1 is the left factor."""
    r = math.cos(angle / 2) * I2 - 1j * math.sin(angle / 2) * PAULIS[axis]
    return np.kron(r, I2) if qubit == 1 else np.kron(I2, r)


def coupling_operator(j: float, j_zz: float, j_prime: float) -> np.ndarray:
    """Rotating-frame coupling J(XX + YY) + J_zz ZZ + J'(XY - YX)."""
    return j * (XX + YY) + j_zz * ZZ + j_prime * (XY - YX)


def reduce_tensor(t: np.ndarray) -> tuple[float, float, float]:
    """Rotating-wave reduction of a 3x3 coupling tensor to (J, J_zz, J')."""
    return ((t[0, 0] + t[1, 1]) / 2, t[2, 2], (t[0, 1] - t[1, 0]) / 2)


def schedule_unitary(ops, h: np.ndarray) -> np.ndarray:
    """Product of neutral schedule ops (first-applied first) under h.

    Each op is ("rotate", axis, angle, qubit), ("entangle", duration) or
    ("phase", angle).
    """
    u = np.eye(4, dtype=complex)
    for op in ops:
        if op[0] == "rotate":
            u = rotation(op[1], op[2], op[3]) @ u
        elif op[0] == "entangle":
            u = expm_h(h, op[1]) @ u
        elif op[0] == "phase":
            u = np.exp(1j * op[1]) * u
        else:
            raise ValueError(f"unknown op {op!r}")
    return u


def ops_from_json(items) -> list:
    """Neutral ops from the schedule JSON list the CLI reads and writes."""
    out = []
    for it in items:
        if it["op"] == "rotate":
            out.append(("rotate", it["axis"], float(it["angle"]),
                        int(it["qubit"])))
        elif it["op"] == "entangle":
            out.append(("entangle", float(it["duration"])))
        else:
            out.append(("phase", float(it["angle"])))
    return out


def ops_to_json(ops) -> list:
    out = []
    for op in ops:
        if op[0] == "rotate":
            out.append({"op": "rotate", "axis": op[1], "angle": op[2],
                        "qubit": op[3]})
        elif op[0] == "entangle":
            out.append({"op": "entangle", "duration": op[1]})
        else:
            out.append({"op": "phase", "angle": op[1]})
    return out


def frob(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.linalg.norm(u - v))


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over theta of ||u - e^{i theta} v||_F, taken at the optimal
    phase arg tr(v^dag u) rather than through sqrt(2n - 2|tr|), whose
    cancellation leaves a ~3e-8 floor."""
    overlap = np.trace(v.conj().T @ u)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return frob(u, phase * v)


def invariants(u: np.ndarray) -> tuple[complex, float]:
    """Makhlin invariants (G1, G2) of a U(4) element."""
    ub = MAGIC.conj().T @ u @ MAGIC
    m = ub.T @ ub
    det = np.linalg.det(u)
    tr = np.trace(m)
    g1 = tr * tr / (16 * det)
    g2 = (tr * tr - np.trace(m @ m)) / (4 * det)
    return complex(g1), float(g2.real)


# XX, YY, ZZ are diagonal in the magic basis with +-1 entries; their
# diagonals are the columns of _SIGNS (orthogonal, each summing to 0).
_SIGNS = np.array([np.diag(MAGIC.conj().T @ p @ MAGIC).real
                   for p in (XX, YY, ZZ)]).T


def weyl_face_gap(u: np.ndarray) -> np.ndarray:
    """pi/4 minus the largest canonical Weyl coordinate of u's class: how
    far the class lies from the chamber face x = pi/4. u may be a stack of
    4x4 unitaries; the result then has one gap per matrix.

    In the magic basis A(x, y, z) is diag(e^{-i theta}) with theta =
    _SIGNS (x, y, z), so the eigenphases 2 theta of m = U_B^T U_B (U scaled
    into SU(4)) give a representative (x, y, z) = -_SIGNS^T theta / 4 once
    theta sums to exactly 0. Every representative of the class has the same
    coordinate magnitudes folded into [0, pi/4], so no eigenvalue order or
    branch choice matters."""
    v = u / np.linalg.det(u)[..., None, None] ** 0.25
    ub = MAGIC.conj().T @ v @ MAGIC
    m = np.swapaxes(ub, -1, -2) @ ub
    theta = np.sort(np.angle(np.linalg.eigvals(m)) / 2, axis=-1)
    # The phases lie in (-pi/2, pi/2] and sum to a multiple of pi: move
    # whole pi's from the largest (or onto the smallest) until they sum to 0.
    turns = np.rint(theta.sum(axis=-1) / math.pi)[..., None]
    k = np.arange(4)
    theta = theta - math.pi * (k >= 4 - turns) + math.pi * (k < -turns)
    xyz = -theta @ _SIGNS / 4
    folded = np.abs(xyz - (math.pi / 2) * np.round(xyz / (math.pi / 2)))
    return math.pi / 4 - folded.max(axis=-1)


def invariant_distance(a: tuple, b: tuple) -> float:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def entangler(x: float, y: float, z: float) -> np.ndarray:
    """A(x, y, z) = exp(-i (x XX + y YY + z ZZ))."""
    return expm_h(x * XX + y * YY + z * ZZ)


def in_weyl_chamber(x: float, y: float, z: float, atol: float = 1e-9) -> bool:
    return (math.pi / 4 + atol >= x >= y - atol
            and y + atol >= abs(z))


def ising_cnot_ops(j_zz: float) -> list:
    """CNOT under a pure J_zz coupling, from the paper's single-shot form:
    H_2 A(0, 0, pi/4) with z-rotations, in application order."""
    s = 1.0 if j_zz > 0 else -1.0
    had = [("rotate", "y", math.pi / 2, 2), ("rotate", "x", math.pi, 2),
           ("phase", math.pi / 2)]
    return [*had, ("entangle", math.pi / (4 * abs(j_zz))),
            ("rotate", "z", -s * math.pi / 2, 2),
            ("rotate", "z", -s * math.pi / 2, 1),
            *had, ("phase", -s * math.pi / 4)]


def trajectory_endpoint(j: float, j_zz: float, ops) -> tuple[np.ndarray, int]:
    """Area theorem (J' = 0): (x, y, z) advance at (J, J, J_zz) with signs
    flipped by pi pulses (x: YY and ZZ; y: XX and ZZ). Returns the raw
    endpoint and the number of entangling intervals."""
    flips = {"x": np.array([1.0, -1.0, -1.0]),
             "y": np.array([-1.0, 1.0, -1.0])}
    signs = np.ones(3)
    rates = np.array([j, j, j_zz])
    r = np.zeros(3)
    intervals = 0
    for op in ops:
        if op[0] == "rotate":
            signs = signs * flips[op[1]]
        elif op[0] == "entangle" and op[1] > 0:
            r = r + signs * rates * op[1]
            intervals += 1
    return r, intervals
