"""Lab-frame and rotating-frame Hamiltonians for a pair of weakly
coupled qubits, and the reduction of the 9-component coupling tensor to
the 3 effective rotating-frame parameters (J, J_zz, J').

Both coupling Hamiltonians are qmat.coupling_operator of a 3x3 tensor:
J_{mu nu} itself in the lab frame, and its rotating-wave part
[[J, J', 0], [-J', J, 0], [0, 0, J_zz]] in the rotating frame, built by
rot_frame_matrix (pulses.trajectory toggles it in the magic basis). With
(s, phi) = RotFrameParams.fold, rot_frame_propagator is qmat's closed
form of A(s r t, s r t, J_zz t) turned by Rz(phi) on qubit 2, the frame
of the compiler's wraps (simulation reads its five entries,
_rot_frame_entries); only the lab frame needs an eigendecomposition.

rwa_infidelity compares the two in the lab frame. The drift
H0 = -(eps/2)(Z1 + Z2) commutes with the rotating-wave coupling
([H0, H_RWA] = 0: both conserve the excitation number), so the
rotating-wave evolution seen from the lab is e^{-i H0 T} times
rot_frame_propagator. H0 is diagonal and zero on {|01>, |10>}, so that
product only rephases the propagator's two corner entries, and the frame
change, being unitary, leaves the distance unchanged: the lab-frame
comparison is exact and costs two scalar multiplies. rwa_infidelity checks
its arguments; qmat's kernels then trust the matrices built from them.

Basis ordering |00>, |01>, |10>, |11> with qubit 1 the left tensor
factor; |0> is the lower eigenstate of -(eps/2) sigma^z.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import qmat

__all__ = [
    "CouplingTensor", "RotFrameParams",
    "reduce_coupling", "rot_frame_matrix", "rot_frame_propagator",
    "lab_frame_hamiltonian",
    "rwa_infidelity",
]

_AXES = ("x", "y", "z")
# What qmat._finite names each entry by, in C order.
_ENTRY_LABELS = tuple(f"coupling tensor entry J{a}{b}"
                      for a in _AXES for b in _AXES)


def _number(d: dict, key: str) -> float:
    """d[key] as a finite float; ValueError if it is anything else."""
    if key not in d:
        raise ValueError(f"coupling JSON missing key {key!r}")
    return qmat._finite(f"coupling JSON {key!r}", d[key])


def _float_copy(j) -> np.ndarray | None:
    """A float copy of j if it is a 3x3 array of bools, integers or reals
    that float64 holds without overflow; None otherwise."""
    try:
        a = np.asarray(j)
    except (TypeError, ValueError):
        return None  # ragged, say
    if (a.shape != (3, 3) or a.dtype.kind not in "biuf"
            or a.dtype.itemsize > 8):
        return None
    return a.astype(float)


@dataclass(frozen=True, eq=False)
class CouplingTensor:
    """3x3 real tensor J_{mu nu}, mu/nu in {x,y,z}, angular-frequency units.

    Each entry must be a finite real number (qmat._finite); strings, None
    and complex values raise ValueError. j is stored as a read-only float
    array, so no entry can be changed past that check.
    """

    j: np.ndarray

    def __post_init__(self):
        j = _float_copy(self.j)
        # The sum is finite if every entry is; the rare overflow of finite
        # entries only takes the path below, which accepts them.
        if j is None or not math.isfinite(sum(j.ravel().tolist())):
            # Entry by entry, which names the first bad one. As objects:
            # numpy would read "0.5" as 0.5 and a complex entry as a bare
            # TypeError.
            j = np.asarray(self.j, dtype=object)
            if j.shape != (3, 3):
                raise ValueError("coupling tensor must be 3x3")
            j = np.array([qmat._finite(what, x) for what, x in
                          zip(_ENTRY_LABELS, j.ravel().tolist())]
                         ).reshape(3, 3)
        j.setflags(write=False)
        object.__setattr__(self, "j", j)

    @classmethod
    def from_dict(cls, d: dict) -> "CouplingTensor":
        if not isinstance(d, dict):
            raise ValueError("coupling JSON must be an object")
        return cls(j=np.array([[_number(d, f"J{a}{b}") for b in _AXES]
                               for a in _AXES]))

    def to_dict(self) -> dict:
        out = {f"J{a}{b}": float(self.j[i, k])
               for i, a in enumerate(_AXES) for k, b in enumerate(_AXES)}
        out["unit"] = "angular frequency"
        return out


@dataclass(frozen=True)
class RotFrameParams:
    """Effective rotating-frame couplings (J, J_zz, J')."""

    j: float
    j_zz: float
    j_prime: float

    def __post_init__(self):
        # Python floats: numpy scalars would warn on overflow below.
        for name, what in (("j", "J"), ("j_zz", "J_zz"), ("j_prime", "J'")):
            object.__setattr__(self, name,
                               qmat._finite(f"coupling {what}",
                                            getattr(self, name)))
        # rot_frame_matrix has spectral radius |J_zz| + 2|J + iJ'|.
        if not math.isfinite(abs(self.j_zz)
                             + 2 * math.hypot(self.j, self.j_prime)):
            raise ValueError("|J_zz| + 2|J + iJ'| overflows: "
                             "couplings J and J' or J_zz are too large")

    @property
    def fold(self) -> tuple[float, float]:
        """(s, phi): s = +-1, phi in (-pi/2, pi/2], J + iJ' = s r e^{i phi}.
        Rz(phi) on qubit 2 turns the tensor into diag(s r, s r, J_zz)."""
        phi = math.atan2(self.j_prime, self.j)
        if -math.pi / 2 < phi <= math.pi / 2:
            return 1.0, phi
        return -1.0, phi - math.copysign(math.pi, phi)

    @classmethod
    def from_dict(cls, d: dict) -> "RotFrameParams":
        if not isinstance(d, dict):
            raise ValueError("coupling JSON must be an object")
        return cls(j=_number(d, "J"), j_zz=_number(d, "Jzz"),
                   j_prime=_number(d, "Jprime"))

    def to_dict(self) -> dict:
        return {"J": self.j, "Jzz": self.j_zz, "Jprime": self.j_prime}


def reduce_coupling(ct: CouplingTensor) -> RotFrameParams:
    """Rotating-wave reduction of the full tensor to (J, J_zz, J').

    J = (Jxx + Jyy)/2, J' = (Jxy - Jyx)/2, J_zz passes through; every
    other combination time-averages to zero in the rotating frame.
    """
    qmat._require_type(ct, CouplingTensor)
    (xx, xy, _), (yx, yy, _), (_, _, zz) = ct.j.tolist()
    # On Python floats. Halves first: J and J' stay finite whenever the
    # entries are.
    return RotFrameParams(j=xx / 2 + yy / 2, j_zz=zz, j_prime=xy / 2 - yx / 2)


def rot_frame_matrix(p: RotFrameParams) -> np.ndarray:
    """J (XX + YY) + J' (XY - YX) + J_zz ZZ, the coupling_operator of the
    rotating-frame tensor: diag(J_zz, -J_zz, -J_zz, J_zz) with 2(J + iJ')
    on the |01><10| entry."""
    qmat._require_type(p, RotFrameParams)
    j, jp, jzz = p.j, p.j_prime, p.j_zz
    return qmat._coupling_operator(
        np.array([[j, jp, 0.0], [-jp, j, 0.0], [0.0, 0.0, jzz]]))


def _rot_frame_entries(p: RotFrameParams, t) -> tuple:
    """rot_frame_propagator(p, t) as qmat._entangler's five entries."""
    r = math.hypot(p.j, p.j_prime)
    t = qmat._require_finite_phase(abs(p.j_zz) + 2 * r, t)
    s, phi = p.fold
    return qmat._entangler(0.0, 2 * s * r * t, p.j_zz * t,
                           cmath.exp(1j * phi))


def rot_frame_propagator(p: RotFrameParams, t: float) -> np.ndarray:
    """e^{-i rot_frame_matrix(p) t}: the canonical entangler
    A(s r t, s r t, J_zz t) turned by Rz(phi) on qubit 2, with
    (s, phi) = p.fold and r = |J + iJ'|, in qmat's one closed form.
    Raises ValueError when t is no number or (|J_zz| + 2r)|t| is not
    finite.
    """
    qmat._require_type(p, RotFrameParams)
    return qmat._entangler_array(_rot_frame_entries(p, t))


def lab_frame_hamiltonian(ct: CouplingTensor, eps: float) -> np.ndarray:
    """Lab-frame Hamiltonian of two undriven qubits tuned to the same
    splitting eps:

    H = -(eps/2)(Z1 + Z2) + sum_{mu nu} J_{mu nu} sigma_1^mu sigma_2^nu.
    Raises ValueError unless eps is positive and finite and so is
    eps + sum |J_{mu nu}|.
    """
    return _lab_frame(ct, eps)[0]


def _lab_frame(ct: CouplingTensor, eps) -> tuple:
    """(lab_frame_hamiltonian(ct, eps), sum |J_mn|): Hermitian bit for bit."""
    qmat._require_type(ct, CouplingTensor)
    eps = qmat._real("eps", eps)
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    # Summed on Python floats: an overflow is inf, not a numpy warning.
    j_sum = sum(map(abs, ct.j.ravel().tolist()))
    if not math.isfinite(eps + j_sum):
        raise ValueError("coupling tensor too large: eps + sum |J| overflows")
    # The drift diag(-eps, 0, 0, eps): both qubits tuned to eps.
    h = qmat._coupling_operator(ct.j)
    h[0, 0] -= eps
    h[3, 3] += eps
    return h, j_sum


def rwa_infidelity(ct: CouplingTensor, eps: float, t_final: float) -> float:
    """Phase-insensitive distance between the exact rotating-frame
    propagator and the rotating-wave-approximated one.

    The lab-frame Hamiltonian is constant, so U_lab = e^{-i H_lab T}
    exactly (the one eigendecomposition). The comparison is made in the
    lab frame, with no approximation: for H0 = -(eps/2)(Z1 + Z2), the
    distance of U_rot = e^{+i H0 T} U_lab to U_RWA, the
    rot_frame_propagator of the reduced couplings, equals that of U_lab
    to e^{-i H0 T} U_RWA, because e^{-i H0 T} is unitary. As
    [H0, H_RWA] = 0, that is e^{-i (H0 + H_RWA) T}, the rotating-wave
    evolution in the lab frame, and e^{-i H0 T} =
    diag(e^{i eps T}, 1, 1, e^{-i eps T}) rephases only its two corners.
    ValueError unless eps and t_final are positive and finite; last,
    naming t_final, when max(eps, sum |J_mn|) t_final > 2^32. That rate
    bounds the spectral radius of H_lab within a factor of 2, and past
    2^32 the phase roundoff 2^-52 rate t_final exceeds 2^-20 (~1e-6) rad
    and the result is noise.
    """
    t_final = qmat._real("t_final", t_final)
    if not (t_final > 0 and math.isfinite(t_final)):
        raise ValueError("T must be positive and finite")
    eps = qmat._real("eps", eps)
    h, j_sum = _lab_frame(ct, eps)
    u_lab = qmat._expm_eigh(h, t_final)
    w = _rot_frame_entries(reduce_coupling(ct), t_final)
    if max(eps, j_sum) * t_final > 2.0 ** 32:
        raise ValueError(f"t_final {t_final!r} is too long: "
                         "max(eps, sum |J|) * t_final exceeds 2^32, where "
                         "its phase roundoff exceeds 1e-6 rad")
    # rot_frame_propagator's array, e^{-i H0 T} on |00> in its corners.
    u_rwa = qmat._entangler_array(w, cmath.exp(1j * (eps * t_final)))
    return qmat._phase_distance(u_lab, u_rwa)
