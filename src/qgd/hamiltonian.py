"""The rotating-frame Hamiltonian and propagator of a pair of weakly
coupled qubits, the reduction of the 9-component coupling tensor to the
3 effective rotating-frame parameters (J, J_zz, J'), and the check of
that reduction in the lab frame.

Both coupling Hamiltonians are qmat.coupling_operator of a 3x3 tensor:
J_{mu nu} itself in the lab frame, and its rotating-wave part
[[J, J', 0], [-J', J, 0], [0, 0, J_zz]] in the rotating frame, built by
rot_frame_matrix (pulses.trajectory toggles it and reads the tensor back).
With (s, phi) = RotFrameParams.fold, rot_frame_propagator is qmat's closed
form of A(s r t, s r t, J_zz t) turned by Rz(phi) on qubit 2, the frame
of the compiler's wraps (simulation reads its five entries,
_rot_frame_entries, at a duration its Entangle has read already).

rwa_infidelity compares the two in the lab frame; it alone builds the
lab-frame Hamiltonian, whose exponential has no closed form, and calls
qmat's one eigendecomposition, _expm_eigh. The drift H0 = -(eps/2)(Z1 + Z2)
commutes with the rotating-wave coupling
([H0, H_RWA] = 0: both conserve the excitation number), so the
rotating-wave evolution seen from the lab is e^{-i H0 T} times
rot_frame_propagator. H0 is diagonal and zero on {|01>, |10>}, so that
product only rephases the propagator's |00> and |11> entries, and the frame
change, being unitary, leaves the distance unchanged: the lab-frame
comparison is exact and costs two scalar multiplies. Each real argument
is read once, by qmat._finite, the package's one reader of a real, and
each phase checked once, by qmat._entangler; qmat's kernels then trust
the matrices built from them.

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


@dataclass(frozen=True, eq=False)
class CouplingTensor:
    """3x3 real tensor J_{mu nu}, mu/nu in {x,y,z}, angular-frequency units.

    Each entry must be a finite real number (qmat._finite); strings, None
    and complex values raise ValueError. j is stored as a read-only float
    array, so no entry can be changed past that check.
    """

    j: np.ndarray

    def __post_init__(self):
        # One path. Objects, unless an array: numpy would read "0.5" as 0.5
        # and a complex entry as a bare TypeError; qmat._finite names them.
        kind = None if isinstance(self.j, np.ndarray) else object
        j = np.asarray(self.j, dtype=kind)
        if j.shape != (3, 3):
            raise ValueError("coupling tensor must be 3x3")
        j = np.array(list(map(qmat._finite, _ENTRY_LABELS,
                              j.ravel().tolist()))).reshape(3, 3)
        j.setflags(write=False)
        object.__setattr__(self, "j", j)

    @classmethod
    def from_dict(cls, d: dict) -> "CouplingTensor":
        if not isinstance(d, dict):
            raise ValueError("coupling JSON must be an object")
        return cls(j=np.array([[_number(d, f"J{a}{b}") for b in _AXES]
                               for a in _AXES]))


@dataclass(frozen=True)
class RotFrameParams:
    """Effective rotating-frame couplings (J, J_zz, J')."""

    j: float
    j_zz: float
    j_prime: float

    def __post_init__(self):
        # Python floats: numpy scalars would warn on overflow below.
        for name, what in (("j", "J"), ("j_zz", "J_zz"), ("j_prime", "J'")):
            object.__setattr__(self, name, qmat._finite(
                f"coupling {what}", getattr(self, name)))
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


def _rot_frame_entries(p: RotFrameParams, t: float) -> tuple:
    """rot_frame_propagator(p, t) as qmat._entangler's five entries, for a
    Python float t; qmat._entangler refuses a phase that is not finite."""
    r = math.hypot(p.j, p.j_prime)
    s, phi = p.fold
    return qmat._entangler(0.0, 2 * s * r * t, p.j_zz * t,
                           cmath.exp(1j * phi))


def rot_frame_propagator(p: RotFrameParams, t: float) -> np.ndarray:
    """e^{-i rot_frame_matrix(p) t}: the canonical entangler
    A(s r t, s r t, J_zz t) turned by Rz(phi) on qubit 2, with
    (s, phi) = p.fold and r = |J + iJ'|, in qmat's one closed form.
    Raises ValueError when t is not a finite number (qmat._finite) or a
    phase 2 s r t +- J_zz t is not (qmat._entangler).
    """
    qmat._require_type(p, RotFrameParams)
    return qmat._entangler_array(_rot_frame_entries(p, qmat._finite("t", t)))


def rwa_infidelity(ct: CouplingTensor, eps: float, t_final: float) -> float:
    """Phase-insensitive distance between the exact rotating-frame
    propagator and the rotating-wave-approximated one.

    H_lab = -(eps/2)(Z1 + Z2) + sum J_mn sigma_1^m sigma_2^n, two undriven
    qubits tuned to eps, is built here, Hermitian bit for bit, and is
    constant, so U_lab = e^{-i H_lab T} exactly (the one
    eigendecomposition). The comparison is made in the lab frame, with no
    approximation: for H0 = -(eps/2)(Z1 + Z2), the distance of
    U_rot = e^{+i H0 T} U_lab to U_RWA, the rot_frame_propagator of the
    reduced couplings, equals that of U_lab to e^{-i H0 T} U_RWA, because
    e^{-i H0 T} is unitary. As [H0, H_RWA] = 0, that is
    e^{-i (H0 + H_RWA) T}, the rotating-wave evolution in the lab frame,
    and e^{-i H0 T} = diag(e^{i eps T}, 1, 1, e^{-i eps T}) rephases its
    |00>, |11> entries. ValueError, from qmat._finite, unless eps and
    t_final are finite numbers; unless they are positive, and
    eps + sum |J_mn| is finite; last, naming t_final and
    before any eigendecomposition, when max(eps, sum |J_mn|) t_final >
    2^32. That rate bounds the spectral radius of H_lab within a factor
    of 2, and past 2^32 the phase roundoff 2^-52 rate t_final exceeds
    2^-20 (~1e-6) rad and the result is noise.
    """
    t_final = qmat._finite("t_final", t_final)
    if not t_final > 0:
        raise ValueError("T must be positive")
    eps = qmat._finite("eps", eps)
    qmat._require_type(ct, CouplingTensor)
    if not eps > 0:
        raise ValueError("eps must be positive")
    # Summed on Python floats: an overflow is inf, not a numpy warning.
    j_sum = sum(map(abs, ct.j.ravel().tolist()))
    if not math.isfinite(eps + j_sum):
        raise ValueError("coupling tensor too large: eps + sum |J| overflows")
    # The one refusal of a long horizon: past it, no phase can overflow.
    if max(eps, j_sum) * t_final > 2.0 ** 32:
        raise ValueError(f"t_final {t_final!r} is too long: "
                         "max(eps, sum |J|) * t_final exceeds 2^32, where "
                         "its phase roundoff exceeds 1e-6 rad")
    # H_lab: the coupling plus the drift diag(-eps, 0, 0, eps).
    h = qmat._coupling_operator(ct.j)
    h[0, 0] -= eps
    h[3, 3] += eps
    u_lab = qmat._expm_eigh(h, t_final)
    w = _rot_frame_entries(reduce_coupling(ct), t_final)
    # rot_frame_propagator's array, e^{-i H0 T} on its |00> and |11> entries.
    u_rwa = qmat._entangler_array(w)
    drift = cmath.exp(1j * (eps * t_final))
    u_rwa[0, 0], u_rwa[3, 3] = w[0] * drift, w[0] * drift.conjugate()
    return qmat._phase_distance(u_lab, u_rwa)
