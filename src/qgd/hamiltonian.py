"""Lab-frame and rotating-frame Hamiltonians for a pair of weakly
coupled qubits, and the reduction of the 9-component coupling tensor to
the 3 effective rotating-frame parameters (J, J_zz, J').

Both coupling Hamiltonians are qmat.coupling_operator of a 3x3 tensor:
J_{mu nu} itself in the lab frame, and its rotating-wave part
[[J, J', 0], [-J', J, 0], [0, 0, J_zz]] in the rotating frame. The
rotating-frame one is ZZ-diagonal plus one 2x2 block on {|01>, |10>},
so rot_frame_propagator is its exact closed-form exponential; only the
lab-frame Hamiltonian goes through qmat's eigendecomposition.

Basis ordering |00>, |01>, |10>, |11> with qubit 1 the left tensor
factor; |0> is the lower eigenstate of -(eps/2) sigma^z.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import qmat
from .qmat import coupling_operator

__all__ = [
    "CouplingTensor", "RotFrameParams",
    "reduce_coupling", "rot_frame_matrix", "rot_frame_propagator",
    "lab_frame_hamiltonian",
    "rwa_infidelity",
]

_AXES = ("x", "y", "z")


def _number(d: dict, key: str) -> float:
    """d[key] as a finite float; ValueError if it is anything else."""
    if key not in d:
        raise ValueError(f"coupling JSON missing key {key!r}")
    return qmat._finite(f"coupling JSON {key!r}", d[key])


@dataclass(frozen=True)
class CouplingTensor:
    """3x3 real tensor J_{mu nu}, mu/nu in {x,y,z}, angular-frequency units.

    Each entry must be a finite real number (qmat._finite); strings, None
    and complex values raise ValueError.
    """

    j: np.ndarray

    def __post_init__(self):
        # As objects: numpy would read "0.5" as 0.5 and a complex entry
        # as a bare TypeError.
        j = np.asarray(self.j, dtype=object)
        if j.shape != (3, 3):
            raise ValueError("coupling tensor must be 3x3")
        object.__setattr__(self, "j", np.array([
            [qmat._finite(f"coupling tensor entry J{a}{b}", j[i, k])
             for k, b in enumerate(_AXES)] for i, a in enumerate(_AXES)]))

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
    """Effective rotating-frame couplings (J, J_zz, J').

    discarded_weight is the sum of squares of the tensor combinations the
    rotating-wave average drops; it is diagnostic only.
    """

    j: float
    j_zz: float
    j_prime: float
    discarded_weight: float = 0.0

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
    def phi(self) -> float:
        """arg(J + i J'), in (-pi, pi]."""
        return math.atan2(self.j_prime, self.j)

    @property
    def fold(self) -> tuple[float, float]:
        """(s, phi): s = +-1, phi in (-pi/2, pi/2], J + iJ' = s r e^{i phi}.
        Rz(phi) on qubit 2 turns the tensor into diag(s r, s r, J_zz)."""
        phi = self.phi
        if -math.pi / 2 < phi <= math.pi / 2:
            return 1.0, phi
        return -1.0, phi - math.copysign(math.pi, phi)

    @property
    def tensor(self) -> np.ndarray:
        """The rotating-frame coupling tensor (module docstring)."""
        j, jp = self.j, self.j_prime
        return np.array([[j, jp, 0.0], [-jp, j, 0.0], [0.0, 0.0, self.j_zz]])

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
    other combination time-averages to zero in the rotating frame and is
    reported via discarded_weight.
    """
    j = ct.j
    # Halves first: J and J' stay finite whenever the entries are.
    jj = j[0, 0] / 2 + j[1, 1] / 2
    jp = j[0, 1] / 2 - j[1, 0] / 2
    with np.errstate(over="ignore"):  # an overflowing weight reads inf
        dropped = (((j[0, 0] - j[1, 1]) / 2) ** 2
                   + ((j[0, 1] + j[1, 0]) / 2) ** 2)
        dropped += j[0, 2] ** 2 + j[1, 2] ** 2 + j[2, 0] ** 2 + j[2, 1] ** 2
    return RotFrameParams(j=jj, j_zz=j[2, 2], j_prime=jp,
                          discarded_weight=float(dropped))


def rot_frame_matrix(p: RotFrameParams) -> np.ndarray:
    """The effective rotating-frame coupling
    J (XX + YY) + J' (XY - YX) + J_zz ZZ: diag(J_zz, -J_zz, -J_zz, J_zz)
    with 2(J + iJ') on the |01><10| entry."""
    return coupling_operator(p.tensor)


def rot_frame_propagator(p: RotFrameParams, t: float) -> np.ndarray:
    """e^{-i rot_frame_matrix(p) t}, in closed form.

    The corners are e^{-i J_zz t}; the {|01>, |10>} block is
    e^{i J_zz t} [[c, -i e^{i phi} s], [-i e^{-i phi} s, c]] with
    c = cos 2rt, s = sin 2rt, r = |J + iJ'| and phi = p.phi. Raises
    ValueError when t is no number or (|J_zz| + 2r)|t| is not finite.
    """
    r = math.hypot(p.j, p.j_prime)
    t = qmat._require_finite_phase(abs(p.j_zz) + 2 * r, t)
    corner = cmath.exp(-1j * p.j_zz * t)
    block = corner.conjugate()
    c = block * math.cos(2 * r * t)
    s = -1j * block * math.sin(2 * r * t)
    tilt = cmath.exp(1j * p.phi)
    return np.array([[corner, 0, 0, 0],
                     [0, c, s * tilt, 0],
                     [0, s * tilt.conjugate(), c, 0],
                     [0, 0, 0, corner]], dtype=complex)


# The diagonal of the drift H0 = -(eps/2)(Z1 + Z2), per unit eps: both
# qubits tuned to the splitting eps.
_DRIFT = np.array([-1.0, 0.0, 0.0, 1.0])


def lab_frame_hamiltonian(ct: CouplingTensor, eps: float) -> np.ndarray:
    """Lab-frame Hamiltonian of two undriven qubits tuned to the same
    splitting eps:

    H = -(eps/2)(Z1 + Z2) + sum_{mu nu} J_{mu nu} sigma_1^mu sigma_2^nu.
    Raises ValueError unless eps is positive and finite and so is
    eps + sum |J_{mu nu}|.
    """
    eps = qmat._real("eps", eps)
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    # Summed on Python floats: an overflow is inf, not a numpy warning.
    if not math.isfinite(eps + sum(map(abs, ct.j.ravel().tolist()))):
        raise ValueError("coupling tensor too large: eps + sum |J| overflows")
    return np.diag(eps * _DRIFT) + coupling_operator(ct.j)


def rwa_infidelity(ct: CouplingTensor, eps: float, t_final: float) -> float:
    """Phase-insensitive distance between the exact rotating-frame
    propagator and the rotating-wave-approximated one.

    The lab-frame Hamiltonian is constant, so U_lab = e^{-i H_lab T}
    exactly (the one eigendecomposition); U_rot = e^{+i H0 T} U_lab with
    H0 = -(eps/2)(Z1 + Z2), a row scaling by four phases, is compared
    against rot_frame_propagator of the reduced couplings. ValueError
    unless eps and t_final are positive and finite.
    """
    t_final = qmat._real("t_final", t_final)
    if not (t_final > 0 and math.isfinite(t_final)):
        raise ValueError("T must be positive and finite")
    u_lab = qmat.expm_hermitian(lab_frame_hamiltonian(ct, eps), t_final)
    qmat._require_finite_phase(eps, t_final)
    u_rot = np.exp(1j * (eps * t_final) * _DRIFT)[:, None] * u_lab
    u_rwa = rot_frame_propagator(reduce_coupling(ct), t_final)
    return qmat.distance(u_rot, u_rwa, up_to_global_phase=True)
