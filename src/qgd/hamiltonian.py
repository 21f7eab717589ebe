"""Lab-frame and rotating-frame Hamiltonians for a pair of weakly
coupled qubits, and the reduction of the 9-component coupling tensor to
the 3 effective rotating-frame parameters (J, J_zz, J').

Both coupling Hamiltonians are qmat.coupling_operator of a 3x3 tensor:
J_{mu nu} itself in the lab frame, and its rotating-wave part
[[J, J', 0], [-J', J, 0], [0, 0, J_zz]] in the rotating frame.

Basis ordering |00>, |01>, |10>, |11> with qubit 1 the left tensor
factor; |0> is the lower eigenstate of -(eps/2) sigma^z.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmat
from .qmat import coupling_operator

__all__ = [
    "CouplingTensor", "RotFrameParams",
    "reduce_coupling", "rot_frame_matrix", "lab_frame_hamiltonian",
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
    """3x3 real tensor J_{mu nu}, mu/nu in {x,y,z}, angular-frequency units."""

    j: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.j, dtype=float)
        if j.shape != (3, 3):
            raise ValueError("coupling tensor must be 3x3")
        if not np.all(np.isfinite(j)):
            raise ValueError("coupling tensor entries must be finite")
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
    return coupling_operator([[p.j, p.j_prime, 0.0],
                              [-p.j_prime, p.j, 0.0],
                              [0.0, 0.0, p.j_zz]])


def _drift(eps: float) -> np.ndarray:
    """H0 = -(eps/2)(Z1 + Z2): both qubits tuned to the splitting eps."""
    return np.diag([-eps, 0.0, 0.0, eps]).astype(complex)


def lab_frame_hamiltonian(ct: CouplingTensor, eps: float) -> np.ndarray:
    """Lab-frame Hamiltonian of two undriven qubits tuned to the same
    splitting eps:

    H = -(eps/2)(Z1 + Z2) + sum_{mu nu} J_{mu nu} sigma_1^mu sigma_2^nu.
    Raises ValueError when eps + sum |J_{mu nu}| is not finite.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    # Summed on Python floats: an overflow is inf, not a numpy warning.
    if not math.isfinite(eps + sum(map(abs, ct.j.ravel().tolist()))):
        raise ValueError("coupling tensor too large: eps + sum |J| overflows")
    return _drift(eps) + coupling_operator(ct.j)


def rwa_infidelity(ct: CouplingTensor, eps: float, t_final: float) -> float:
    """Phase-insensitive distance between the exact rotating-frame
    propagator and the rotating-wave-approximated one.

    The lab-frame Hamiltonian is constant, so U_lab = e^{-i H_lab T}
    exactly; U_rot = e^{+i H0 T} U_lab with H0 = -(eps/2)(Z1 + Z2) is
    compared against e^{-i Heff T}, Heff the reduced rotating-frame
    Hamiltonian.
    """
    if not (t_final > 0 and math.isfinite(t_final)):
        raise ValueError("T must be positive and finite")
    u_lab = qmat.expm_hermitian(lab_frame_hamiltonian(ct, eps), t_final)
    u_rot = qmat.expm_hermitian(_drift(eps), -t_final) @ u_lab
    heff = rot_frame_matrix(reduce_coupling(ct))
    u_rwa = qmat.expm_hermitian(heff, t_final)
    return qmat.distance(u_rot, u_rwa, up_to_global_phase=True)
