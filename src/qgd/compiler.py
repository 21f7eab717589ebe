"""CNOT pulse compilation for weakly coupled qubits.

Given effective couplings (J, J_zz, J'), emits one of three verified
constructions, reported under four branch labels:

  * ising_single_shot    -- J = J' = 0; one entangling interval of
                            duration pi/(4|J_zz|).
  * xy_single_shot_swapcnot -- J' = J_zz = 0; one interval of pi/(4|J|)
                            producing SWAP*CNOT (circuit-equivalent to
                            CNOT with no overhead).
  * two_shot_refocus / general_jprime -- the refocused construction, for
    J' = 0 and J' != 0 respectively: two intervals of
    dt = pi / (8 sqrt(J^2 + J'^2)) split by a refocusing pi pulse (any
    J_zz), each conjugated by Rz(phi)_2 with J + iJ' = s r e^{i phi},
    phi in (-pi/2, pi/2]; for J' = 0, phi = 0 and the conjugation is
    left out.

Every emitted schedule is re-simulated and verified before it is
returned; a miss raises VerificationFailed.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import UnknownGate, VerificationFailed, ZeroCoupling
from .hamiltonian import RotFrameParams
from .pulses import (Entangle, GlobalPhase, PulseSchedule, Rotate,
                     VerificationReport, hadamard_ops, verify_schedule)

__all__ = ["CompileResult", "compile_cnot", "named_gate"]

_PI = math.pi

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)


def controlled_phase(theta: float) -> np.ndarray:
    """C-theta = diag(1, 1, 1, e^{i theta})."""
    return np.diag([1, 1, 1, np.exp(1j * theta)]).astype(complex)


_CPHASE_RE = re.compile(r"^C(?:theta)?\(([-+0-9.eE]+)\)$")

_NAMED_GATES = {
    "I": np.eye(4, dtype=complex),
    "CNOT": CNOT,
    "CZ": CZ,
    "SWAP": SWAP,
    "SWAP_CNOT": SWAP @ CNOT,
    "CNOT_SWAP": CNOT @ SWAP,
}


def named_gate(name: str) -> np.ndarray:
    """Look up a gate by name: I, CNOT, CZ, SWAP, SWAP_CNOT, CNOT_SWAP,
    or a controlled phase as 'Ctheta(angle)' or 'C(angle)' with a finite
    angle."""
    if not isinstance(name, str):
        raise UnknownGate(f"gate name {name!r} is not a string")
    key = name.strip()
    if key.upper() in _NAMED_GATES:
        return _NAMED_GATES[key.upper()].copy()
    m = _CPHASE_RE.match(key)
    theta = float(m.group(1)) if m else math.nan
    if math.isfinite(theta):
        return controlled_phase(theta)
    raise UnknownGate(f"unknown gate {name!r}")


@dataclass(frozen=True)
class CompileResult:
    """A verified pulse schedule for the requested gate."""

    schedule: PulseSchedule
    branch: str
    target_name: str
    delta_t: float
    params: RotFrameParams
    verification: VerificationReport

    def to_dict(self) -> dict:
        return {
            "branch": self.branch,
            "target": self.target_name,
            "delta_t": self.delta_t,
            "params": self.params.to_dict(),
            "schedule": self.schedule.to_json(),
            "verification": self.verification.to_dict(),
        }


def _interval(rate: float) -> float:
    """pi / rate; ZeroCoupling if the coupling is too weak for a finite one."""
    dt = _PI / rate
    if not math.isfinite(dt):
        raise ZeroCoupling(
            f"coupling too weak: entangling time {dt} is not finite")
    return dt


def _ising_schedule(p: RotFrameParams) -> tuple[PulseSchedule, float]:
    # CNOT = e^{-+ i pi/4} H_2 Rz(-+pi/2)_1 Rz(-+pi/2)_2 A(0,0,+-pi/4) H_2,
    # upper signs for J_zz > 0 so the entangling duration stays positive.
    sign = 1.0 if p.j_zz > 0 else -1.0
    dt = _interval(4 * abs(p.j_zz))
    ops = (
        *hadamard_ops(2),
        Entangle(dt),
        Rotate("z", -sign * _PI / 2, 2),
        Rotate("z", -sign * _PI / 2, 1),
        *hadamard_ops(2),
        GlobalPhase(-sign * _PI / 4),
    )
    return PulseSchedule(ops=ops), dt


def _refocused_schedule(p: RotFrameParams,
                        refocus_qubit: int) -> tuple[PulseSchedule, float]:
    # Write J + iJ' = s r e^{i phi} with phi in (-pi/2, pi/2]. Conjugating
    # an interval by Rz(phi)_2 turns the couplings into (s r, J_zz, 0).
    # Two such intervals of pi/(8r) split by Rx(pi) cancel the J_zz area
    # and land on A(s pi/4, 0, 0), which the wrap turns into an exact CNOT.
    phi, s = p.phi, 1.0
    if phi > _PI / 2:
        phi, s = phi - _PI, -1.0
    elif phi <= -_PI / 2:
        phi, s = phi + _PI, -1.0
    dt = _interval(8 * math.hypot(p.j, p.j_prime))
    q = refocus_qubit
    into = (Rotate("z", phi, 2),) if phi else ()
    out = (Rotate("z", -phi, 2),) if phi else ()
    if q == 1:
        # Rx(pi)_1 commutes with Rz(phi)_2: the inner Rz pair cancels.
        body = (*into, Entangle(dt), Rotate("x", _PI, 1), Entangle(dt), *out)
    else:
        body = (*into, Entangle(dt), *out, Rotate("x", _PI, 2),
                *into, Entangle(dt), *out)
    ops = (
        Rotate("y", _PI / 2, 1),
        *body,
        # The closing Rx(-pi)_q times the wrap's Rx(-s pi/2)_q is
        # Rx(-pi - s pi/2), i.e. -Rx(pi/2) for s = 1 and Rx(-pi/2) for
        # s = -1; the sign goes into the global phase.
        Rotate("x", s * _PI / 2, q),
        Rotate("x", -s * _PI / 2, 3 - q),
        Rotate("y", -_PI / 2, 1),
        GlobalPhase(_PI / 2 + s * _PI / 4),
    )
    return PulseSchedule(ops=ops), dt


def _xy_swapcnot_schedule(p: RotFrameParams) -> tuple[PulseSchedule, float]:
    # Single shot to A(+-pi/4, +-pi/4, 0), wrapped into SWAP*CNOT.
    sign = 1.0 if p.j > 0 else -1.0
    dt = _interval(4 * abs(p.j))
    ops = (
        Rotate("y", -_PI / 2, 2),
        Entangle(dt),
        Rotate("x", -_PI / 2, 2),
        Rotate("y", _PI / 2, 1),
        Rotate("y", sign * _PI / 2, 2),
        Rotate("x", sign * _PI / 2, 1),
        Rotate("x", _PI / 2, 2),
        GlobalPhase(sign * _PI / 2),
    )
    return PulseSchedule(ops=ops), dt


def compile_cnot(p: RotFrameParams, prefer: str = "auto",
                 refocus_qubit: int = 1, tol: float = 1e-9) -> CompileResult:
    """Emit a verified CNOT (or SWAP*CNOT) schedule for the couplings p.

    prefer="auto" emits the single-shot SWAP*CNOT when J_zz = J' = 0 and
    J != 0, and a CNOT otherwise; prefer="cnot" always emits a CNOT.
    refocus_qubit picks the qubit of the refocusing pi pulse. The
    schedule is re-simulated and must match its target within tol, which
    must be positive and finite. Raises ValueError when an interval's
    phase overflows, from qmat.expm_hermitian during that re-simulation.
    """
    if prefer not in ("auto", "cnot"):
        raise ValueError(f"bad prefer {prefer!r}")
    if p.j == 0 and p.j_zz == 0 and p.j_prime == 0:
        raise ZeroCoupling("all of J, J_zz, J' are zero")
    if refocus_qubit not in (1, 2):
        raise ValueError("refocus_qubit must be 1 or 2")

    if prefer == "auto" and p.j_prime == 0 and p.j_zz == 0 and p.j != 0:
        schedule, dt = _xy_swapcnot_schedule(p)
        branch, target_name = "xy_single_shot_swapcnot", "SWAP_CNOT"
    elif p.j_prime == 0 and p.j == 0:
        schedule, dt = _ising_schedule(p)
        branch, target_name = "ising_single_shot", "CNOT"
    else:
        schedule, dt = _refocused_schedule(p, refocus_qubit)
        branch = "two_shot_refocus" if p.j_prime == 0 else "general_jprime"
        target_name = "CNOT"

    report = verify_schedule(schedule, p, named_gate(target_name),
                             mode="exact", tol=tol, target_name=target_name)
    if not report.passed:
        raise VerificationFailed(
            f"compiled {branch} schedule failed verification "
            f"(exact distance {report.exact_distance:.3e})")
    return CompileResult(schedule=schedule, branch=branch,
                         target_name=target_name, delta_t=dt,
                         params=p, verification=report)
