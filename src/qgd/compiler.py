"""CNOT pulse compilation for weakly coupled qubits.

Given effective couplings (J, J_zz, J'), emits one of two verified
constructions:

  * xy_single_shot_swapcnot -- J' = J_zz = 0 under prefer="auto"; one
    interval of pi/(4|J|) producing SWAP*CNOT (circuit-equivalent to
    CNOT with no overhead).
  * the refocused CNOT, for every other coupling: Rz(phi)_2 folds the
    couplings into s r (XX + YY) + J_zz ZZ, r = |J + iJ'| (p.fold), and a
    pi pulse between two intervals of pi/(8 max(r, |J_zz|)) keeps only
    the stronger part; its total entangling time pi/(4 max(r, |J_zz|)) is
    the least any CNOT takes. The XY frame (r >= |J_zz|), labelled
    two_shot_refocus for J' = 0 and general_jprime otherwise, keeps XX
    with Rx(pi)_q. The ZZ frame (|J_zz| > r, r = 0 included), labelled
    zz_refocus, keeps ZZ with the echo Rx(pi)_q Ry(pi)_other, which also
    flips any local z field: its CNOT is blind to an idle neighbour's ZZ,
    a residual detuning or a frequency drift (dynamical decoupling;
    Viola, Knill and Lloyd, PRL 82, 2417 (1999)).

Each layer, the rotations between two intervals or after the last one,
holds at most one x/y pulse per qubit; z rotations are virtual frame
changes (McKay et al., PRA 96, 022330 (2017)). The fixed rotations are
built once, at import; a compile builds only Rz(+-phi), one Entangle and
its closing GlobalPhase. Every emitted schedule is re-simulated and
verified before it is returned, by pulses' verification kernel, against
CNOT or SWAP*CNOT and their Makhlin invariants, checked once, at import,
by equivalence's invariants memo; a miss raises VerificationFailed.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .equivalence import _invariants
from .errors import UnknownGate, VerificationFailed, ZeroCoupling
from .hamiltonian import RotFrameParams
from .pulses import (VERIFY_TOL, Entangle, GlobalPhase, PulseSchedule,
                     Rotate, VerificationReport, _tolerance, _verify)
from .qmat import _exact_int, _require_type
# perfbench/selftest.py pins compiler.verify_schedule until ROADMAP item 1
# re-aims it.
from .pulses import verify_schedule  # noqa: F401

__all__ = ["compile_cnot", "named_gate"]

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


_CPHASE_RE = re.compile(
    r"^C(?:theta)?\(([-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?)\)$",
    re.IGNORECASE)

_NAMED_GATES = {
    "I": np.eye(4, dtype=complex),
    "CNOT": CNOT,
    "CZ": CZ,
    "SWAP": SWAP,
    "SWAP_CNOT": SWAP @ CNOT,
    "CNOT_SWAP": CNOT @ SWAP,
}


def named_gate(name: str) -> np.ndarray:
    """Look up a gate by name, in any case: I, CNOT, CZ, SWAP, SWAP_CNOT,
    CNOT_SWAP, or a controlled phase as 'Ctheta(angle)' or 'C(angle)'
    with a finite angle."""
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


# compile_cnot's two targets, (gate, invariants), checked once, at import,
# by the invariants memo's record, whose gate is read-only.
_TARGETS = {name: _invariants(_NAMED_GATES[name].tobytes())[1::-1]
            for name in ("CNOT", "SWAP_CNOT")}

# The fixed rotations, keyed by their fields: R_axis(+-pi/2) and
# R_axis(pi).
_ROT = {(axis, angle, qubit): Rotate(axis, angle, qubit)
        for axis in "xyz" for angle in (_PI / 2, -_PI / 2, _PI)
        for qubit in (1, 2)}


def _interval(k: int, rate: float) -> float:
    """pi / (k rate), as two divisions so that k rate cannot overflow;
    ZeroCoupling if the coupling is too weak for a finite gate time
    pi / (4 rate), the sum of the schedule's 4 / k intervals (inf at 0)."""
    total = _PI / 4 / rate if rate else math.inf
    if not math.isfinite(total):
        raise ZeroCoupling(
            f"coupling too weak: entangling time {total} is not finite")
    return _PI / k / rate


def _refocused_schedule(p: RotFrameParams,
                        q: int) -> tuple[PulseSchedule, float, str]:
    # The schedule, its interval and its branch label; q refocuses. In the
    # fold frame, two intervals E split by the pi pulse P give
    # E P E = P e^{-2i K dt}, K the part of the coupling that P keeps.
    r = math.hypot(p.j, p.j_prime)
    s, phi = p.fold
    zz = r < abs(p.j_zz)
    if zz:
        s = 1.0 if p.j_zz > 0 else -1.0
    a = s * _PI / 2 if q == 1 else -s * _PI / 2
    into = (Rotate("z", phi, 2),) if phi else ()
    out = (Rotate("z", -phi, 2),) if phi else ()
    if zz:
        # K = J_zz ZZ: A(0, 0, s pi/4), turned into CNOT by Ry(-pi/2)_2
        # and a closing layer that also undoes P.
        dt, branch = _interval(8, abs(p.j_zz)), "zz_refocus"
        echo = (_ROT["x", _PI, q], _ROT["y", _PI, 3 - q])
        head = _ROT["y", -_PI / 2, 2]
        tail = (_ROT["x", -a, 2], _ROT["z", a, 2], _ROT["y", _PI, 1],
                _ROT["z", a, 1], GlobalPhase(s * _PI / 4 - _PI / 2))
    else:  # K = s r XX: A(s pi/4, 0, 0)
        dt = _interval(8, r)
        branch = "two_shot_refocus" if p.j_prime == 0 else "general_jprime"
        echo = (_ROT["x", _PI, q],)
        head = _ROT["y", _PI / 2, 1]
        tail = (_ROT["x", -a, 2], _ROT["y", -_PI / 2, 1], _ROT["z", a, 1],
                GlobalPhase(_PI / 2 + s * _PI / 4))
    e = Entangle(dt)
    if q == 1 and not zz:  # Rx(pi)_1 commutes with Rz(phi)_2
        body = (*into, e, *echo, e, *out)
    else:
        body = (*into, e, *out, *echo, *into, e, *out)
    return PulseSchedule(ops=(head, *body, *tail)), dt, branch


def _xy_swapcnot_schedule(p: RotFrameParams) -> tuple[PulseSchedule, float]:
    # Single shot to A(+-pi/4, +-pi/4, 0), wrapped into SWAP*CNOT.
    sign = 1.0 if p.j > 0 else -1.0
    dt = _interval(4, abs(p.j))
    a = sign * _PI / 2
    ops = (_ROT["y", -_PI / 2, 2], Entangle(dt), _ROT["z", a, 2],
           _ROT["x", a, 1], _ROT["z", a, 1], GlobalPhase(a))
    return PulseSchedule(ops=ops), dt


def compile_cnot(p: RotFrameParams, prefer: str = "auto",
                 refocus_qubit: int = 1,
                 tol: float = VERIFY_TOL) -> CompileResult:
    """Emit a verified CNOT (or SWAP*CNOT) schedule for the couplings p.

    prefer="auto" emits the single-shot SWAP*CNOT when J_zz = J' = 0 and
    J != 0, and a CNOT otherwise; prefer="cnot" always emits a CNOT.
    refocus_qubit picks the qubit q of the refocusing pi pulse: the lone
    Rx(pi)_q in the XY frame, and in the ZZ frame the x half of the echo,
    Ry(pi) going to the other qubit. Like Rotate.qubit it must be the
    integer 1 or 2, never a bool, on every branch. The schedule is
    re-simulated and must match its target within tol, which must be
    positive and finite. ZeroCoupling when the gate's whole entangling
    time pi / (4 max(r, |J_zz|)) is not finite (inf at zero coupling),
    though each refocused interval, half of it, may be.
    """
    _require_type(p, RotFrameParams)
    if prefer not in ("auto", "cnot"):
        raise ValueError(f"bad prefer {prefer!r}")
    q = _exact_int(refocus_qubit)
    if q not in (1, 2):
        raise ValueError("refocus_qubit must be 1 or 2")

    if prefer == "auto" and p.j_prime == 0 and p.j_zz == 0:
        schedule, dt = _xy_swapcnot_schedule(p)
        branch, target_name = "xy_single_shot_swapcnot", "SWAP_CNOT"
    else:
        schedule, dt, branch = _refocused_schedule(p, q)
        target_name = "CNOT"

    report = _verify(schedule, p, *_TARGETS[target_name], "exact",
                     _tolerance(tol), target_name)
    if not report.passed:
        raise VerificationFailed(
            f"compiled {branch} schedule failed verification "
            f"(exact distance {report.exact_distance:.3e})")
    return CompileResult(schedule=schedule, branch=branch,
                         target_name=target_name, delta_t=dt,
                         params=p, verification=report)
