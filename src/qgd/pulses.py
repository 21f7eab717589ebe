"""Pulse-schedule data model and rotating-frame simulator.

Schedules are stored in application order (first-applied first); the
conventional right-to-left notation is used only for pretty-printing.
Rotations are instantaneous; only entangling intervals consume time.

Rotation convention: R_a(theta) = e^{-i theta sigma^a / 2}, the unique
choice under which i Rx(pi) Ry(pi/2) is the standard Hadamard. A
self-test of that identity (and of the refocusing conjugation identity)
runs at import time.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import equivalence, qmat
from .errors import UnsupportedOp
from .hamiltonian import RotFrameParams, rot_frame_matrix
from .qmat import I2, I4, PAULI, kron

__all__ = [
    "Rotate", "Entangle", "GlobalPhase", "PulseOp", "PulseSchedule",
    "VerificationReport", "rotation_2x2", "rotation_matrix",
    "hadamard_ops", "simulate_schedule", "verify_schedule",
]


@dataclass(frozen=True)
class Rotate:
    """Instantaneous single-qubit rotation R_axis(angle) on one qubit.

    simultaneous marks ops that may be co-scheduled with their neighbor
    (commuting rotations on distinct qubits); it does not affect the
    resulting unitary.
    """

    axis: str
    angle: float
    qubit: int
    simultaneous: bool = False

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise ValueError(f"bad axis {self.axis!r}")
        if self.qubit not in (1, 2):
            raise ValueError(f"bad qubit index {self.qubit}")


@dataclass(frozen=True)
class Entangle:
    """Bring the qubits into resonance for the given duration."""

    duration: float

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("duration must be >= 0")


@dataclass(frozen=True)
class GlobalPhase:
    """Multiply by e^{i angle}."""

    angle: float


PulseOp = Union[Rotate, Entangle, GlobalPhase]


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered pulse ops, first-applied first."""

    ops: tuple

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))

    def __add__(self, other: "PulseSchedule") -> "PulseSchedule":
        return PulseSchedule(ops=self.ops + other.ops)

    @property
    def total_entangling_time(self) -> float:
        return float(sum(op.duration for op in self.ops
                         if isinstance(op, Entangle)))

    def pretty(self) -> str:
        """Right-to-left rendering matching the usual operator notation."""
        parts = []
        for op in reversed(self.ops):
            if isinstance(op, Rotate):
                parts.append(f"R{op.axis}({op.angle:+.4f})_{op.qubit}")
            elif isinstance(op, Entangle):
                parts.append(f"E({op.duration:.4f})")
            else:
                parts.append(f"e^(i{op.angle:+.4f})")
        return " ".join(parts)

    def to_json(self) -> list:
        out = []
        for op in self.ops:
            if isinstance(op, Rotate):
                out.append({"op": "rotate", "axis": op.axis,
                            "angle": op.angle, "qubit": op.qubit})
            elif isinstance(op, Entangle):
                out.append({"op": "entangle", "duration": op.duration})
            else:
                out.append({"op": "phase", "angle": op.angle})
        return out

    @classmethod
    def from_json(cls, items: list) -> "PulseSchedule":
        """Parse a list of op objects; raises ValueError on any other
        shape and UnsupportedOp on an unknown op name."""
        if not isinstance(items, list):
            raise ValueError("schedule JSON must be a list of op objects")
        ops = []
        for item in items:
            if not isinstance(item, dict):
                raise ValueError(f"schedule op {item!r} is not an object")
            kind = item.get("op")
            try:
                if kind == "rotate":
                    ops.append(Rotate(axis=item["axis"],
                                      angle=float(item["angle"]),
                                      qubit=int(item["qubit"])))
                elif kind == "entangle":
                    ops.append(Entangle(duration=float(item["duration"])))
                elif kind == "phase":
                    ops.append(GlobalPhase(angle=float(item["angle"])))
                else:
                    raise UnsupportedOp(f"unknown schedule op {kind!r}")
            except (KeyError, TypeError) as exc:
                raise ValueError(
                    f"schedule op {kind!r} is malformed: {exc!r}") from exc
        return cls(ops=tuple(ops))


def rotation_2x2(axis: str, angle: float) -> np.ndarray:
    s = PAULI[axis]
    return math.cos(angle / 2) * I2 - 1j * math.sin(angle / 2) * s


def rotation_matrix(axis: str, angle: float, qubit: int) -> np.ndarray:
    """e^{-i angle sigma^axis / 2} embedded on the given qubit."""
    r = rotation_2x2(axis, angle)
    return kron(r, I2) if qubit == 1 else kron(I2, r)


def hadamard_ops(qubit: int) -> tuple:
    """Hadamard as pulse ops (application order): i Rx(pi) Ry(pi/2)."""
    return (Rotate("y", math.pi / 2, qubit),
            Rotate("x", math.pi, qubit),
            GlobalPhase(math.pi / 2))


def simulate_schedule(s: PulseSchedule, p: RotFrameParams) -> np.ndarray:
    """Product of the schedule's operations, first op applied first."""
    h = rot_frame_matrix(p)
    u = I4.copy()
    for op in s.ops:
        if isinstance(op, Rotate):
            u = rotation_matrix(op.axis, op.angle, op.qubit) @ u
        elif isinstance(op, Entangle):
            u = qmat.expm_hermitian(h, op.duration) @ u
        elif isinstance(op, GlobalPhase):
            u = cmath.exp(1j * op.angle) * u
        else:
            raise UnsupportedOp(f"unknown op {op!r}")
    return u


@dataclass(frozen=True)
class VerificationReport:
    """Distances of a simulated schedule from a target gate."""

    target_name: str
    mode: str
    exact_distance: float
    phase_distance: float
    invariant_distance: float
    pass_exact: bool
    pass_exact_up_to_phase: bool
    pass_class: bool
    total_entangling_time: float

    @property
    def passed(self) -> bool:
        return {"exact": self.pass_exact,
                "exact_up_to_phase": self.pass_exact_up_to_phase,
                "local_class": self.pass_class}[self.mode]

    def to_dict(self) -> dict:
        return {
            "target": self.target_name,
            "mode": self.mode,
            "exact_distance": self.exact_distance,
            "phase_distance": self.phase_distance,
            "invariant_distance": self.invariant_distance,
            "pass_exact": self.pass_exact,
            "pass_exact_up_to_phase": self.pass_exact_up_to_phase,
            "pass_class": self.pass_class,
            "passed": self.passed,
            "total_entangling_time": self.total_entangling_time,
        }


def verify_schedule(s: PulseSchedule, p: RotFrameParams,
                    target: np.ndarray, mode: str = "exact",
                    tol: float = 1e-9,
                    target_name: str = "") -> VerificationReport:
    """Simulate a schedule and report exact, phase-insensitive, and
    local-class distances from the target; the pass flag follows mode."""
    if mode not in ("exact", "exact_up_to_phase", "local_class"):
        raise ValueError(f"bad mode {mode!r}")
    target = qmat.require_unitary(target)
    u = simulate_schedule(s, p)
    d_exact = qmat.distance(u, target)
    d_phase = qmat.distance(u, target, up_to_global_phase=True)
    gu = equivalence.makhlin_invariants(u, tol=1e-8)
    gt = equivalence.makhlin_invariants(target, tol=1e-8)
    d_inv = abs(gu.g1 - gt.g1) + abs(gu.g2 - gt.g2)
    return VerificationReport(
        target_name=target_name,
        mode=mode,
        exact_distance=float(d_exact),
        phase_distance=float(d_phase),
        invariant_distance=float(d_inv),
        pass_exact=bool(d_exact < tol),
        pass_exact_up_to_phase=bool(d_phase < tol),
        pass_class=bool(d_inv < tol),
        total_entangling_time=s.total_entangling_time,
    )


def _convention_selftest() -> None:
    # Hadamard identity: i Rx(pi) Ry(pi/2) must be the standard Hadamard.
    had = 1j * rotation_2x2("x", math.pi) @ rotation_2x2("y", math.pi / 2)
    expected = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if np.max(np.abs(had - expected)) > 1e-12:
        raise AssertionError("rotation sign convention broken: "
                             "i Rx(pi) Ry(pi/2) is not Hadamard")
    # Refocusing conjugation: Rx(pi)_1^dag H Rx(pi)_1 flips YY and ZZ.
    p = RotFrameParams(j=0.37, j_zz=-0.81, j_prime=0.0)
    rx = rotation_matrix("x", math.pi, 1)
    conj = rx.conj().T @ rot_frame_matrix(p) @ rx
    from .entangler import XX, YY, ZZ
    expected_h = p.j * (XX - YY) - p.j_zz * ZZ
    if np.max(np.abs(conj - expected_h)) > 1e-12:
        raise AssertionError("refocusing conjugation identity broken")


_convention_selftest()
