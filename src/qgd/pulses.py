"""Pulse schedules: the op set, simulation, trajectories, verification.

Schedules are stored in application order (first-applied first); the
conventional right-to-left notation is used only for pretty-printing.
Rotations are instantaneous; only entangling intervals consume time.
The op kinds are Rotate, Entangle and GlobalPhase; _OPS declares each
one's JSON name and text form, and PulseSchedule refuses any other op.

Rotation convention: R_a(theta) = e^{-i theta sigma^a / 2}, the unique
choice under which i Rx(pi) Ry(pi/2) is the standard Hadamard.
Simulation uses no eigensolver and builds no 4x4 rotation: each
Entangle is hamiltonian.rot_frame_propagator, a closed form, and each
Rotate applies its 2x2 to a reshaped view of the running product.
"""
from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import equivalence, qmat
from .entangler import Trajectory
from .errors import NonzeroJPrime, UnsupportedOp
from .hamiltonian import RotFrameParams, rot_frame_propagator
from .qmat import I2, I4, PAULI, _finite, kron

__all__ = [
    "Rotate", "Entangle", "GlobalPhase", "PulseSchedule",
    "VerificationReport", "rotation_2x2", "rotation_matrix",
    "simulate_schedule", "trajectory", "verify_schedule",
]


@dataclass(frozen=True)
class Rotate:
    """Instantaneous single-qubit rotation R_axis(angle) on one qubit."""

    axis: str
    angle: float
    qubit: int

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise ValueError(f"bad axis {self.axis!r}")
        object.__setattr__(self, "angle",
                           _finite("rotation angle", self.angle))
        if (not isinstance(self.qubit, numbers.Integral)
                or isinstance(self.qubit, bool) or self.qubit not in (1, 2)):
            raise ValueError(f"bad qubit index {self.qubit!r}")
        object.__setattr__(self, "qubit", int(self.qubit))


@dataclass(frozen=True)
class Entangle:
    """Bring the qubits into resonance for the given duration."""

    duration: float

    def __post_init__(self):
        duration = _finite("duration", self.duration)
        if duration < 0:
            raise ValueError(f"duration {duration} is negative")
        object.__setattr__(self, "duration", duration)


@dataclass(frozen=True)
class GlobalPhase:
    """Multiply by e^{i angle}."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", _finite("phase angle", self.angle))


# The op set: each kind's JSON name and right-to-left text form, which
# formats the op's fields.
_OPS = {
    Rotate: ("rotate", "R{axis}({angle:+.4f})_{qubit}"),
    Entangle: ("entangle", "E({duration:.4f})"),
    GlobalPhase: ("phase", "e^(i{angle:+.4f})"),
}
_OP_BY_NAME = {name: cls for cls, (name, _) in _OPS.items()}


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered Rotate, Entangle and GlobalPhase ops, first-applied first."""

    ops: tuple

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if type(op) not in _OPS:
                raise UnsupportedOp(f"unknown schedule op {op!r}")

    @property
    def total_entangling_time(self) -> float:
        return float(sum(op.duration for op in self.ops
                         if isinstance(op, Entangle)))

    def pretty(self) -> str:
        """Right-to-left rendering matching the usual operator notation."""
        return " ".join(_OPS[type(op)][1].format(**asdict(op))
                        for op in reversed(self.ops))

    def to_json(self) -> list:
        return [{"op": _OPS[type(op)][0], **asdict(op)} for op in self.ops]

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
            op_cls = _OP_BY_NAME.get(kind) if isinstance(kind, str) else None
            if op_cls is None:
                raise UnsupportedOp(f"unknown schedule op {kind!r}")
            try:
                ops.append(op_cls(**{f.name: item[f.name]
                                     for f in fields(op_cls)}))
            except KeyError as exc:
                raise ValueError(f"schedule op {kind!r} lacks {exc}") from exc
        return cls(ops=tuple(ops))


def rotation_2x2(axis: str, angle: float) -> np.ndarray:
    s = PAULI[axis]
    return math.cos(angle / 2) * I2 - 1j * math.sin(angle / 2) * s


def rotation_matrix(axis: str, angle: float, qubit: int) -> np.ndarray:
    """e^{-i angle sigma^axis / 2} embedded on the given qubit."""
    r = rotation_2x2(axis, angle)
    return kron(r, I2) if qubit == 1 else kron(I2, r)


def simulate_schedule(s: PulseSchedule, p: RotFrameParams) -> np.ndarray:
    """Product of the schedule's operations, first op applied first.

    Raises ValueError when an interval's phase overflows
    (rot_frame_propagator)."""
    u = I4.copy()
    for op in s.ops:
        if isinstance(op, Rotate):
            r = rotation_2x2(op.axis, op.angle)
            # Row index (a, b) of u is (qubit 1, qubit 2): r acts on a
            # through the (2, 8) view, on b through the (2, 2, 4) view.
            view = (2, 8) if op.qubit == 1 else (2, 2, 4)
            u = (r @ u.reshape(view)).reshape(4, 4)
        elif isinstance(op, Entangle):
            u = rot_frame_propagator(p, op.duration) @ u
        else:  # GlobalPhase
            u = cmath.exp(1j * op.angle) * u
    return u


# A pi pulse about x flips the signs of the YY and ZZ accumulation rates;
# about y it flips XX and ZZ.
_REFLECTIONS = {"x": np.array([1.0, -1.0, -1.0]),
                "y": np.array([-1.0, 1.0, -1.0])}


def trajectory(p: RotFrameParams, schedule: PulseSchedule,
               samples_per_interval: int = 32) -> Trajectory:
    """Entangler-space path of a schedule of entangling intervals and
    refocusing pi pulses, under constant couplings with J' = 0.

    By the area theorem, entangling intervals advance (x, y, z) at rates
    (J, J, J_zz), with the running sign state toggled by each pi pulse;
    global phases leave the path unchanged. Raises ValueError when
    max(|J|, |J_zz|) times the total entangling time is not finite.
    """
    if p.j_prime != 0.0:
        raise NonzeroJPrime("closed-form trajectories require J' = 0")
    if samples_per_interval < 1:
        raise ValueError("samples_per_interval must be at least 1")
    # On Python floats: an overflowing area is inf here, not a warning.
    area = max(abs(p.j), abs(p.j_zz)) * schedule.total_entangling_time
    if not math.isfinite(area):
        raise ValueError(f"entangling area {area} is not finite: "
                         "couplings or durations are too large")

    rates = np.array([p.j, p.j, p.j_zz])
    signs = np.array([1.0, 1.0, 1.0])
    times = [0.0]
    points = [np.zeros(3)]
    for op in schedule.ops:
        if isinstance(op, Rotate):
            if op.axis not in _REFLECTIONS or not math.isclose(
                    abs(op.angle), math.pi, rel_tol=0, abs_tol=1e-12):
                raise UnsupportedOp(
                    "trajectory schedules admit only refocusing pi pulses "
                    f"about x or y; got {op.axis} rotation by {op.angle}")
            signs = signs * _REFLECTIONS[op.axis]
        elif isinstance(op, Entangle) and op.duration:
            t0, r0 = times[-1], points[-1]
            for k in range(1, samples_per_interval + 1):
                dt = op.duration * k / samples_per_interval
                times.append(t0 + dt)
                points.append(r0 + signs * rates * dt)
    return Trajectory(times=np.array(times), raw=np.array(points))


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
    local-class distances from the target; the pass flag follows mode.
    tol must be positive and finite."""
    if mode not in ("exact", "exact_up_to_phase", "local_class"):
        raise ValueError(f"bad mode {mode!r}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance {tol!r} must be positive and finite")
    target = qmat.require_unitary(target)
    u = simulate_schedule(s, p)
    d_exact = qmat.distance(u, target)
    d_phase = qmat.distance(u, target, up_to_global_phase=True)
    d_inv = equivalence.makhlin_invariants(u).distance(
        equivalence.makhlin_invariants(target))
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
