"""Pulse schedules: the op set, simulation, trajectories, verification.

Schedules are stored in application order (first-applied first); the
conventional right-to-left notation is used only for pretty-printing.
Rotations are instantaneous; only entangling intervals consume time.
The op kinds are Rotate, Entangle and GlobalPhase; _OPS declares each
one's JSON name and text form, and PulseSchedule refuses any other op.

Rotation convention: R_a(theta) = e^{-i theta sigma^a / 2}, the unique
choice under which i Rx(pi) Ry(pi/2) is the standard Hadamard; one
closed form (cos, sin of theta / 2 per axis) gives every rotation as
four Python scalars, and rotations compose by their 2x2 product (_mul2)
in both simulation and trajectories. Simulation runs one pulse layer at
a time and uses no eigensolver: the Rotates between two Entangles
multiply into one 2x2 factor per qubit, and each interval applies
hamiltonian.rot_frame_propagator (a closed form) times that layer's
a (x) b to the running product; the global phases fold into one scalar.
Verification checks each distinct target once: its unitarity and its
Makhlin invariants are kept in a small bounded memo keyed by its content.
"""
from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import equivalence, qmat
from .entangler import Trajectory
from .errors import UnsupportedOp
from .hamiltonian import RotFrameParams, rot_frame_propagator
from .qmat import ALGEBRA_TOL, SX, SY, SZ, _finite
# perfbench/selftest.py pins pulses.kron until ROADMAP item 1 re-aims it.
from .qmat import kron  # noqa: F401

__all__ = [
    "Rotate", "Entangle", "GlobalPhase", "PulseSchedule",
    "VERIFY_TOL", "VerificationReport",
    "simulate_schedule", "trajectory", "verify_schedule",
]


def _exact_int(n) -> int | None:
    """n as a Python int if it is an integer other than a bool (numpy
    integers included); None otherwise."""
    if type(n) is int:  # the common case skips the ABC check
        return n
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        return None
    return int(n)


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
        qubit = _exact_int(self.qubit)
        if qubit not in (1, 2):
            raise ValueError(f"bad qubit index {self.qubit!r}")
        object.__setattr__(self, "qubit", qubit)


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


# The default tolerance of verify_schedule, compile_cnot and qgd --tol.
VERIFY_TOL = 1e-9
_SIGMAS = np.array([SX, SY, SZ])


# A 2x2 matrix as the Python scalars (m00, m01, m10, m11).
_ID2 = (1 + 0j, 0j, 0j, 1 + 0j)


def _rotation_entries(axis: str, angle: float) -> tuple:
    """R_axis(angle) = cos(angle / 2) I - i sin(angle / 2) sigma^axis."""
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    if axis == "x":
        return (c, -1j * s, -1j * s, c)
    if axis == "y":
        return (c, -s, s, c)
    return (complex(c, -s), 0j, 0j, complex(c, s))


def _mul2(r: tuple, m: tuple) -> tuple:
    """The 2x2 product r m."""
    r0, r1, r2, r3 = r
    m0, m1, m2, m3 = m
    return (r0 * m0 + r1 * m2, r0 * m1 + r1 * m3,
            r2 * m0 + r3 * m2, r2 * m1 + r3 * m3)


def _layer(a: tuple, b: tuple) -> np.ndarray:
    """a (x) b as a 4x4 array, qubit 1's factor a on the left."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return np.array([[a0 * b0, a0 * b1, a1 * b0, a1 * b1],
                     [a0 * b2, a0 * b3, a1 * b2, a1 * b3],
                     [a2 * b0, a2 * b1, a3 * b0, a3 * b1],
                     [a2 * b2, a2 * b3, a3 * b2, a3 * b3]], dtype=complex)


def _so3(m: tuple) -> np.ndarray:
    """The 3x3 rotation O[a, b] = tr(sigma^a m sigma^b m^dag) / 2 of the
    2x2 unitary with entries m."""
    m = np.array(m, dtype=complex).reshape(2, 2)
    return np.einsum("aij,jk,bkl,li->ab", _SIGMAS, m, _SIGMAS,
                     m.conj().T).real / 2


def simulate_schedule(s: PulseSchedule, p: RotFrameParams) -> np.ndarray:
    """Product of the schedule's operations, first op applied first.

    One pulse layer at a time: the Rotates up to each Entangle multiply
    into a 2x2 factor per qubit, a on qubit 1 and b on qubit 2; the
    interval then applies rot_frame_propagator(p, dt) (a (x) b) to the
    running product. The Rotates after the last Entangle form the last
    layer, which also carries the product of the global phases. Raises
    ValueError when an interval's phase overflows (rot_frame_propagator).
    """
    u = None
    a = b = _ID2
    phase = 1 + 0j
    for op in s.ops:
        kind = type(op)  # PulseSchedule admits exactly the _OPS types
        if kind is Rotate:
            r = _rotation_entries(op.axis, op.angle)
            if op.qubit == 1:
                a = _mul2(r, a)
            else:
                b = _mul2(r, b)
        elif kind is Entangle:
            step = rot_frame_propagator(p, op.duration) @ _layer(a, b)
            u = step if u is None else step @ u
            a = b = _ID2
        else:  # GlobalPhase
            phase *= cmath.exp(1j * op.angle)
    last = _layer([phase * x for x in a], b)
    return last if u is None else last @ u


def trajectory(p: RotFrameParams, schedule: PulseSchedule,
               samples_per_interval: int = 32) -> Trajectory:
    """Entangler-space path of a schedule under constant couplings.

    Pulses toggle the frame of T = p.tensor (Khaneja, Brockett and Glaser,
    PRA 63, 032308 (2001)): an interval evolves under O_1^T T O_2, O_q the
    3x3 rotation of qubit q's pulses since the first interval, qubit 2
    first turned by phi about z (p.fold) to make T diagonal, and advances
    (x, y, z) by that diagonal times its duration. Raises UnsupportedOp,
    naming the interval, when a toggled tensor is off diagonal by more
    than ALGEBRA_TOL max(r, |J_zz|); ValueError when max(r, |J_zz|) times
    the total entangling time is not finite, or naming the interval when
    its samples are too short to advance the running time or when
    samples_per_interval is not an _exact_int of at least 1.
    """
    samples = _exact_int(samples_per_interval)
    if samples is None or samples < 1:
        raise ValueError(f"samples_per_interval {samples_per_interval!r} "
                         "must be an integer of at least 1")
    scale = max(math.hypot(p.j, p.j_prime), abs(p.j_zz))
    # On Python floats: an overflowing area is inf here, not a warning.
    area = scale * schedule.total_entangling_time
    if not math.isfinite(area):
        raise ValueError(f"entangling area {area} is not finite: "
                         "couplings or durations are too large")

    frames = {1: _ID2, 2: _rotation_entries("z", p.fold[1])}
    times, points = [0.0], [np.zeros(3)]
    for i, op in enumerate(schedule.ops):
        if isinstance(op, Rotate) and len(times) > 1:
            frames[op.qubit] = _mul2(_rotation_entries(op.axis, op.angle),
                                     frames[op.qubit])
        elif isinstance(op, Entangle) and op.duration:
            o1, o2 = map(_so3, frames.values())
            toggled = o1.T @ p.tensor @ o2
            rates = np.diag(toggled)
            if np.max(np.abs(toggled - np.diag(rates))) > ALGEBRA_TOL * scale:
                raise UnsupportedOp(f"schedule op {i}, {op}: the pulses before"
                                    " it turn the coupling off diagonal")
            steps = op.duration * np.arange(1, samples + 1) / samples
            new_times = times[-1] + steps
            if np.any(np.diff(new_times, prepend=times[-1]) <= 0):
                raise ValueError(
                    f"schedule op {i}, {op}: duration {op.duration!r} over "
                    f"{samples} samples is below the float resolution of "
                    f"the time {float(times[-1])!r} and does not advance it")
            times.extend(new_times)
            points.extend(points[-1] + np.outer(steps, rates))
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
        d = asdict(self)
        return {"target": d.pop("target_name"), **d, "passed": self.passed}


# Distinct targets whose checks the memos below keep.
_TARGET_MEMO_SIZE = 32


@functools.lru_cache(maxsize=_TARGET_MEMO_SIZE)
def _checked_target(raw: bytes) -> np.ndarray:
    """The unitarity-checked target whose 4x4 complex C-order bytes are
    raw, as a read-only array."""
    return qmat.require_unitary(np.frombuffer(raw, dtype=complex)
                                .reshape(4, 4))


@functools.lru_cache(maxsize=_TARGET_MEMO_SIZE)
def _target_invariants(raw: bytes) -> equivalence.MakhlinInvariants:
    """The Makhlin invariants of _checked_target(raw)."""
    return equivalence.makhlin_invariants(_checked_target(raw))


def verify_schedule(s: PulseSchedule, p: RotFrameParams,
                    target: np.ndarray, mode: str = "exact",
                    tol: float = VERIFY_TOL,
                    target_name: str = "") -> VerificationReport:
    """Simulate a schedule and report exact, phase-insensitive, and
    local-class distances from the target; the pass flag follows mode.
    tol must be positive and finite.

    Each distinct target is checked once: its unitarity check and its
    Makhlin invariants are memoized by content (the bytes of the 4x4
    complex array), so a target mutated in place is checked anew. A
    failing check is not memoized and raises on every call.
    """
    if mode not in ("exact", "exact_up_to_phase", "local_class"):
        raise ValueError(f"bad mode {mode!r}")
    if not 0 < _finite("tolerance", tol):
        raise ValueError(f"tolerance {tol!r} must be positive and finite")
    raw = qmat._as_4x4(target).tobytes()
    target = _checked_target(raw)
    u = simulate_schedule(s, p)
    d_exact = qmat.distance(u, target)
    d_phase = qmat.distance(u, target, up_to_global_phase=True)
    d_inv = equivalence.makhlin_invariants(u).distance(
        _target_invariants(raw))
    return VerificationReport(
        target_name=target_name, mode=mode, exact_distance=float(d_exact),
        phase_distance=float(d_phase), invariant_distance=float(d_inv),
        pass_exact=bool(d_exact < tol),
        pass_exact_up_to_phase=bool(d_phase < tol),
        pass_class=bool(d_inv < tol),
        total_entangling_time=s.total_entangling_time)
