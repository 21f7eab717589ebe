"""Pulse schedules: the op set, simulation, trajectories, verification.

Schedules are stored in application order (first-applied first); the
conventional right-to-left notation is used only for pretty-printing.
Rotations are instantaneous; only entangling intervals consume time.
The op kinds are Rotate, Entangle and GlobalPhase; _OPS declares each
one's JSON name and text form, and PulseSchedule refuses any other op.

Rotation convention: R_a(theta) = e^{-i theta sigma^a / 2}, the unique
choice under which i Rx(pi) Ry(pi/2) is the standard Hadamard; one
closed form (cos, sin of theta / 2 per axis) gives every rotation as
four Python scalars, kept by each Rotate, and rotations compose by their
2x2 product (_mul2) in both simulation and trajectories. Simulation runs
one pulse layer at a time and uses no eigensolver: the Rotates between
two Entangles multiply into one 2x2 factor per qubit, and each interval
applies rot_frame_propagator times that layer's a (x) b, formed in one
step (qmat._step), to the running product; the global phases fold into
one scalar.
trajectory draws a Trajectory, its path continuous (never reduced mod
2 pi), reading each interval's toggled coupling off qmat's magic basis.
verify_schedule checks its mode and tolerance, and each distinct target
once, through the invariants memo of equivalence.makhlin_invariants,
keyed by the target's content; pulses keeps no memo of its own. It then
runs one kernel, _verify, which compiler.compile_cnot calls directly on
targets checked at import: the simulated product, unitary by
construction, goes unchecked to qmat's distance kernels and to
equivalence._makhlin.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Mapping, Set
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import equivalence, qmat
from .errors import UnsupportedOp
from .hamiltonian import RotFrameParams, _rot_frame_entries, rot_frame_matrix
from .qmat import (ALGEBRA_TOL, GEN_DIAGS, _ID2, _ID_W, _MAGIC2, _MAGIC2_DAG,
                   _exact_int, _finite, _require_type, _step)
# perfbench/selftest.py pins pulses.kron until ROADMAP item 1 re-aims it.
from .qmat import kron  # noqa: F401

__all__ = [
    "Rotate", "Entangle", "GlobalPhase", "PulseSchedule", "Trajectory",
    "VERIFY_TOL", "VerificationReport",
    "simulate_schedule", "trajectory", "verify_schedule",
]


@dataclass(frozen=True)
class Rotate:
    """Instantaneous single-qubit rotation R_axis(angle) on one qubit; its
    2x2 entries are computed once, when built, as _entries (no field)."""

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
        object.__setattr__(self, "_entries",
                           _rotation_entries(self.axis, self.angle))


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
    """Ordered Rotate, Entangle and GlobalPhase ops, first-applied first,
    from any iterable that keeps an order: a set, a mapping or a string
    raises ValueError."""

    ops: tuple

    def __post_init__(self):
        _require_type(self.ops, Iterable)
        if isinstance(self.ops, (Set, Mapping, str)):
            raise ValueError(f"schedule ops must be an ordered sequence, "
                             f"not a {type(self.ops).__name__}")
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


def simulate_schedule(s: PulseSchedule, p: RotFrameParams) -> np.ndarray:
    """Product of the schedule's operations, first op applied first.

    One pulse layer at a time: the Rotates up to each Entangle multiply
    into a 2x2 factor per qubit, a on qubit 1 and b on qubit 2; the
    interval then applies rot_frame_propagator(p, dt) (a (x) b), formed
    from its five entries, shared by equal durations, to the running
    product. The Rotates after the last Entangle form the last layer,
    which also carries the product of the global phases. Raises
    ValueError when an interval's phase overflows (rot_frame_propagator).
    """
    _require_type(s, PulseSchedule)
    _require_type(p, RotFrameParams)
    u = None
    a = b = _ID2
    phase = 1 + 0j
    dt = w = None
    for op in s.ops:
        kind = type(op)  # PulseSchedule admits exactly the _OPS types
        if kind is Rotate:
            if op.qubit == 1:
                a = _mul2(op._entries, a)
            else:
                b = _mul2(op._entries, b)
        elif kind is Entangle:
            if op.duration != dt:
                dt, w = op.duration, _rot_frame_entries(p, op.duration)
            step = _step(w, a, b)
            u = step if u is None else step @ u
            a = b = _ID2
        else:  # GlobalPhase
            phase *= cmath.exp(1j * op.angle)
    last = _step(_ID_W, [phase * x for x in a], b)
    return last if u is None else last @ u


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled entangler-space path r(t), as trajectory draws it: raw
    holds the continuous coordinates, never reduced mod 2 pi, shape
    (N, 3), N >= 1, which to_csv prints as t,x,y,z. Every time and
    coordinate must be a finite real number; ValueError if not."""

    times: np.ndarray
    raw: np.ndarray  # shape (N, 3)

    def __post_init__(self):
        t = qmat._numeric(self.times, "real trajectory", kinds="biuf")
        r = qmat._numeric(self.raw, "real trajectory", kinds="biuf")
        if r.ndim != 2 or r.shape[1] != 3 or not len(r):
            raise ValueError(f"raw of shape {r.shape} is not (N >= 1, 3)")
        if t.shape != (len(r),):
            raise ValueError("times/coords length mismatch")
        if not (np.isfinite(t).all() and np.isfinite(r).all()):
            raise ValueError("trajectory times and coords must be finite")
        if t[0] != 0.0 or np.any(r[0] != 0.0):
            raise ValueError("trajectory must start at t=0, r=(0,0,0)")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "raw", r)

    def to_csv(self) -> str:
        rows = np.column_stack([self.times, self.raw]).tolist()
        return "t,x,y,z\n" + "".join(
            ",".join(f"{v:.12g}" for v in row) + "\n" for row in rows)


def trajectory(p: RotFrameParams, schedule: PulseSchedule,
               samples_per_interval: int = 32) -> Trajectory:
    """Entangler-space path of a schedule under constant couplings.

    Pulses toggle the frame of the coupling (Khaneja, Brockett and Glaser,
    PRA 63, 032308 (2001)): an interval evolves under L^dag H L, with
    H = rot_frame_matrix(p) and L = a (x) b the pulses since the first
    interval, qubit 2's first turned by phi about z (p.fold). In the magic
    basis (Zhang et al., PRA 67, 042313 (2003)) L is a real orthogonal o,
    H a real h, XX, YY and ZZ the diagonals GEN_DIAGS, and every other
    sigma^m (x) sigma^n zero on the diagonal: o^T h o is diagonal exactly
    when the toggled tensor t is, and its diagonal d advances (x, y, z) at
    GEN_DIAGS^T d / 4. Raises UnsupportedOp, naming the interval, when an
    entry off that diagonal, each +-t_mn +- t_nm, exceeds ALGEBRA_TOL
    max(r, |J_zz|), which refuses every t off diagonal by more than that
    and some off by more than half of it; ValueError when max(r, |J_zz|)
    times the total entangling time is not finite, or naming the interval
    when its samples are too short to advance the running time or when
    samples_per_interval is not an _exact_int of at least 1.
    """
    _require_type(p, RotFrameParams)
    _require_type(schedule, PulseSchedule)
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

    h = (_MAGIC2_DAG @ rot_frame_matrix(p) @ _MAGIC2).real / 2
    frames = {1: _ID2, 2: _rotation_entries("z", p.fold[1])}
    times, points = [0.0], [np.zeros(3)]
    for i, op in enumerate(schedule.ops):
        if isinstance(op, Rotate) and len(times) > 1:
            frames[op.qubit] = _mul2(op._entries, frames[op.qubit])
        elif isinstance(op, Entangle) and op.duration:
            layer = _step(_ID_W, *frames.values())
            o = (_MAGIC2_DAG @ layer @ _MAGIC2).real / 2
            toggled = o.T @ h @ o
            d = np.diag(toggled)
            if np.max(np.abs(toggled - np.diag(d))) > ALGEBRA_TOL * scale:
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
            points.extend(points[-1] + np.outer(steps, GEN_DIAGS.T @ d / 4))
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


def verify_schedule(s: PulseSchedule, p: RotFrameParams,
                    target: np.ndarray, mode: str = "exact",
                    tol: float = VERIFY_TOL,
                    target_name: str = "") -> VerificationReport:
    """Simulate a schedule and report exact, phase-insensitive, and
    local-class distances from the target; the pass flag follows mode.
    tol must be positive and finite, and target_name a str.

    The target is checked, before simulation, by the invariants memo of
    makhlin_invariants, keyed by content (the bytes of the 4x4 complex
    array), whose record holds the checked gate: each distinct target is
    checked once, one mutated in place anew, and a failing check is not
    memoized and raises on every call.
    """
    if mode not in ("exact", "exact_up_to_phase", "local_class"):
        raise ValueError(f"bad mode {mode!r}")
    limit = _tolerance(tol)
    _require_type(target_name, str)
    target_inv, target, _ = equivalence._invariants(
        qmat._as_4x4(target).tobytes())
    return _verify(s, p, target, target_inv, mode, limit, target_name)


def _tolerance(tol) -> float:
    """tol as a Python float, if positive and finite; ValueError if not.
    A Python float, so that the pass flags are bools."""
    limit = _finite("tolerance", tol)
    if not 0 < limit:
        raise ValueError(f"tolerance {tol!r} must be positive and finite")
    return limit


def _verify(s: PulseSchedule, p: RotFrameParams, target: np.ndarray,
            target_inv: equivalence.MakhlinInvariants, mode: str,
            limit: float, target_name: str) -> VerificationReport:
    """verify_schedule's report, for a checked complex 4x4 target with
    invariants target_inv, a valid mode and a _tolerance limit; the
    simulated product, unitary by construction, goes unchecked to the
    distance and invariant kernels."""
    u = simulate_schedule(s, p)
    d_exact = qmat._distance(u, target)
    d_phase = qmat._phase_distance(u, target)
    d_inv = equivalence._makhlin(u)[0].distance(target_inv)
    return VerificationReport(
        target_name=target_name, mode=mode, exact_distance=d_exact,
        phase_distance=d_phase, invariant_distance=d_inv,
        pass_exact=d_exact < limit, pass_exact_up_to_phase=d_phase < limit,
        pass_class=d_inv < limit,
        total_entangling_time=s.total_entangling_time)
