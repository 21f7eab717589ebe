"""The canonical entangler family A(x,y,z) = e^{-i(x XX + y YY + z ZZ)},
whose generator is qmat.coupling_operator of diag(x, y, z), coordinate
arithmetic on the 3-torus of entanglers, and trajectory generation from
pulse schedules via the area theorems (J' = 0 only).
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import qmat
from .errors import NonzeroJPrime, UnsupportedOp
from .qmat import coupling_operator

__all__ = [
    "EntanglerCoords", "Trajectory", "wrap_angle",
    "canonical_entangler", "coords_from_area", "trajectory",
]

_TWO_PI = 2 * math.pi


def wrap_angle(a):
    """Wrap into the principal cell (-pi, pi]."""
    return a - _TWO_PI * np.ceil((a - math.pi) / _TWO_PI)


@dataclass(frozen=True)
class EntanglerCoords:
    """A point r = (x, y, z) on the 3-torus of entanglers (period 2*pi)."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def wrapped(self) -> "EntanglerCoords":
        w = wrap_angle(self.as_array())
        return EntanglerCoords(*map(float, w))


def canonical_entangler(c: EntanglerCoords) -> np.ndarray:
    """A(x,y,z); the three generators commute, so this is a single
    Hermitian exponential and is exactly 2*pi-periodic per axis."""
    return qmat.expm_hermitian(coupling_operator(np.diag([c.x, c.y, c.z])))


def coords_from_area(times, j_values, jzz_values) -> EntanglerCoords:
    """Area theorem (valid for J' = 0): the accumulated entangler
    coordinates are (int J dt, int J dt, int J_zz dt), by trapezoidal
    quadrature over the caller's sample grid, wrapped to the principal
    cell."""
    times = np.asarray(times, dtype=float)
    area_j = float(np.trapezoid(np.asarray(j_values, dtype=float), times))
    area_zz = float(np.trapezoid(np.asarray(jzz_values, dtype=float), times))
    return EntanglerCoords(area_j, area_j, area_zz).wrapped()


@dataclass(frozen=True)
class Trajectory:
    """Sampled entangler-space path r(t).

    raw holds the continuous (unwrapped) coordinates for plotting;
    wrapped() gives the principal-cell values.
    """

    times: np.ndarray
    raw: np.ndarray  # shape (N, 3)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        r = np.asarray(self.raw, dtype=float)
        if len(t) != len(r):
            raise ValueError("times/coords length mismatch")
        if len(t) and (t[0] != 0.0 or np.any(r[0] != 0.0)):
            raise ValueError("trajectory must start at t=0, r=(0,0,0)")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "raw", r)

    def wrapped(self) -> np.ndarray:
        return wrap_angle(self.raw)

    @property
    def endpoint(self) -> EntanglerCoords:
        return EntanglerCoords(*map(float, self.raw[-1]))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,x,y,z,x_wrapped,y_wrapped,z_wrapped\n")
        wrapped = self.wrapped()
        for t, r, w in zip(self.times, self.raw, wrapped):
            row = [t, *r, *w]
            buf.write(",".join(f"{v:.12g}" for v in row) + "\n")
        return buf.getvalue()


def _reflection_for(axis: str) -> np.ndarray:
    # A pi pulse about x flips the signs of the YY and ZZ accumulation
    # rates; about y it flips XX and ZZ.
    if axis == "x":
        return np.array([1.0, -1.0, -1.0])
    if axis == "y":
        return np.array([-1.0, 1.0, -1.0])
    raise UnsupportedOp(f"refocusing pulse about '{axis}' not supported")


def trajectory(p, schedule, samples_per_interval: int = 32) -> Trajectory:
    """Entangler-space path of a PulseSchedule of entangling intervals and
    refocusing pi pulses, under constant couplings with J' = 0.

    Entangling intervals advance (x, y, z) at rates (J, J, J_zz), with
    the running sign state toggled by each pi pulse.
    """
    from .pulses import Entangle, GlobalPhase, Rotate

    if p.j_prime != 0.0:
        raise NonzeroJPrime("closed-form trajectories require J' = 0")
    if samples_per_interval < 1:
        raise ValueError("samples_per_interval must be at least 1")

    rates = np.array([p.j, p.j, p.j_zz])
    signs = np.array([1.0, 1.0, 1.0])
    times = [0.0]
    points = [np.zeros(3)]
    for op in schedule.ops:
        if isinstance(op, GlobalPhase):
            continue
        if isinstance(op, Rotate):
            if not math.isclose(abs(op.angle), math.pi, rel_tol=0, abs_tol=1e-12):
                raise UnsupportedOp(
                    "trajectory schedules admit only refocusing pi pulses; "
                    f"got {op.axis} rotation by {op.angle}")
            signs = signs * _reflection_for(op.axis)
            continue
        if isinstance(op, Entangle):
            if op.duration == 0:
                continue
            t0 = times[-1]
            r0 = points[-1]
            for k in range(1, samples_per_interval + 1):
                dt = op.duration * k / samples_per_interval
                times.append(t0 + dt)
                points.append(r0 + signs * rates * dt)
            continue
        raise UnsupportedOp(f"unsupported schedule op {op!r}")
    return Trajectory(times=np.array(times), raw=np.array(points))
