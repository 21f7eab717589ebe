"""The canonical entangler family A(x,y,z) = e^{-i(x XX + y YY + z ZZ)},
whose generator is qmat.coupling_operator of diag(x, y, z) and is
diagonal in the magic basis, so A has a closed form there; coordinate
arithmetic on the 3-torus of entanglers, the area theorem (J' = 0 only)
and the sampled path type Trajectory, which pulses.trajectory fills in
from a pulse schedule.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .qmat import GEN_DIAGS, MAGIC, MAGIC_DAG, _finite

__all__ = [
    "EntanglerCoords", "Trajectory", "wrap_angle",
    "canonical_entangler", "coords_from_area",
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


def _finite_xyz(c: EntanglerCoords) -> list[float]:
    """[x, y, z] as finite Python floats; ValueError naming the first
    coordinate that is not."""
    return [_finite(f"entangler coordinate {a}", v)
            for a, v in zip("xyz", (c.x, c.y, c.z))]


def canonical_entangler(c: EntanglerCoords) -> np.ndarray:
    """A(x,y,z) = MAGIC diag(e^{-i GEN_DIAGS (x, y, z)}) MAGIC^dag, exactly
    2*pi-periodic per axis: XX, YY and ZZ are diagonal in the magic basis.

    Raises ValueError for a non-finite coordinate or when a phase
    +-x +-y +-z is not finite.
    """
    xyz = _finite_xyz(c)
    # On Python floats: an overflowing phase is inf here, not a warning.
    phases = [sum(d * v for d, v in zip(row, xyz))
              for row in GEN_DIAGS.tolist()]
    if not all(map(math.isfinite, phases)):
        raise ValueError(f"phase overflows: entangler coordinates {xyz} "
                         "are too large")
    return (MAGIC * np.exp(-1j * np.array(phases))) @ MAGIC_DAG


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
