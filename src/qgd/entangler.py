"""The canonical entangler family A(x,y,z) = e^{-i(x XX + y YY + z ZZ)},
whose generator is qmat.coupling_operator of diag(x, y, z), and
coordinates on the 3-torus of entanglers, finite Python floats by
construction. pulses.trajectory draws an unwrapped path of such
coordinates.

A is qmat._entangler, the package's one closed form of this exponential,
which hamiltonian.rot_frame_propagator shares and which alone refuses a
phase that is not finite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmat import _entangler, _entangler_array, _finite, _require_type

__all__ = ["EntanglerCoords", "canonical_entangler"]

@dataclass(frozen=True)
class EntanglerCoords:
    """A point r = (x, y, z) on the 3-torus of entanglers (period 2*pi).

    Each coordinate is stored as read by qmat._finite, a finite Python
    float (never -0.0); ValueError names the first one that is not a
    finite number.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        for a in "xyz":
            object.__setattr__(self, a, _finite(f"entangler coordinate {a}",
                                                getattr(self, a)))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def canonical_entangler(c: EntanglerCoords) -> np.ndarray:
    """A(x,y,z), exactly 2*pi-periodic per axis, in closed form
    (qmat._entangler with tilt 1). Raises ValueError for anything but an
    EntanglerCoords, and, from qmat._entangler, when a magic-basis phase
    +-x +-y +-z (the eigenphases of A) is not finite.
    """
    _require_type(c, EntanglerCoords)
    return _entangler_array(_entangler(c.x - c.y, c.x + c.y, c.z, 1.0))
