"""Entangler-space trajectories and rotating-wave validity.

Traces the path of a compiled CNOT through the entangler 3-torus. The
coupling has J' != 0, so the compiler turns qubit 2 by phi about z and
the first interval runs in the x = y plane; the refocusing pi
pulse toggles the frame of the coupling, and the second interval runs
back to (pi/4, 0, 0), the local class of CNOT. Then scans the
rotating-wave infidelity against coupling strength.
"""
import math

import numpy as np

from qgd import (CouplingTensor, EntanglerCoords, RotFrameParams,
                 canonical_entangler, compile_cnot, locally_equivalent,
                 named_gate, rwa_infidelity, trajectory)

PI = math.pi

# The compiled general_jprime CNOT: wrap rotations, two intervals, one
# pi pulse between them.
p = RotFrameParams(j=1.0, j_zz=0.6, j_prime=0.4)
res = compile_cnot(p)
print(f"{res.branch} schedule: {res.schedule.pretty()}")
traj = trajectory(p, res.schedule, samples_per_interval=4)

print("Its trajectory r(t) = (x, y, z):")
for t, r in zip(traj.times, traj.raw):
    print(f"  t = {t:.4f}   r = ({r[0]:+.4f}, {r[1]:+.4f}, {r[2]:+.4f})")
end = canonical_entangler(EntanglerCoords(*traj.raw[-1]))
print(f"endpoint is (pi/4, 0, 0): {np.allclose(traj.raw[-1], [PI/4, 0, 0])}; "
      f"locally equivalent to CNOT: "
      f"{locally_equivalent(end, named_gate('CNOT'))}")

# RWA infidelity vs g/eps at fixed g*T, for a generic coupling tensor.
base = np.array([[1.0, 0.4, 0.3],
                 [0.2, 0.8, -0.5],
                 [0.6, -0.3, 0.9]])
print("\nRWA infidelity at fixed g*T = pi/8:")
for ratio in (1e-1, 1e-2, 1e-3):
    ct = CouplingTensor(base * ratio)
    inf = rwa_infidelity(ct, eps=1.0, t_final=PI / (8 * ratio))
    print(f"  g/eps = {ratio:.0e}   infidelity = {inf:.3e}")
