"""Compile CNOT pulse schedules across the coupling regimes.

Each compiled schedule is re-simulated against its target; the printed
sequences read right to left, matching operator notation.
"""
from qgd import RotFrameParams, compile_cnot

cases = [
    ("Ising (J = J' = 0)", RotFrameParams(j=0.0, j_zz=1.0, j_prime=0.0)),
    ("XY with J_zz (J' = 0)", RotFrameParams(j=1.0, j_zz=0.3, j_prime=0.0)),
    ("pure XY (single-shot SWAP*CNOT)", RotFrameParams(1.0, 0.0, 0.0)),
    ("general J' != 0", RotFrameParams(j=1.0, j_zz=0.4, j_prime=0.7)),
    ("ZZ-dominant (|J_zz| > |J + iJ'|)",
     RotFrameParams(j=0.3, j_zz=1.0, j_prime=0.2)),
]

for label, p in cases:
    res = compile_cnot(p)
    v = res.verification
    print(f"{label}:")
    print(f"  branch          = {res.branch}")
    print(f"  target          = {res.target_name}")
    print(f"  dt per interval = {res.delta_t:.6f}")
    print(f"  entangling time = {res.schedule.total_entangling_time:.6f}")
    print(f"  exact distance  = {v.exact_distance:.2e}  (pass = {v.passed})")
    print(f"  sequence        = {res.schedule.pretty()}")
    print()
