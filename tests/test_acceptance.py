"""End-to-end acceptance checks. Each test prints one PASS/FAIL line,
visible with `pytest -s tests/test_acceptance.py` (or in the -v listing).
"""
import math

import numpy as np
import pytest

from qgd.compiler import (CNOT, SWAP, _refocused_schedule,
                          _xy_swapcnot_schedule, controlled_phase)
from qgd.entangler import EntanglerCoords, canonical_entangler
from qgd.equivalence import (kak_decompose, locally_equivalent,
                             makhlin_invariants)
from qgd.hamiltonian import (CouplingTensor, RotFrameParams, rot_frame_matrix,
                             rwa_infidelity)
from qgd.pulses import simulate_schedule
from qgd.qmat import I2, SX, distance

from conftest import expm_h, haar_unitary

PI = math.pi
# Rx(pi) on qubit 1: e^{-i pi X / 2} = -i X, and its inverse i X.
RX_PI_1 = -1j * np.kron(SX, I2)
RX_MINUS_PI_1 = 1j * np.kron(SX, I2)


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def time_ordered(segments):
    """Product of e^{-i h dt} over (h, dt) segments, later on the left."""
    u = np.eye(4, dtype=complex)
    for h, dt in segments:
        u = expm_h(h, dt) @ u
    return u


def test_makhlin_golden_values():
    cnot = makhlin_invariants(CNOT)
    ident = makhlin_invariants(np.eye(4))
    swap = makhlin_invariants(SWAP)
    ok = (abs(cnot.g1) < 1e-12 and abs(cnot.g2 - 1) < 1e-12
          and abs(ident.g1 - 1) < 1e-12 and abs(ident.g2 - 3) < 1e-12
          and abs(swap.g1 + 1) < 1e-12 and abs(swap.g2 + 3) < 1e-12)
    report("Makhlin golden values: CNOT (0,1), I (1,3), SWAP (-1,-3)", ok)


def test_ising_sequence_exactness():
    worst = 0.0
    for jzz in (1.0, -1.0):  # both sign branches
        p = RotFrameParams(0.0, jzz, 0.0)
        for q in (1, 2):
            sched, _, branch = _refocused_schedule(p, q)
            assert branch == "zz_refocus"
            worst = max(worst, distance(simulate_schedule(sched, p), CNOT))
    report(f"Ising sequence exact CNOT, both branches, both refocus qubits "
           f"(max {worst:.2e})", worst < 1e-10)


def test_xy_single_shot():
    worst = 0.0
    class_ok = True
    target_a = canonical_entangler(EntanglerCoords(PI / 4, PI / 4, 0))
    for j in (1.0, -1.0):
        p = RotFrameParams(j, 0.0, 0.0)
        sched, _ = _xy_swapcnot_schedule(p)
        u = simulate_schedule(sched, p)
        worst = max(worst, distance(u, SWAP @ CNOT))
        coords = kak_decompose(u).coords
        class_ok &= locally_equivalent(canonical_entangler(coords), target_a)
    report(f"XY single shot = SWAP*CNOT, both branches (max {worst:.2e}), "
           "KAK coords in the (pi/4, pi/4, 0) class",
           worst < 1e-10 and class_ok)


def test_general_jprime_sequence():
    rng = np.random.default_rng(20090619)
    worst = 0.0
    n = 0
    while n < 200:
        j, jzz, jp = rng.normal(size=3)
        if j == 0 and jp == 0:
            continue
        n += 1
        p = RotFrameParams(j, jzz, jp)
        for q in (1, 2):
            sched, dt, _ = _refocused_schedule(p, q)
            assert math.isclose(dt, PI / (8 * max(math.hypot(j, jp),
                                                  abs(jzz))))
            worst = max(worst, distance(simulate_schedule(sched, p), CNOT))
    report(f"General-J' sequence exact CNOT incl. its global phase, "
           f"200 random triples, both refocus qubits (max {worst:.2e})",
           worst < 1e-9)


def test_two_shot_identity_suite():
    rng = np.random.default_rng(7)
    worst = 0.0
    for sign in (1.0, -1.0):
        for z in rng.uniform(-PI, PI, size=100):
            a = canonical_entangler(
                EntanglerCoords(sign * PI / 8, sign * PI / 8, z))
            refl = canonical_entangler(
                EntanglerCoords(sign * PI / 8, -sign * PI / 8, -z))
            worst = max(worst, distance(RX_MINUS_PI_1 @ a @ RX_PI_1, refl))
            worst = max(worst, distance(refl @ a, canonical_entangler(
                EntanglerCoords(sign * PI / 4, 0, 0))))
    report(f"Two-shot identity suite, 100 random z per branch "
           f"(max {worst:.2e})", worst < 1e-12)


def test_refocusing_conjugation():
    rng = np.random.default_rng(11)
    from qgd.qmat import PAULI_PAIRS
    XX, YY, ZZ = (PAULI_PAIRS[k, k] for k in range(3))
    worst = 0.0
    for _ in range(100):
        j, jzz, jp = rng.normal(size=3)
        h = rot_frame_matrix(RotFrameParams(j, jzz, 0.0))
        conj = RX_PI_1.conj().T @ h @ RX_PI_1
        expected = j * (XX - YY) - jzz * ZZ
        worst = max(worst, float(np.max(np.abs(conj - expected))))
    report(f"Refocusing conjugation identity, 100 triples "
           f"(max {worst:.2e})", worst < 1e-14)


def test_area_theorem_profiles():
    # Three J(t), J_zz(t) profiles with equal integrals:
    # int J dt = pi/4, int J_zz dt = pi/8 over T = 2.
    t_final = 2.0
    area_j, area_zz = PI / 4, PI / 8

    def h_of(j, jzz):
        return rot_frame_matrix(RotFrameParams(j, jzz, 0.0))

    # constant
    u_const = expm_h(h_of(area_j / t_final, area_zz / t_final), t_final)
    # triangular (midpoint samples; J' = 0 generators commute, so the
    # midpoint rule is exact for piecewise-linear profiles)
    peak_j = 2 * area_j / t_final
    peak_zz = 2 * area_zz / t_final
    n = 1000
    ws = 1 - np.abs(2 * (np.arange(n) + 0.5) / n - 1)
    u_tri = time_ordered((h_of(peak_j * w, peak_zz * w), t_final / n)
                         for w in ws)
    # two-segment
    u_two = time_ordered((
        (h_of(1.5 * area_j / t_final, 0.5 * area_zz / t_final), t_final / 2),
        (h_of(0.5 * area_j / t_final, 1.5 * area_zz / t_final), t_final / 2),
    ))
    # The area theorem (J' = 0): A at the integrals (int J, int J, int J_zz)
    # of a profile, here the triangular one's midpoint sums.
    tri_j, tri_zz = (peak * ws.sum() * t_final / n
                     for peak in (peak_j, peak_zz))
    a = canonical_entangler(EntanglerCoords(tri_j, tri_j, tri_zz))
    worst = max(distance(u_const, u_tri), distance(u_const, u_two),
                distance(u_const, a), distance(u_tri, a), distance(u_two, a))
    report(f"Area theorem: 3 profiles with equal integrals agree "
           f"(max {worst:.2e})", worst < 1e-10)


def test_kak_round_trip():
    rng = np.random.default_rng(123)
    worst_recon = 0.0
    worst_inv = 0.0
    for _ in range(1000):
        u = haar_unitary(rng)
        f = kak_decompose(u)
        worst_recon = max(worst_recon, distance(f.reconstruct(), u))
        gu = makhlin_invariants(u)
        ga = makhlin_invariants(canonical_entangler(f.coords))
        worst_inv = max(worst_inv, abs(gu.g1 - ga.g1) + abs(gu.g2 - ga.g2))
    report(f"KAK round trip, 1000 Haar inputs (recon {worst_recon:.2e}, "
           f"invariant mismatch {worst_inv:.2e})",
           worst_recon < 1e-9 and worst_inv < 1e-9)


def test_controlled_phase_chain():
    rng = np.random.default_rng(5)
    ok = True
    for theta in rng.uniform(-PI, PI, size=20):
        c = controlled_phase(theta)
        gates = [canonical_entangler(EntanglerCoords(theta / 4, 0, 0)),
                 canonical_entangler(EntanglerCoords(0, theta / 4, 0)),
                 canonical_entangler(EntanglerCoords(0, 0, theta / 4))]
        ok &= all(locally_equivalent(c, g) for g in gates)
        ok &= locally_equivalent(gates[0], gates[1])
        ok &= locally_equivalent(gates[1], gates[2])
    report("Controlled-phase chain Ctheta ~ A(theta/4)*axes, 20 random theta",
           ok)


def test_rwa_validity():
    # Generic tensor: every RWA-dropped combination is nonzero, so the
    # infidelity reflects the approximation, not numerical noise.
    base = np.array([[1.0, 0.4, 0.3],
                     [0.2, 0.8, -0.5],
                     [0.6, -0.3, 0.9]])
    # Regression baselines from the oracle run (ratios 1e-1, 1e-2, 1e-3):
    baselines = [0.3372, 0.02723, 0.003556]
    vals = []
    for ratio in (1e-1, 1e-2, 1e-3):
        g = ratio
        ct = CouplingTensor(base * g)
        vals.append(rwa_infidelity(ct, 1.0, PI / (8 * g)))
    monotone = vals[0] > vals[1] > vals[2]
    regression = all(abs(v - b) < 0.1 * b for v, b in zip(vals, baselines))
    report(f"RWA validity: monotone {[f'{v:.3e}' for v in vals]}, "
           f"< 1e-2 at g/eps = 1e-3",
           monotone and vals[2] < 1e-2 and regression)
