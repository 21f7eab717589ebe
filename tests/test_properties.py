"""Property tests: exact compilation and lossless schedule JSON over the
coupling space, trajectories of every compiled schedule and against the
pi-pulse sign rule, the closed-form propagators against a
kron-and-eigensolver reference, the KAK round trip and Weyl idempotence
on locally dressed gates, the Python-float Weyl, KAK, determinant and
entangler kernels and the quaternion split of local gates against the
numpy formulas they replaced, the lab-frame RWA
check against the rotating-frame formula it replaced, and the CLI's exit
codes on fuzzed JSON."""
import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qgd import cli
from qgd.compiler import (CNOT, SWAP, compile_cnot, controlled_phase,
                          named_gate)
from qgd.entangler import EntanglerCoords, canonical_entangler
from qgd.equivalence import (_det4, _joint_orthogonal_eigenbasis,
                             _so4_pairs, kak_decompose,
                             locally_equivalent, makhlin_invariants,
                             weyl_canonicalize)
from qgd.hamiltonian import (CouplingTensor, RotFrameParams, reduce_coupling,
                             rot_frame_propagator, rwa_infidelity)
from qgd.pulses import (Entangle, GlobalPhase, PulseSchedule, Rotate,
                        simulate_schedule, trajectory)
from qgd.qmat import I2, PAULI_PAIRS, SX, SY, SZ, distance, kron

from conftest import (GEN_DIAGS, MAGIC, MAGIC_DAG, expm_h, haar_unitary,
                      lab_hamiltonian, random_su2)

EXACT = 1e-9

# Reproducible runs, no per-example timing: tier-1 stays deterministic.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)

magnitude = st.floats(min_value=-3, max_value=3).map(lambda e: 10.0 ** e)
coupling = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda m: -m))


@PROPERTY
@given(j=coupling, j_zz=coupling, j_prime=coupling,
       prefer=st.sampled_from(["auto", "cnot"]),
       refocus_qubit=st.sampled_from([1, 2]),
       off=st.one_of(st.none(), magnitude))
def test_every_compiled_schedule_is_exact_and_round_trips(
        j, j_zz, j_prime, prefer, refocus_qubit, off):
    assume(j or j_zz or j_prime)
    p = RotFrameParams(j, j_zz, j_prime)
    if off is not None:
        # The same couplings reduced from a tensor whose off-RWA entries
        # Jxz, Jyz, Jzx and Jzy drop out.
        p = reduce_coupling(CouplingTensor([[j, j_prime, off],
                                            [-j_prime, j, -off],
                                            [2 * off, off, j_zz]]))
        assert p == RotFrameParams(j, j_zz, j_prime)
    res = compile_cnot(p, prefer=prefer, refocus_qubit=refocus_qubit)
    assert res.verification.exact_distance < EXACT
    if res.branch != "xy_single_shot_swapcnot":
        # The stronger coupling sets the time: the least any CNOT takes.
        r = math.hypot(j, j_prime)
        assert math.isclose(res.schedule.total_entangling_time,
                            math.pi / (4 * max(r, abs(j_zz))), rel_tol=1e-12)
        assert (res.branch == "zz_refocus") == (abs(j_zz) > r)
    u = simulate_schedule(res.schedule, p)
    assert distance(u, named_gate(res.target_name)) < EXACT
    back = json.loads(json.dumps(res.to_dict()))
    assert PulseSchedule.from_json(back["schedule"]) == res.schedule
    assert RotFrameParams.from_dict(back["params"]) == res.params == p


@pytest.mark.parametrize("make", [
    lambda: CouplingTensor(np.eye(3)),
    lambda: kak_decompose(CNOT),
    lambda: trajectory(RotFrameParams(1.0, 0.0, 0.0),
                       PulseSchedule((Entangle(0.5),))),
], ids=["CouplingTensor", "KakFactors", "Trajectory"])
def test_array_value_types_compare_and_hash_by_identity(make):
    # Their numpy fields have no truth value under ==, so these types
    # compare and hash by identity rather than raise.
    x, copy = make(), make()
    assert x == x and x != copy
    assert len({x, x, copy}) == 2


@PROPERTY
@given(j=coupling, j_zz=coupling, j_prime=coupling,
       prefer=st.sampled_from(["auto", "cnot"]),
       refocus_qubit=st.sampled_from([1, 2]))
def test_every_compiled_schedule_is_drawn_in_class_at_each_interval(
        j, j_zz, j_prime, prefer, refocus_qubit):
    assume(j or j_zz or j_prime)
    p = RotFrameParams(j, j_zz, j_prime)
    res = compile_cnot(p, prefer=prefer, refocus_qubit=refocus_qubit)
    ops = res.schedule.ops
    samples = 3
    traj = trajectory(p, PulseSchedule(ops), samples_per_interval=samples)
    ends = [i for i, op in enumerate(ops) if isinstance(op, Entangle)]
    assert len(traj.times) == 1 + samples * len(ends)
    for n, i in enumerate(ends, start=1):
        prefix = simulate_schedule(PulseSchedule(ops[:i + 1]), p)
        point = EntanglerCoords(*traj.raw[samples * n])
        assert locally_equivalent(canonical_entangler(point), prefix)
    end = EntanglerCoords(*traj.raw[-1])
    assert locally_equivalent(canonical_entangler(end),
                              named_gate(res.target_name))


def _sign_rule_trajectory(p: RotFrameParams, s: PulseSchedule,
                          samples: int):
    """The pi-pulse sign rule (J' = 0, pi pulses about x or y only): each
    interval advances (x, y, z) at (J, J, J_zz), with the signs of YY and
    ZZ flipped by every pi pulse about x and of XX and ZZ about y."""
    flips = {"x": np.array([1.0, -1.0, -1.0]),
             "y": np.array([-1.0, 1.0, -1.0])}
    rates = np.array([p.j, p.j, p.j_zz])
    signs = np.ones(3)
    times, points = [0.0], [np.zeros(3)]
    for op in s.ops:
        if isinstance(op, Rotate):
            signs = signs * flips[op.axis]
        elif isinstance(op, Entangle) and op.duration:
            t0, r0 = times[-1], points[-1]
            for k in range(1, samples + 1):
                dt = op.duration * k / samples
                times.append(t0 + dt)
                points.append(r0 + signs * rates * dt)
    return np.array(times), np.array(points)


pi_pulse = st.builds(Rotate, st.sampled_from(["x", "y"]),
                     st.sampled_from([math.pi, -math.pi]),
                     st.sampled_from([1, 2]))
# Durations far above an ulp of the running time, which would not advance.
interval = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1)
                     ).map(Entangle)
refocused = st.tuples(
    st.floats(min_value=1e-3, max_value=1).map(Entangle),
    st.lists(st.one_of(interval, pi_pulse,
                       st.builds(GlobalPhase, st.floats(-7, 7))),
             max_size=10)).map(lambda t: PulseSchedule((t[0], *t[1])))


@PROPERTY
@given(j=coupling, j_zz=coupling, schedule=refocused,
       samples=st.integers(min_value=1, max_value=8))
def test_trajectory_keeps_the_sign_rule_without_leading_rotations(
        j, j_zz, schedule, samples):
    p = RotFrameParams(j, j_zz, 0.0)
    traj = trajectory(p, schedule, samples_per_interval=samples)
    times, raw = _sign_rule_trajectory(p, schedule, samples)
    assert np.array_equal(traj.times, times)
    bound = max(abs(j), abs(j_zz)) * schedule.total_entangling_time
    assert np.max(np.abs(traj.raw - raw)) <= 1e-15 * bound


# ------------------------------------------------ closed forms vs expm --
# Largest entry difference allowed between a closed-form propagator and
# the eigensolver reference: a few ulps of phases up to ~20 rad.
CLOSED_FORM = 1e-14


def _reference_generator(p: RotFrameParams) -> np.ndarray:
    """J (XX + YY) + J' (XY - YX) + J_zz ZZ, built with np.kron."""
    return (p.j * (np.kron(SX, SX) + np.kron(SY, SY))
            + p.j_prime * (np.kron(SX, SY) - np.kron(SY, SX))
            + p.j_zz * np.kron(SZ, SZ))


PAULI = {"x": SX, "y": SY, "z": SZ}


def _reference_simulate(s: PulseSchedule, p: RotFrameParams) -> np.ndarray:
    h = _reference_generator(p)
    u = np.eye(4, dtype=complex)
    for op in s.ops:
        if isinstance(op, Rotate):
            r = expm_h(PAULI[op.axis] / 2, op.angle)
            u = (np.kron(r, I2) if op.qubit == 1 else np.kron(I2, r)) @ u
        elif isinstance(op, Entangle):
            u = expm_h(h, op.duration) @ u
        else:
            u = np.exp(1j * op.angle) * u
    return u


def _max_diff(a, b) -> float:
    return float(np.max(np.abs(a - b)))


unit_coupling = st.floats(min_value=-5, max_value=5)
rot_params = st.builds(RotFrameParams, unit_coupling, unit_coupling,
                       unit_coupling)
duration = st.floats(min_value=0, max_value=1)
angle = st.floats(min_value=-7, max_value=7)
pulse_op = st.one_of(
    st.builds(Rotate, st.sampled_from(["x", "y", "z"]), angle,
              st.sampled_from([1, 2])),
    st.builds(Entangle, duration),
    st.builds(GlobalPhase, angle))


@PROPERTY
@given(ops=st.lists(pulse_op, max_size=12), p=rot_params)
def test_simulate_schedule_matches_kron_expm_reference(ops, p):
    s = PulseSchedule(tuple(ops))
    assert _max_diff(simulate_schedule(s, p),
                     _reference_simulate(s, p)) < CLOSED_FORM


@PROPERTY
@given(p=rot_params, t=duration)
def test_rot_frame_propagator_matches_expm(p, t):
    assert _max_diff(rot_frame_propagator(p, t),
                     expm_h(_reference_generator(p), t)) \
        < CLOSED_FORM


coord = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)


@PROPERTY
@given(x=coord, y=coord, z=coord)
def test_canonical_entangler_matches_expm(x, y, z):
    h = (x * np.kron(SX, SX) + y * np.kron(SY, SY) + z * np.kron(SZ, SZ))
    assert _max_diff(canonical_entangler(EntanglerCoords(x, y, z)),
                     expm_h(h)) < CLOSED_FORM


# One Entangle object placed twice in a schedule, as the compiler does.
_SHARED_ENTANGLE = Entangle(0.45)
# Deterministic layer shapes the Hypothesis search need not hit: no
# interval, Rotates after the last interval, zero-length intervals,
# nothing but global phases, and intervals of one duration.
_LAYER_CASES = {
    "no_entangle": (Rotate("x", 0.3, 1), Rotate("y", -1.2, 2),
                    GlobalPhase(0.4), Rotate("z", 2.0, 1),
                    Rotate("x", 5.1, 2)),
    "rotates_after_last_entangle": (Rotate("y", 1.1, 2), Entangle(0.7),
                                    Rotate("x", -0.6, 2), Rotate("z", 0.9, 1),
                                    GlobalPhase(-1.3), Rotate("y", 2.2, 1)),
    "zero_entangle": (Rotate("x", 0.5, 1), Entangle(0.0), Rotate("z", 1.4, 2),
                      Entangle(0.0), Entangle(0.3), Entangle(0.0)),
    "only_global_phase": (GlobalPhase(0.3), GlobalPhase(-2.0),
                          GlobalPhase(6.5)),
    # Four intervals of one duration share their propagator entries; the
    # layers between them differ.
    "equal_durations": (Rotate("y", 0.4, 1), Entangle(0.45),
                        Rotate("x", -1.7, 2), Rotate("z", 0.8, 1),
                        Entangle(0.45), Rotate("y", 2.3, 2),
                        GlobalPhase(0.2), _SHARED_ENTANGLE,
                        Rotate("x", 0.6, 1), _SHARED_ENTANGLE,
                        Rotate("z", -0.9, 2)),
}


@pytest.mark.parametrize("ops", _LAYER_CASES.values(), ids=_LAYER_CASES)
@pytest.mark.parametrize("p", [RotFrameParams(0.8, -0.3, 1.1),
                               RotFrameParams(0.0, 0.0, 0.0)])
def test_simulate_schedule_layers_match_reference(ops, p):
    s = PulseSchedule(ops)
    assert _max_diff(simulate_schedule(s, p),
                     _reference_simulate(s, p)) < CLOSED_FORM


def test_simulate_phase_overflow_is_value_error():
    s = PulseSchedule.from_json([{"op": "entangle", "duration": 1e308}])
    with pytest.raises(ValueError, match="phase overflows"):
        simulate_schedule(s, RotFrameParams(1e300, 0.0, 0.0))


def _dressed(seed: int, core: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (kron(random_su2(rng), random_su2(rng)) @ core
            @ kron(random_su2(rng), random_su2(rng)))


small_angle = st.floats(min_value=-4, max_value=-2).map(lambda e: 10.0 ** e)
# The x of the benchmark's A(x, x, 0) gates (perfbench X_RETRY), whose
# Re m is degenerate; A(pi/4, small y, 0) sits beside CNOT, where Re m has
# two nearly equal pairs.
_X_RETRY = math.atan(math.pi ** 2) / 2
core_gate = st.one_of(
    st.sampled_from([np.eye(4, dtype=complex), CNOT, SWAP] + [
        canonical_entangler(EntanglerCoords(x, y, 0.0))
        for x, y in [(_X_RETRY, _X_RETRY), (math.pi / 4, 1e-6),
                     (math.pi / 4, 1e-9)]]),
    st.tuples(small_angle, st.sampled_from([-1.0, 1.0])).map(
        lambda ts: controlled_phase(ts[0] * ts[1])))


@PROPERTY
@given(core=core_gate, seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_kak_round_trip_and_weyl_idempotence(core, seed):
    u = _dressed(seed, core)
    f = kak_decompose(u)
    assert distance(f.reconstruct(), u) < EXACT
    inv = makhlin_invariants(u)
    assert inv.distance(makhlin_invariants(core)) < EXACT
    assert inv.distance(makhlin_invariants(canonical_entangler(f.coords))) \
        < EXACT
    w = weyl_canonicalize(f.coords)
    again = weyl_canonicalize(w)
    assert np.max(np.abs(again.as_array() - w.as_array())) < 1e-12
    assert locally_equivalent(canonical_entangler(w), u)


# SU(2) factors: Haar-random, or i times a Pauli matrix, so that products
# such as X (x) Y (whose (0, 0) block is zero) are covered.
local_factor = st.one_of(
    st.integers(min_value=0, max_value=2 ** 32 - 1).map(
        lambda seed: random_su2(np.random.default_rng(seed))),
    st.sampled_from([I2, 1j * SX, 1j * SY, 1j * SZ]))


def _so4(u: np.ndarray) -> np.ndarray:
    """The real orthogonal magic-basis form of a local gate."""
    return (MAGIC_DAG @ u @ MAGIC).real


def _quaternion(f: np.ndarray) -> np.ndarray:
    """(q0, q1, q2, q3) with f = q0 I - i (q1 X + q2 Y + q3 Z)."""
    return np.array([f[0, 0].real, -f[0, 1].imag, -f[0, 1].real,
                     -f[0, 0].imag])


@PROPERTY
@given(a=local_factor, b=local_factor)
def test_so4_factors_closed_form(a, b):
    u = kron(a, b)
    f1, f2 = _so4_pairs(_so4(u))
    assert np.max(np.abs(kron(f1, f2) - u)) < 1e-13
    for f in (f1, f2):
        assert abs(np.linalg.det(f) - 1) < 1e-12
    # The sign convention: the first factor's largest component is > 0.
    q = _quaternion(f1)
    assert q[np.argmax(np.abs(q))] > 0


# ------------------------------------------- lean kernels vs numpy --
# The numpy formulas that the Python-float kernels replaced, kept here as
# references: the Weyl moves, the general 4x4 solve for KAK's coordinates
# and phase, the entangler built in the magic basis, the LU determinant
# and the split of a (x) b by its 2x2 blocks.
_QUARTER, _HALF, _EDGE_TOL = math.pi / 4, math.pi / 2, 1e-12


def _reference_weyl(x, y, z) -> tuple:
    # The exact residue: fmod is exact, and so is each half-cell fold
    # (Sterbenz), so this is math.remainder up to the sign of a tie at
    # -+pi/4, which the edge rule below maps to +pi/4 either way.
    v = np.fmod(np.array([x, y, z]), _HALF)
    v = np.where(v > _QUARTER, v - _HALF,
                 np.where(v < -_QUARTER, v + _HALF, v))
    v[np.abs(v + _QUARTER) <= _EDGE_TOL] = _QUARTER
    neg = int(np.sum(v < -_EDGE_TOL)) % 2
    mag = np.abs(v)[np.argsort(-np.abs(v), kind="stable")]
    x, y, z = mag
    if neg and not any(
            math.isclose(m, _QUARTER, rel_tol=0, abs_tol=_EDGE_TOL)
            or m < _EDGE_TOL for m in mag):
        z = -z
    return float(x), float(y), float(z)


def _rotating_frame_rwa_infidelity(ct, eps, t_final) -> tuple:
    """The rotating-frame comparison: U_rot = e^{+i H0 T} U_lab, a row
    scaling, against the closed form, with np.linalg.norm. Returns the
    distance and the two matrices compared."""
    u_lab = expm_h(lab_hamiltonian(ct.j, eps), t_final)
    drift = np.array([-1.0, 0.0, 0.0, 1.0])  # H0 per unit eps
    u_rot = np.exp(1j * (eps * t_final) * drift)[:, None] * u_lab
    u_rwa = rot_frame_propagator(reduce_coupling(ct), t_final)
    overlap = np.vdot(u_rot, u_rwa)
    phased = u_rwa * (np.conj(overlap) / abs(overlap))
    return float(np.linalg.norm(u_rot - phased)), u_rot, u_rwa


def test_lab_frame_rwa_check_matches_rotating_frame_formula():
    # Seeded generic tensors as rwa-scan draws them, at rwa-scan's
    # horizon gT = pi/8, with eps = 1.
    rng = np.random.default_rng(20090619)
    for _ in range(50):
        base = rng.uniform(0.2, 1.0, (3, 3)) * rng.choice([-1, 1], (3, 3))
        base /= np.max(np.abs(base))
        for g in (1e-1, 1e-2, 1e-3):
            ct = CouplingTensor(base * g)
            ref, u_rot, u_rwa = _rotating_frame_rwa_infidelity(
                ct, 1.0, math.pi / (8 * g))
            assert abs(rwa_infidelity(ct, 1.0, math.pi / (8 * g))
                       - ref) < 1e-12
            # The norm by vdot against np.linalg.norm, to a few ulps.
            assert math.isclose(distance(u_rot, u_rwa, True), ref,
                                rel_tol=1e-15)
            assert math.isclose(distance(u_rot, u_rwa),
                                np.linalg.norm(u_rot - u_rwa),
                                rel_tol=1e-15)


# Chamber edges and cell boundaries, exactly and within 1e-11 of them.
edge = st.sampled_from([0.0, -0.0, _QUARTER, -_QUARTER, _HALF, -_HALF,
                        3 * _QUARTER, -3 * _QUARTER, math.pi, -math.pi])
near_edge = st.builds(lambda e, s, d: e + s * d, edge,
                      st.sampled_from([-1.0, 1.0]),
                      st.floats(min_value=1e-16, max_value=1e-11))
weyl_coord = st.one_of(edge, near_edge, st.floats(min_value=-7, max_value=7),
                       st.floats(min_value=-1e300, max_value=1e300))


@settings(PROPERTY, max_examples=500)
@given(x=weyl_coord, y=weyl_coord, z=weyl_coord)
def test_weyl_canonicalize_is_bit_identical_to_numpy_moves(x, y, z):
    w = weyl_canonicalize(EntanglerCoords(x, y, z))
    assert (tuple(map(float.hex, (w.x, w.y, w.z)))
            == tuple(map(float.hex, _reference_weyl(x, y, z))))


# The eigenphase system as the magic basis gives it, +-1 to roundoff.
_ROUNDOFF_SYSTEM = np.hstack([-np.stack([
    np.real(np.diag(MAGIC_DAG @ PAULI_PAIRS[k, k] @ MAGIC))
    for k in range(3)], axis=1), np.ones((4, 1))])


def _reference_kak_angles(u) -> np.ndarray:
    """KAK's (x, y, z, phase): its own theta, then np.linalg.solve."""
    ub = MAGIC_DAG @ u @ MAGIC
    ub = 1.5 * ub - 0.5 * (ub @ (ub.conj().T @ ub))  # as KAK projects it
    basis, d = _joint_orthogonal_eigenbasis(ub.T @ ub)
    if np.linalg.det(basis) < 0:
        basis[:, 0] = -basis[:, 0]
    theta = np.angle(d) / 2
    if np.linalg.det((ub @ basis) * np.exp(-1j * theta)).real < 0:
        theta[0] += math.pi
    a = np.linalg.solve(_ROUNDOFF_SYSTEM, theta)
    return a - 2 * math.pi * np.ceil((a - math.pi) / (2 * math.pi))


def _reference_kron_factor_local(u) -> tuple:
    """Split a (x) b in SU(2) x SU(2) by its 2x2 blocks: block (i, j) is
    a[i, j] b; the block of largest norm, scaled to unit determinant,
    gives +-b, then a[i, j] = tr(b^dag block_ij) / 2, scaled likewise."""
    def det2(m):
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    blocks = u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    k = int(np.argmax(np.sum(np.abs(blocks) ** 2, axis=1)))
    b = blocks[k].reshape(2, 2)
    b = b / np.sqrt(det2(b))
    a = (blocks @ b.conj().ravel()).reshape(2, 2) / 2
    return a / np.sqrt(det2(a)), b


@PROPERTY
@given(a=local_factor, b=local_factor)
def test_so4_factors_match_block_split_up_to_common_sign(a, b):
    u = kron(a, b)
    got = _so4_pairs(_so4(u))
    ref = _reference_kron_factor_local(u)
    gap = min(max(_max_diff(g, s * r) for g, r in zip(got, ref))
              for s in (1, -1))
    assert gap < 1e-13


def _circle_gap(a: float, b: float) -> float:
    """|a - b| modulo 2 pi: the two sides may wrap a value at pi apart."""
    d = a - b
    return abs(d - 2 * math.pi * round(d / (2 * math.pi)))


seed = st.integers(min_value=0, max_value=2 ** 32 - 1)
kak_gate = st.one_of(
    seed.map(lambda s: haar_unitary(np.random.default_rng(s))),
    st.builds(lambda core, s: _dressed(s, core), core_gate, seed),
    seed.map(lambda s: _dressed(s, canonical_entangler(
        EntanglerCoords(_X_RETRY, _X_RETRY, 0.0)))))


@PROPERTY
@given(u=kak_gate)
def test_kak_angles_match_a_linear_solve(u):
    f = kak_decompose(u)
    got = (f.coords.x, f.coords.y, f.coords.z, f.phase)
    for a, b in zip(got, _reference_kak_angles(u)):
        assert _circle_gap(a, b) < 1e-15


def _haar_orthogonal(seed: int) -> np.ndarray:
    """A Haar-random element of O(4): det +1 or -1."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    return q * np.sign(np.diag(r))


@PROPERTY
@given(m=st.one_of(kak_gate, seed.map(_haar_orthogonal)))
def test_det4_matches_lu_determinant(m):
    assert abs(_det4(m.tolist()) - np.linalg.det(m)) < 1e-14


cell = st.floats(min_value=-math.pi, max_value=math.pi)


@PROPERTY
@given(x=cell, y=cell, z=cell)
def test_canonical_entangler_matches_magic_basis_form(x, y, z):
    ref = (MAGIC * np.exp(-1j * (GEN_DIAGS @ [x, y, z]))) @ MAGIC_DAG
    assert _max_diff(canonical_entangler(EntanglerCoords(x, y, z)),
                     ref) < 1e-15


# ------------------------------------------------------------ CLI fuzz --
_EXIT_DOC = cli.__doc__.split("Exit codes:")[1].split("\n\n")[0]
DOCUMENTED = {0} | {int(c) for c in re.findall(r"\b(\d+)\s+[a-zA-Z]",
                                                _EXIT_DOC)}

number = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.sampled_from([0.0, -0.0, 1e-320, 1e308, 1.7, 1, 2, 3]))
junk = st.recursive(
    st.none() | st.booleans() | number | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
value = st.one_of(number, junk)

reduced = st.fixed_dictionaries(
    {}, optional={"J": value, "Jzz": value, "Jprime": value, "J'": value})
tensor = st.fixed_dictionaries(
    {f"J{a}{b}": value for a in "xyz" for b in "xyz"},
    optional={"unit": value})
coupling_json = st.one_of(reduced, tensor, junk)

op_json = st.fixed_dictionaries(
    {"op": st.sampled_from(["rotate", "entangle", "phase", "measure"])},
    optional={"axis": st.sampled_from(["x", "y", "z", "w"]) | junk,
              "angle": value, "qubit": value, "duration": value})
op_list = st.lists(op_json, max_size=4)
compile_result = st.fixed_dictionaries(
    {"schedule": op_list | junk, "params": reduced | junk},
    optional={"target": st.sampled_from(["CNOT", "C(1e999)"]) | junk})
schedule_json = st.one_of(op_list, compile_result, junk)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(coupling=coupling_json, schedule=schedule_json,
       command=st.sampled_from(["compile", "simulate", "trajectory"]))
def test_cli_on_fuzzed_json_exits_with_documented_code(
        fuzz_dir, coupling, schedule, command):
    cpl, sched = fuzz_dir / "coupling.json", fuzz_dir / "schedule.json"
    cpl.write_text(json.dumps(coupling))
    sched.write_text(json.dumps(schedule))
    args = {"compile": ["compile", "--input", str(cpl)],
            "simulate": ["simulate", "--input", str(sched),
                         "--coupling", str(cpl)],
            "trajectory": ["trajectory", "--coupling", str(cpl),
                           "--schedule", str(sched), "--samples", "2"],
            }[command]
    result = CliRunner().invoke(cli.main, args)
    assert result.exit_code in DOCUMENTED
    assert result.exception is None or isinstance(result.exception,
                                                  SystemExit), result.output
