import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from qgd import equivalence
from qgd.compiler import CNOT, _ROT, compile_cnot, named_gate
from qgd.entangler import EntanglerCoords, canonical_entangler
from qgd.equivalence import makhlin_invariants
from qgd.errors import NotUnitary, UnsupportedOp
from qgd.hamiltonian import RotFrameParams
from qgd.pulses import (Entangle, GlobalPhase, PulseSchedule, Rotate,
                        Trajectory, _rotation_entries, simulate_schedule,
                        trajectory, verify_schedule)
from qgd.qmat import I2, SX, SY, SZ, _ID_W, _step, distance

from conftest import expm_h, haar_unitary, random_su2

PI = math.pi
PAULI = {"x": SX, "y": SY, "z": SZ}
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def reference_rotation(axis, angle):
    """R_axis(angle) = e^{-i angle sigma^axis / 2} by the eigensolver."""
    return expm_h(PAULI[axis] / 2, angle)


def kron_entries(a, b):
    """a (x) b of 2x2 entries, qubit 1's a on the left, as nested lists
    of the Python-scalar products a[2r + c] * b[2s + d]."""
    return [[a[2 * r + c] * b[2 * s + d] for c in (0, 1) for d in (0, 1)]
            for r in (0, 1) for s in (0, 1)]


def simulate_ops(*ops):
    """simulate_schedule of ops alone: with no Entangle the couplings
    play no part."""
    return simulate_schedule(PulseSchedule(ops), RotFrameParams(1, 0, 0))


def hadamard_ops(qubit):
    """Hadamard as pulse ops (application order): i Rx(pi) Ry(pi/2)."""
    return (Rotate("y", PI / 2, qubit), Rotate("x", PI, qubit),
            GlobalPhase(PI / 2))


class TestRotationMatrix:
    """simulate_schedule's rotations against the eigensolver reference."""

    def test_hadamard_identity(self):
        had = (1j * reference_rotation("x", PI)
               @ reference_rotation("y", PI / 2))
        assert np.max(np.abs(had - HADAMARD)) < 1e-12
        for qubit, embedded in ((1, np.kron(HADAMARD, I2)),
                                (2, np.kron(I2, HADAMARD))):
            u = simulate_ops(*hadamard_ops(qubit))
            assert np.max(np.abs(u - embedded)) < 1e-12

    def test_full_turn_is_minus_identity(self):
        assert np.allclose(reference_rotation("z", 2 * PI), -I2, atol=1e-14)
        for qubit in (1, 2):
            assert np.allclose(simulate_ops(Rotate("z", 2 * PI, qubit)),
                               -np.eye(4), atol=1e-14)

    def test_embedding(self):
        for axis in ("x", "y", "z"):
            r = reference_rotation(axis, 0.4)
            assert np.allclose(simulate_ops(Rotate(axis, 0.4, 1)),
                               np.kron(r, I2), atol=1e-14)
            assert np.allclose(simulate_ops(Rotate(axis, 0.4, 2)),
                               np.kron(I2, r), atol=1e-14)

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            Rotate("w", 1.0, 1)
        with pytest.raises(ValueError):
            Rotate("x", 1.0, 3)

    @pytest.mark.parametrize("qubit", [1.7, 1.0, True, "1", np.float32(1.0),
                                       [1], None])
    def test_non_integer_qubit_rejected(self, qubit):
        with pytest.raises(ValueError):
            Rotate("x", 1.0, qubit)

    @pytest.mark.parametrize("bad", [
        math.nan, math.inf, -math.inf, "abc", "1.0", None, [1.0], 1j,
        pytest.param(10 ** 400, id="int_beyond_float")])
    def test_non_finite_values_rejected(self, bad):
        for make in (lambda: Rotate("x", bad, 1), lambda: Entangle(bad),
                     lambda: GlobalPhase(bad)):
            with pytest.raises(ValueError):
                make()


class TestSchedule:
    def test_empty_is_identity(self):
        u = simulate_schedule(PulseSchedule(()), RotFrameParams(1, 0, 0))
        assert np.allclose(u, np.eye(4))

    def test_concat_associativity(self, rng):
        p = RotFrameParams(0.8, -0.3, 0.1)
        s1 = PulseSchedule((Rotate("x", 0.3, 1), Entangle(0.5)))
        s2 = PulseSchedule((GlobalPhase(0.2), Rotate("z", -1.1, 2),
                            Entangle(0.25)))
        u = simulate_schedule(PulseSchedule(s1.ops + s2.ops), p)
        split = simulate_schedule(s2, p) @ simulate_schedule(s1, p)
        assert distance(u, split) < 1e-13

    @pytest.mark.parametrize("ops", [
        {Entangle(0.3), Rotate("x", 1.0, 1), Rotate("y", 0.5, 2)},
        frozenset({Entangle(0.3)}), {}, {Entangle(0.3): 1}, "", "xy"],
        ids=["set", "frozenset", "empty_dict", "dict", "empty_str", "str"])
    def test_unordered_or_text_ops_refused(self, ops):
        # A set would be stored in hash order, which varies between
        # interpreter runs; a mapping or a string is no op sequence.
        with pytest.raises(ValueError, match="ordered sequence, not a"):
            PulseSchedule(ops)

    def test_lists_tuples_and_iterators_keep_their_order(self):
        ops = [Entangle(0.3), Rotate("x", 1.0, 1), Rotate("y", 0.5, 2)]
        for source in (ops, tuple(ops), iter(ops), (op for op in ops)):
            assert PulseSchedule(source).ops == tuple(ops)

    def test_total_entangling_time(self):
        s = PulseSchedule((Entangle(0.5), Rotate("x", PI, 1), Entangle(0.25)))
        assert s.total_entangling_time == 0.75

    def test_json_round_trip(self):
        s = PulseSchedule((Rotate("x", 1.5707963, 1), Entangle(0.3926991),
                           GlobalPhase(2.3561945)))
        again = PulseSchedule.from_json(s.to_json())
        assert again == s

    def test_json_rejects_unknown_op(self):
        with pytest.raises(UnsupportedOp):
            PulseSchedule.from_json([{"op": "measure"}])

    @pytest.mark.parametrize("kind", [["x"], None, 3, "Rotate"])
    def test_json_rejects_non_name_op(self, kind):
        with pytest.raises(UnsupportedOp):
            PulseSchedule.from_json([{"op": kind}])

    @pytest.mark.parametrize("bad", [
        {"op": "entangle", "duration": 0.5},   # an object, not a list
        [["entangle", 0.5]],                   # an op that is not an object
        [{"op": "rotate", "axis": "x"}],       # missing keys
        [{"op": "entangle", "duration": None}],
    ])
    def test_json_rejects_bad_shapes(self, bad):
        with pytest.raises(ValueError):
            PulseSchedule.from_json(bad)

    def test_pretty_is_right_to_left(self):
        s = PulseSchedule((Rotate("y", PI / 2, 1), Entangle(0.5)))
        text = s.pretty()
        assert text.index("E(") < text.index("Ry(")


class TestOpSet:
    """PulseSchedule holds Rotate, Entangle and GlobalPhase ops only, and
    each op's numbers as Python floats."""

    SCHEDULE = PulseSchedule((Rotate("y", PI / 2, 1), Entangle(0.125),
                              GlobalPhase(-PI / 4)))

    def test_pretty_golden(self):
        assert (self.SCHEDULE.pretty()
                == "e^(i-0.7854) E(0.1250) Ry(+1.5708)_1")

    def test_to_json_golden(self):
        assert json.dumps(self.SCHEDULE.to_json()) == (
            '[{"op": "rotate", "axis": "y", "angle": 1.5707963267948966, '
            '"qubit": 1}, {"op": "entangle", "duration": 0.125}, '
            '{"op": "phase", "angle": -0.7853981633974483}]')

    def test_negative_zero_is_stored_as_zero(self):
        # No -0.0 reaches the JSON or text form, and the op simulates as
        # the one built from 0.0, to the byte.
        ops = (Rotate("x", -0.0, 1), Rotate("z", -0.0, 2), Entangle(-0.0),
               GlobalPhase(-0.0))
        zero = PulseSchedule((Rotate("x", 0.0, 1), Rotate("z", 0.0, 2),
                              Entangle(0.0), GlobalPhase(0.0)))
        s = PulseSchedule.from_json(json.loads(json.dumps(
            PulseSchedule(ops).to_json())))
        p = RotFrameParams(0.9, -0.4, 0.3)
        for sched in (PulseSchedule(ops), s):
            assert "-0.0" not in json.dumps(sched.to_json())
            assert "-0.0" not in sched.pretty()
            assert (simulate_schedule(sched, p).tobytes()
                    == simulate_schedule(zero, p).tobytes())

    @pytest.mark.parametrize("op", ["junk", 1.5, None, Entangle])
    def test_foreign_op_rejected(self, op):
        with pytest.raises(UnsupportedOp):
            PulseSchedule((Entangle(0.5), op))

    def test_numpy_numbers_stored_as_python(self):
        s = PulseSchedule((Rotate("x", np.float32(0.5), np.int64(2)),
                           Entangle(np.float32(0.25)),
                           GlobalPhase(np.float64(1.0))))
        rot = s.ops[0]
        assert type(rot.angle) is float and type(rot.qubit) is int
        assert type(s.ops[1].duration) is float
        assert type(s.ops[2].angle) is float
        again = PulseSchedule.from_json(json.loads(json.dumps(s.to_json())))
        assert again == s

    def test_rotate_entries_are_no_field(self):
        # Computed once when built; asdict, JSON, ==, hash and repr see
        # only axis, angle and qubit, and a pickle keeps the entries.
        op = Rotate("y", 0.7, 2)
        assert op._entries == _rotation_entries("y", 0.7)
        assert dataclasses.asdict(op) == {"axis": "y", "angle": 0.7,
                                          "qubit": 2}
        assert PulseSchedule((op,)).to_json() == [
            {"op": "rotate", "axis": "y", "angle": 0.7, "qubit": 2}]
        assert repr(op) == "Rotate(axis='y', angle=0.7, qubit=2)"
        twin = Rotate("y", 0.7, 2)
        assert op == twin and hash(op) == hash(twin)
        back = pickle.loads(pickle.dumps(op))
        assert back == op and back._entries == op._entries
        turned = dataclasses.replace(op, angle=-1.9)
        assert turned._entries == _rotation_entries("y", -1.9)
        assert turned != op


class TestLayer:
    """qmat._step with the identity's entries _ID_W is a (x) b: it forms
    the layer after the last interval and each trajectory frame."""

    @staticmethod
    def check(a, b):
        layer = _step(_ID_W, a, b)
        assert layer.tolist() == kron_entries(a, b)
        # numpy's complex product rounds differently, by a few 1e-16.
        ref = np.kron(np.reshape(a, (2, 2)), np.reshape(b, (2, 2)))
        assert np.max(np.abs(layer - ref)) < 1e-15

    def test_random_su2_pairs(self, rng):
        for _ in range(500):
            self.check(random_su2(rng).ravel().tolist(),
                       random_su2(rng).ravel().tolist())

    def test_every_pair_of_compiler_pulses(self):
        for r in _ROT.values():
            for s in _ROT.values():
                self.check(r._entries, s._entries)


class TestReferenceSequences:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_ising_sequence(self, sign):
        # CNOT = e^{-+i pi/4} H_2 Rz(-+pi/2)_1 Rz(-+pi/2)_2 A(0,0,+-pi/4) H_2
        p = RotFrameParams(0.0, sign * 1.0, 0.0)
        ops = (
            *hadamard_ops(2),
            Entangle(PI / 4),
            Rotate("z", -sign * PI / 2, 2),
            Rotate("z", -sign * PI / 2, 1),
            *hadamard_ops(2),
            GlobalPhase(-sign * PI / 4),
        )
        u = simulate_schedule(PulseSchedule(ops), p)
        assert distance(u, CNOT) < 1e-10


SIGMAS = np.array([SX, SY, SZ])


def toggling_reference(p, s, samples):
    """The path by the SO(3) toggling frame: the pulses of qubit q since
    the first interval, qubit 2's first turned by phi about z (p.fold),
    have the 3x3 rotation O_q[a, b] = tr(sigma^a m sigma^b m^dag) / 2, and
    an interval advances (x, y, z) at the diagonal of O_1^T T O_2, T the
    rotating-frame tensor, which must be diagonal."""
    def so3(m):
        return np.einsum("aij,jk,bkl,li->ab", SIGMAS, m, SIGMAS,
                         m.conj().T).real / 2

    tensor = np.array([[p.j, p.j_prime, 0.0], [-p.j_prime, p.j, 0.0],
                       [0.0, 0.0, p.j_zz]])
    frames = {1: I2, 2: reference_rotation("z", p.fold[1])}
    times, points = [0.0], [np.zeros(3)]
    for op in s.ops:
        if isinstance(op, Rotate) and len(times) > 1:
            frames[op.qubit] = (reference_rotation(op.axis, op.angle)
                                @ frames[op.qubit])
        elif isinstance(op, Entangle) and op.duration:
            toggled = so3(frames[1]).T @ tensor @ so3(frames[2])
            rates = np.diag(toggled)
            assert np.allclose(toggled, np.diag(rates), rtol=0, atol=1e-12)
            t0, r0 = times[-1], points[-1]
            for k in range(1, samples + 1):
                dt = op.duration * k / samples
                times.append(t0 + dt)
                points.append(r0 + rates * dt)
    return np.array(times), np.array(points)


class TestTrajectory:
    # Drawn under one coupling with J < 0 and J' != 0; compiled, with the
    # refocusing pulse on qubit 1, on the couplings that pick each branch,
    # the ZZ frame with either sign of J_zz. Its echo pulses qubit 2, so
    # its couplings share DRAWN's fold angle. (A pulse on qubit 2 between
    # intervals folded at another angle, such as the J' = 0 two-shot
    # schedule's on qubit 2, turns this coupling off diagonal.)
    DRAWN = RotFrameParams(-0.9, 0.35, 0.6)

    @pytest.mark.parametrize("branch,params", [
        ("zz_refocus", RotFrameParams(-0.6, -1.5, 0.4)),
        ("zz_refocus", RotFrameParams(-0.3, 1.1, 0.2)),
        ("two_shot_refocus", RotFrameParams(-1.0, 0.4, 0.0)),
        ("general_jprime", DRAWN),
        ("xy_single_shot_swapcnot", RotFrameParams(-0.7, 0.0, 0.0)),
    ])
    @pytest.mark.parametrize("samples", [1, 5])
    def test_raw_matches_the_so3_toggling_frame(self, branch, params,
                                                samples):
        res = compile_cnot(params)
        assert res.branch == branch
        traj = trajectory(self.DRAWN, res.schedule,
                          samples_per_interval=samples)
        times, raw = toggling_reference(self.DRAWN, res.schedule, samples)
        assert np.array_equal(traj.times, times)
        area = math.hypot(0.9, 0.6) * res.schedule.total_entangling_time
        assert np.max(np.abs(traj.raw - raw)) <= 1e-15 * area

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("params", [
        (0.0, 1.2, 0.0), (-0.0, -0.7, 0.0), (0.3, -1.1, -0.5),
        (-0.2, 0.9, 0.0), (0.0, 1.0, 0.6)])
    def test_zz_frame_drawn_under_its_own_coupling(self, params, q):
        # Every ZZ-frame schedule, r = 0 included: the echo flips the XY
        # area of the first interval back, and J_zz's lands on
        # (0, 0, +-pi/4), CNOT's class.
        p = RotFrameParams(*params)
        res = compile_cnot(p, refocus_qubit=q)
        assert res.branch == "zz_refocus"
        traj = trajectory(p, res.schedule, samples_per_interval=3)
        times, raw = toggling_reference(p, res.schedule, 3)
        assert np.array_equal(traj.times, times)
        assert np.max(np.abs(traj.raw - raw)) <= 1e-15
        end = (0.0, 0.0, math.copysign(PI / 4, p.j_zz))
        assert np.max(np.abs(traj.raw[-1] - end)) <= 1e-15

    @pytest.mark.parametrize("times,raw", [
        ([], np.zeros((0, 3))),
        ([0.0], [[0.0, 0.0]]),
        ([0.0], [0.0, 0.0, 0.0]),
        ([0.0, 1.0], np.zeros((2, 4))),
    ])
    def test_malformed_raw_refused(self, times, raw):
        # Refused when built, not by a bare IndexError or TypeError from
        # endpoint later.
        with pytest.raises(ValueError, match=r"is not \(N >= 1, 3\)"):
            Trajectory(times=times, raw=raw)

    @pytest.mark.parametrize("times,raw", [
        ([0.0, math.nan], [[0, 0, 0], [1, 1, 1]]),
        ([0.0, math.inf], [[0, 0, 0], [1, 1, 1]]),
        ([0.0, 1.0], [[0, 0, 0], [math.inf, math.nan, 1]]),
        ([0.0, 1.0], [[0, 0, 0], [0, -math.inf, 0]]),
    ])
    def test_non_finite_values_refused(self, times, raw):
        # Refused when built, not by a RuntimeWarning from to_csv later.
        with pytest.raises(ValueError, match="must be finite"):
            Trajectory(times=times, raw=raw)

    @pytest.mark.parametrize("times", [[], [0.0, 1.0], [[0.0]]])
    def test_times_not_one_per_point_refused(self, times):
        with pytest.raises(ValueError, match="length mismatch"):
            Trajectory(times=times, raw=np.zeros((1, 3)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("times,raw", [
        (None, object()), (None, np.zeros((1, 3))), ([0.0], None),
        ([0.0], object()), (["0"], np.zeros((1, 3))), ([0.0], [["0"] * 3]),
        ([0j], np.zeros((1, 3))), ([0.0], np.zeros((1, 3), dtype=complex)),
        ([0.0, 1.0], [[0, 0, 0], [1, 1]])])
    def test_non_numeric_values_refused(self, times, raw):
        # Before, None and objects raised a bare TypeError, complex values
        # lost their imaginary part with a ComplexWarning, and strings of
        # digits were read as numbers.
        with pytest.raises(ValueError, match="real trajectory matrix"):
            Trajectory(times=times, raw=raw)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p,duration", [
        (RotFrameParams(1e300, 0.0, 0.0), 1e300),
        (RotFrameParams(0.0, -1e300, 0.0), 1e300),
        (RotFrameParams(1.0, 0.0, 0.0), 1e308),  # two intervals sum to inf
    ])
    def test_overflowing_area_rejected(self, p, duration):
        s = PulseSchedule((Entangle(duration), Rotate("x", PI, 1),
                           Entangle(duration)))
        with pytest.raises(ValueError, match="entangling area"):
            trajectory(p, s, samples_per_interval=1)

    @pytest.mark.parametrize("first,short,samples", [
        (1.0, 1e-20, 2),      # the interval itself is below an ulp of t
        (1.0, 3e-16, 32),     # above an ulp, but each sample step is not
        (1e10, 1e-7, 1),
    ])
    def test_interval_below_time_resolution_is_named(self, first, short,
                                                     samples):
        s = PulseSchedule((Entangle(first), Rotate("x", PI, 1),
                           Entangle(short)))
        message = (f"schedule op 2, Entangle(duration={short!r}): duration "
                   f"{short!r} over {samples} samples is below the float "
                   f"resolution of the time {first!r} and does not advance "
                   "it")
        with pytest.raises(ValueError) as info:
            trajectory(RotFrameParams(1.0, 0.0, 0.0), s,
                       samples_per_interval=samples)
        assert str(info.value) == message

    def test_short_interval_at_time_zero_is_drawn(self):
        # At t = 0 every positive step advances the time.
        s = PulseSchedule((Entangle(1e-300), Entangle(1.0)))
        traj = trajectory(RotFrameParams(1.0, 0.0, 0.0), s,
                          samples_per_interval=4)
        assert len(traj.times) == 9 and traj.times[1] > 0

    def test_straight_line_in_xy_plane(self):
        g, t = 0.7, 1.1
        p = RotFrameParams(g, g, 0.0)
        traj = trajectory(p, PulseSchedule((Entangle(t),)),
                          samples_per_interval=10)
        assert np.allclose(traj.raw[-1], [g * t, g * t, g * t])
        assert np.allclose(traj.raw[:, 0], traj.raw[:, 1])

    def test_refocused_two_shot_endpoint(self, rng):
        g = 1.0
        jzz = rng.uniform(-1, 1)
        p = RotFrameParams(g, jzz, 0.0)
        dt = PI / (8 * g)
        sched = PulseSchedule((Entangle(dt), Rotate("x", PI, 1), Entangle(dt)))
        traj = trajectory(p, sched)
        assert np.allclose(traj.raw[-1], [PI / 4, 0, 0], atol=1e-12)

    def test_empty_schedule(self):
        traj = trajectory(RotFrameParams(1, 0, 0), PulseSchedule(()))
        assert len(traj.times) == 1
        assert traj.times[0] == 0.0
        assert np.array_equal(traj.raw[0], np.zeros(3))

    def test_endpoint_matches_full_simulation_class(self, rng):
        p = RotFrameParams(0.9, -0.4, 0.0)
        sched = PulseSchedule((Entangle(0.31), Rotate("x", PI, 2),
                               Entangle(0.52), Rotate("y", PI, 1),
                               Entangle(0.17)))
        traj = trajectory(p, sched)
        a = canonical_entangler(EntanglerCoords(*traj.raw[-1]))
        u = simulate_schedule(sched, p)
        gu = makhlin_invariants(u)
        ga = makhlin_invariants(a)
        assert abs(gu.g1 - ga.g1) + abs(gu.g2 - ga.g2) < 1e-9

    @pytest.mark.parametrize("samples", [0, -1, 2.5, "3", None, True])
    def test_rejects_fewer_than_one_sample(self, samples):
        # Exactly an integer of at least 1: no float, string, None or bool.
        with pytest.raises(ValueError, match="samples_per_interval"):
            trajectory(RotFrameParams(1, 0, 0),
                       PulseSchedule((Entangle(0.5),)),
                       samples_per_interval=samples)

    def test_numpy_integer_samples_accepted(self):
        sched = PulseSchedule((Entangle(0.5),))
        traj = trajectory(RotFrameParams(1, 0, 0), sched,
                          samples_per_interval=np.int64(3))
        again = trajectory(RotFrameParams(1, 0, 0), sched,
                           samples_per_interval=3)
        assert np.array_equal(traj.times, again.times)
        assert np.array_equal(traj.raw, again.raw)

    def test_rejects_non_refocusing_rotation(self):
        # Rx(pi/2)_1 between two intervals turns YY into YZ; before the
        # first interval it only dresses the path.
        sched = PulseSchedule((Entangle(0.3), Rotate("x", PI / 2, 1),
                               Entangle(0.3)))
        with pytest.raises(UnsupportedOp, match="op 2"):
            trajectory(RotFrameParams(1, 0, 0), sched)
        traj = trajectory(RotFrameParams(1, 0, 0),
                          PulseSchedule(sched.ops[1:]))
        assert np.allclose(traj.raw[-1], [0.3, 0.3, 0.0])

    def test_phase_ops_ignored(self):
        traj = trajectory(RotFrameParams(1, 0, 0),
                          PulseSchedule((GlobalPhase(0.4), Entangle(0.5))))
        assert np.allclose(traj.raw[-1], [0.5, 0.5, 0.0])

    def test_csv_format(self):
        traj = trajectory(RotFrameParams(1.0, 1.0, 0.0),
                          PulseSchedule((Entangle(0.2),)),
                          samples_per_interval=2)
        lines = traj.to_csv().strip().split("\n")
        assert lines[0] == "t,x,y,z"
        assert len(lines) == 4
        assert lines[1] == "0,0,0,0"


class TestVerifySchedule:
    def test_exact_pass(self):
        p = RotFrameParams(0.0, 1.0, 0.0)
        ops = (
            *hadamard_ops(2),
            Entangle(PI / 4),
            Rotate("z", -PI / 2, 2),
            Rotate("z", -PI / 2, 1),
            *hadamard_ops(2),
            GlobalPhase(-PI / 4),
        )
        rep = verify_schedule(PulseSchedule(ops), p, CNOT, mode="exact",
                              target_name="CNOT")
        assert rep.passed and rep.pass_exact and rep.pass_class
        assert rep.total_entangling_time == PI / 4

    def test_wrong_duration_fails_class(self):
        p = RotFrameParams(0.0, 1.0, 0.0)
        rep = verify_schedule(PulseSchedule((Entangle(0.123),)), p, CNOT,
                              mode="local_class")
        assert not rep.passed
        assert rep.invariant_distance > 1e-3

    def test_swap_class_single_shot(self):
        from qgd.compiler import SWAP
        p = RotFrameParams(1.0, 1.0, 0.0)
        rep = verify_schedule(PulseSchedule((Entangle(PI / 4),)), p, SWAP,
                              mode="local_class")
        assert rep.passed
        assert not rep.pass_exact

    def test_pass_exact_implies_pass_class(self, rng):
        p = RotFrameParams(*rng.normal(size=3))
        sched = PulseSchedule((Rotate("x", 0.3, 1), Entangle(0.4)))
        target = simulate_schedule(sched, p)
        rep = verify_schedule(sched, p, target, mode="exact")
        assert rep.pass_exact and rep.pass_exact_up_to_phase and rep.pass_class

    @pytest.mark.parametrize("j_zz", [1.0, -1.0, -0.7])
    def test_phase_offset_passes_exact_up_to_phase(self, j_zz):
        # The Ising CNOT schedule with an extra GlobalPhase(0.3): the
        # phase-insensitive distance must sit at roundoff, far below the
        # default tolerance of 1e-9 (sqrt(2n - 2|tr|) read ~3e-8 here).
        p = RotFrameParams(0.0, j_zz, 0.0)
        sched = compile_cnot(p).schedule
        rep = verify_schedule(PulseSchedule(sched.ops + (GlobalPhase(0.3),)),
                              p, CNOT, mode="exact_up_to_phase")
        assert rep.passed and not rep.pass_exact
        assert rep.phase_distance < 1e-12

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0, "1"])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            verify_schedule(PulseSchedule(()), RotFrameParams(1, 0, 0),
                            np.eye(4), tol=tol)

    def test_report_holds_python_scalars(self):
        rep = verify_schedule(PulseSchedule(()), RotFrameParams(1, 0, 0),
                              np.eye(4), tol=np.float64(1e-9))
        assert rep.passed
        assert {type(v) for v in rep.to_dict().values()} == {str, float, bool}

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            verify_schedule(PulseSchedule(()), RotFrameParams(1, 0, 0),
                            CNOT, mode="sloppy")


class TestTargetMemo:
    """verify_schedule checks each distinct target content once."""

    MEMOS = (equivalence._invariants,)
    SCHEDULE = PulseSchedule((Rotate("x", 0.3, 1), Entangle(0.4)))
    PARAMS = RotFrameParams(0.8, -0.3, 0.1)

    def test_target_mutated_in_place_is_checked_again(self):
        target = CNOT.copy()
        verify_schedule(self.SCHEDULE, self.PARAMS, target)
        target[0, 0] = 2.0
        with pytest.raises(NotUnitary):
            verify_schedule(self.SCHEDULE, self.PARAMS, target)

    @pytest.mark.parametrize("target", [
        np.eye(3), [[1, 0, 0, 0], [0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        np.eye(4)[None]])
    def test_bad_shape_raises_on_every_call(self, target):
        for _ in range(3):
            with pytest.raises(ValueError, match="expected a 4x4 matrix"):
                verify_schedule(self.SCHEDULE, self.PARAMS, target)

    def test_failed_check_is_not_memoized(self):
        for _ in range(3):
            with pytest.raises(NotUnitary):
                verify_schedule(self.SCHEDULE, self.PARAMS, 2 * CNOT)

    def test_memo_stays_at_its_bound(self, rng):
        for _ in range(100):
            verify_schedule(self.SCHEDULE, self.PARAMS, haar_unitary(rng))
        for memo in self.MEMOS:
            info = memo.cache_info()
            assert info.currsize == info.maxsize == equivalence._MEMO_SIZE

    @pytest.mark.parametrize("name,params", [
        ("CNOT", RotFrameParams(0.8, -0.3, 1.1)),
        ("SWAP_CNOT", RotFrameParams(-1.3, 0.0, 0.0))])
    def test_cold_and_warm_reports_agree(self, name, params):
        # compile_cnot checked its targets at import: compiling neither
        # reads nor fills the memo.
        for memo in self.MEMOS:
            memo.cache_clear()
        before = equivalence._invariants.cache_info()
        cold = compile_cnot(params)
        warm = compile_cnot(params)
        assert cold.target_name == name
        assert equivalence._invariants.cache_info() == before
        assert warm.verification == cold.verification
        assert warm.verification.to_dict() == cold.verification.to_dict()
        for mode in ("exact_up_to_phase", "local_class"):
            assert (verify_schedule(cold.schedule, params, named_gate(name),
                                    mode=mode)
                    == verify_schedule(cold.schedule, params,
                                       named_gate(name).tolist(), mode=mode))


def random_schedule(rng, n_ops=6):
    ops = []
    for kind in rng.integers(0, 3, size=n_ops):
        if kind == 0:
            ops.append(Rotate(str(rng.choice(["x", "y", "z"])),
                              float(rng.normal() * 3),
                              int(rng.integers(1, 3))))
        elif kind == 1:
            ops.append(Entangle(float(rng.uniform(0, 3))))
        else:
            ops.append(GlobalPhase(float(rng.normal())))
    return PulseSchedule(tuple(ops))


class TestVerificationDistances:
    """verify_schedule skips the checks on its own simulated product; its
    distances are still those of the public functions, and it leaves no
    memo entry behind."""

    @pytest.mark.parametrize("mode",
                             ["exact", "exact_up_to_phase", "local_class"])
    def test_match_the_public_functions_bit_for_bit(self, rng, mode):
        for k in range(60):
            sched = random_schedule(rng)
            p = RotFrameParams(*map(float, rng.normal(size=3)))
            target = (haar_unitary(rng) if k % 2
                      else simulate_schedule(sched, p))
            rep = verify_schedule(sched, p, target, mode=mode)
            u = simulate_schedule(sched, p)
            assert rep.exact_distance.hex() == distance(u, target).hex()
            assert (rep.phase_distance.hex()
                    == distance(u, target, up_to_global_phase=True).hex())
            assert (rep.invariant_distance.hex()
                    == makhlin_invariants(u).distance(
                        makhlin_invariants(target)).hex())

    def test_simulated_products_are_not_memoized(self, rng):
        memo = equivalence._invariants
        memo.cache_clear()
        p = RotFrameParams(0.8, -0.3, 0.1)
        verify_schedule(random_schedule(rng), p, CNOT)
        before = memo.cache_info()
        for _ in range(50):
            verify_schedule(random_schedule(rng), p, CNOT)
        after = memo.cache_info()
        assert after.currsize == before.currsize == 1
        assert after.misses == before.misses
        assert after.hits == before.hits + 50
