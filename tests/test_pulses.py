import json
import math

import numpy as np
import pytest

from qgd import pulses
from qgd.compiler import CNOT, compile_cnot, named_gate
from qgd.errors import NotUnitary, UnsupportedOp
from qgd.hamiltonian import RotFrameParams
from qgd.pulses import (Entangle, GlobalPhase, PulseSchedule, Rotate,
                        simulate_schedule, trajectory, verify_schedule)
from qgd.qmat import I2, PAULI, distance, expm_hermitian

from conftest import haar_unitary

PI = math.pi
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def reference_rotation(axis, angle):
    """R_axis(angle) = e^{-i angle sigma^axis / 2} by the eigensolver."""
    return expm_hermitian(PAULI[axis] / 2, angle)


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


class TestTrajectory:
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

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            verify_schedule(PulseSchedule(()), RotFrameParams(1, 0, 0),
                            CNOT, mode="sloppy")


class TestTargetMemo:
    """verify_schedule checks each distinct target content once."""

    MEMOS = (pulses._checked_target, pulses._target_invariants)
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
            assert info.currsize == info.maxsize == pulses._TARGET_MEMO_SIZE

    def test_memoized_target_is_read_only(self):
        verify_schedule(self.SCHEDULE, self.PARAMS, CNOT)
        kept = pulses._checked_target(CNOT.tobytes())
        assert not kept.flags.writeable
        assert np.array_equal(kept, CNOT)

    @pytest.mark.parametrize("name,params", [
        ("CNOT", RotFrameParams(0.8, -0.3, 1.1)),
        ("SWAP_CNOT", RotFrameParams(-1.3, 0.0, 0.0))])
    def test_cold_and_warm_reports_agree(self, name, params):
        for memo in self.MEMOS:
            memo.cache_clear()
        cold = compile_cnot(params)
        warm = compile_cnot(params)
        assert cold.target_name == name
        assert pulses._checked_target.cache_info().hits >= 1
        assert warm.verification == cold.verification
        assert warm.verification.to_dict() == cold.verification.to_dict()
        for mode in ("exact_up_to_phase", "local_class"):
            assert (verify_schedule(cold.schedule, params, named_gate(name),
                                    mode=mode)
                    == verify_schedule(cold.schedule, params,
                                       named_gate(name).tolist(), mode=mode))
