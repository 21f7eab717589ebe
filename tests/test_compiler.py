import itertools
import math

import numpy as np
import pytest

from qgd import compiler
from qgd.compiler import (_ROT, CNOT, CZ, SWAP, compile_cnot,
                          controlled_phase, named_gate)
from qgd.errors import UnknownGate, VerificationFailed, ZeroCoupling
from qgd.hamiltonian import RotFrameParams, rot_frame_matrix
from qgd.equivalence import makhlin_invariants
from qgd.pulses import (Entangle, GlobalPhase, Rotate, simulate_schedule,
                        verify_schedule)
from qgd.qmat import distance

PI = math.pi


class TestNamedGate:
    def test_cnot_matrix(self):
        assert np.array_equal(named_gate("CNOT"),
                              np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 0, 1], [0, 0, 1, 0]]))

    def test_swap_matrix(self):
        assert np.array_equal(named_gate("SWAP"),
                              np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                                        [0, 1, 0, 0], [0, 0, 0, 1]]))

    def test_c_pi_is_cz(self):
        assert distance(named_gate("Ctheta(3.141592653589793)"), CZ) < 1e-12
        assert distance(controlled_phase(PI), CZ) < 1e-12

    def test_composites(self):
        assert np.array_equal(named_gate("SWAP_CNOT"), SWAP @ CNOT)
        assert np.array_equal(named_gate("CNOT_SWAP"), CNOT @ SWAP)

    @pytest.mark.parametrize("name,canonical", [
        ("ctheta(0.5)", "Ctheta(0.5)"), ("CTHETA(0.5)", "Ctheta(0.5)"),
        ("c(0.5)", "C(0.5)"), (" cTheta(+5E-1) ", "C(0.5)"),
        ("cnot", "CNOT"), ("Swap_Cnot", "SWAP_CNOT")])
    def test_names_ignore_case(self, name, canonical):
        assert np.array_equal(named_gate(name), named_gate(canonical))

    def test_unknown_rejected(self):
        with pytest.raises(UnknownGate):
            named_gate("TOFFOLI")

    @pytest.mark.parametrize("name", ["C(1e999)", "Ctheta(-1e999)",
                                      "C(nan)", "C(inf)"])
    def test_non_finite_angle_rejected(self, name):
        with pytest.raises(UnknownGate):
            named_gate(name)

    @pytest.mark.parametrize("name", ["C(1.2.3)", "C(--1)", "C(.)", "C(e)"])
    def test_unparsable_angle_rejected(self, name):
        with pytest.raises(UnknownGate):
            named_gate(name)

    @pytest.mark.parametrize("name", [5, ["CNOT"], None])
    def test_non_string_name_rejected(self, name):
        with pytest.raises(UnknownGate):
            named_gate(name)


class TestCompileBranches:
    def test_ising_is_the_zz_frame_at_r_zero(self):
        # r = 0 takes the ZZ frame's echo: two intervals of pi/(8 J_zz),
        # with no fold rotation to conjugate them.
        g = 0.9
        for q in (1, 2):
            res = compile_cnot(RotFrameParams(0.0, g, 0.0), refocus_qubit=q)
            assert res.branch == "zz_refocus"
            assert 2 * res.delta_t == res.schedule.total_entangling_time
            assert math.isclose(res.delta_t, PI / (8 * g))
            assert res.verification.pass_exact
            assert res.target_name == "CNOT"
            assert len(res.schedule.ops) == 10

    def test_two_shot_refocus(self):
        g = 1.0
        res = compile_cnot(RotFrameParams(g, 0.3 * g, 0.0))
        assert res.branch == "two_shot_refocus"
        assert math.isclose(res.delta_t, PI / (8 * g))
        assert res.verification.pass_exact

    def test_two_shot_jzz_independent(self):
        g = 1.0
        outs = []
        for jzz in (0.0, 0.3, -1.0):
            res = compile_cnot(RotFrameParams(g, jzz, 0.0), prefer="cnot")
            outs.append(simulate_schedule(res.schedule,
                                          RotFrameParams(g, jzz, 0.0)))
        assert distance(outs[0], outs[1]) < 1e-10
        assert distance(outs[0], outs[2]) < 1e-10

    def test_general_jprime(self):
        g = 1.0
        res = compile_cnot(RotFrameParams(g, 0.0, g))
        assert res.branch == "general_jprime"
        assert math.isclose(res.delta_t, PI / (8 * math.sqrt(2) * g))
        assert res.params.fold == (1.0, PI / 4)
        assert res.verification.pass_exact
        # The general branch uses exactly two entangling intervals of dt.
        durations = [op.duration for op in res.schedule.ops
                     if isinstance(op, Entangle)]
        assert durations == [res.delta_t, res.delta_t]

    def test_auto_prefers_swapcnot_for_pure_xy(self):
        res = compile_cnot(RotFrameParams(1.0, 0.0, 0.0))
        assert res.branch == "xy_single_shot_swapcnot"
        assert res.target_name == "SWAP_CNOT"
        assert res.verification.pass_exact
        assert math.isclose(res.schedule.total_entangling_time, PI / 4)

    def test_prefer_cnot_overrides_auto(self):
        res = compile_cnot(RotFrameParams(1.0, 0.0, 0.0), prefer="cnot")
        assert res.branch == "two_shot_refocus"

    def test_refocus_qubit_choice(self):
        for q in (1, 2):
            res = compile_cnot(RotFrameParams(1.0, 0.4, 0.2),
                               refocus_qubit=q)
            assert res.verification.pass_exact

    def test_zero_coupling_rejected(self):
        with pytest.raises(ZeroCoupling):
            compile_cnot(RotFrameParams(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("params", [
        (1e-320, 0.0, 0.0), (-1e-320, 0.0, 0.0), (0.0, 1e-320, 0.0),
        (0.0, -1e-320, 0.0), (0.0, 0.0, 1e-320),
        # Each refocused interval pi/(8 rate) is finite, the gate time
        # pi/(4 rate) is not: it once compiled with an infinite total.
        (4e-309, 0.0, 0.0), (0.0, -4e-309, 0.0), (0.0, 0.0, 4e-309),
        # Zero coupling is the limit of the same rule: inf at rate 0.
        (0.0, 0.0, 0.0),
    ])
    def test_infinite_entangling_time_is_zero_coupling(self, params):
        for prefer in ("auto", "cnot"):
            with pytest.raises(ZeroCoupling, match="^coupling too weak: "
                               "entangling time inf is not finite$"):
                compile_cnot(RotFrameParams(*params), prefer=prefer)

    @pytest.mark.parametrize("weak", [1e-3, 1e-9, 1e-300, 1e-320])
    @pytest.mark.parametrize("jprime", [False, True])
    def test_weak_xy_part_beside_zz_takes_pi_over_4(self, weak, jprime):
        # The weaker XY part is refocused, however weak: its own
        # entangling time may be far too long, or not finite.
        p = RotFrameParams(0.0, 1.0, weak) if jprime else RotFrameParams(
            weak, 1.0, 0.0)
        for prefer, q in itertools.product(("auto", "cnot"), (1, 2)):
            res = compile_cnot(p, prefer=prefer, refocus_qubit=q)
            assert res.branch == "zz_refocus"
            assert res.verification.exact_distance < 1e-9
            assert math.isclose(res.schedule.total_entangling_time, PI / 4,
                                rel_tol=1e-12)

    @pytest.mark.parametrize("params", [
        (5e307, 0.0, 0.0), (0.0, 1.7e308, 0.0), (1.0, 1e308, 0.0)])
    def test_interval_does_not_overflow_to_zero(self, params):
        # k rate overflows a float here; the interval pi / (k rate) must
        # still be positive.
        p = RotFrameParams(*params)
        for prefer in ("auto", "cnot"):
            res = compile_cnot(p, prefer=prefer)
            assert res.delta_t > 0
            assert res.verification.exact_distance < 1e-12

    @pytest.mark.parametrize("kwargs", [{"prefer": "x"},
                                        {"refocus_qubit": 3}])
    def test_bad_argument_rejected(self, kwargs):
        with pytest.raises(ValueError):
            compile_cnot(RotFrameParams(1.0, 0.3, 0.2), **kwargs)

    @pytest.mark.parametrize("prefer", ["auto", "cnot"])
    @pytest.mark.parametrize("params", [
        (1.0, 0.0, 0.0),    # xy_single_shot_swapcnot under auto
        (-1.0, 0.4, 0.0),   # two_shot_refocus
        (0.8, -0.3, 1.1),   # general_jprime
        (0.2, -1.0, 0.3),   # zz_refocus
        (0.0, 0.7, 0.0)])   # zz_refocus at r = 0
    @pytest.mark.parametrize("qubit", [True, False, 1.0, 2.0, np.float64(1.0),
                                       "1", None, 0, 3, -1])
    def test_refocus_qubit_checked_on_every_branch(self, qubit, params,
                                                   prefer):
        # Rotate.qubit's rule: the integer 1 or 2, never a bool.
        with pytest.raises(ValueError, match="^refocus_qubit must be 1 or 2$"):
            compile_cnot(RotFrameParams(*params), prefer=prefer,
                         refocus_qubit=qubit)

    @pytest.mark.parametrize("qubit", [np.int64(2), np.int32(1)])
    def test_numpy_refocus_qubit_accepted(self, qubit):
        res = compile_cnot(RotFrameParams(0.8, -0.3, 1.1),
                           refocus_qubit=qubit)
        assert res.schedule == compile_cnot(
            RotFrameParams(0.8, -0.3, 1.1), refocus_qubit=int(qubit)).schedule

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_couplings_compile_or_raise_typed(self):
        # Near the float limits a compile either succeeds or raises a
        # typed error; no numpy overflow warning escapes.
        grid = (0.0, 1e-300, -1e-300, 1.0, 1e300, -1e300,
                1e307, 5e307, -5e307, 1e308)
        # Any coupling RotFrameParams accepts either compiles or is too
        # weak; no interval's phase overflows.
        compiled = 0
        for j, jzz, jp in itertools.product(grid, repeat=3):
            try:
                p = RotFrameParams(j, jzz, jp)
            except ValueError:
                continue
            for q in (1, 2):
                try:
                    res = compile_cnot(p, refocus_qubit=q)
                except ZeroCoupling:
                    continue
                assert res.verification.pass_exact
                compiled += 1
        assert compiled > 0

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_tol_must_be_positive_and_finite(self, tol):
        # inf would pass any schedule; nan would fail a correct one.
        for p in (RotFrameParams(1.0, 1e308, 0.0), RotFrameParams(1, 0, 0)):
            with pytest.raises(ValueError, match="tolerance"):
                compile_cnot(p, tol=tol)

    def test_zero_coupling_comes_before_a_bad_tol(self):
        # The interval is refused before the tolerance is read.
        with pytest.raises(ZeroCoupling):
            compile_cnot(RotFrameParams(1e-320, 0.0, 0.0), tol=math.nan)

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 0.5])
    def test_report_equals_verify_schedule(self, tol):
        # compile_cnot verifies through the kernel against targets checked
        # at import; the public path gives the same report.
        values = (-1.3, 0.0, 0.4, 2.0)
        for j, jzz, jp in itertools.product(values, repeat=3):
            if j == jzz == jp == 0:
                continue
            p = RotFrameParams(j, jzz, jp)
            for prefer, q in itertools.product(("auto", "cnot"), (1, 2)):
                res = compile_cnot(p, prefer=prefer, refocus_qubit=q,
                                   tol=tol)
                assert res.verification == verify_schedule(
                    res.schedule, p, named_gate(res.target_name), tol=tol,
                    target_name=res.target_name)

    def test_targets_checked_at_import(self):
        for name, (gate, inv) in compiler._TARGETS.items():
            assert np.array_equal(gate, named_gate(name))
            assert not gate.flags.writeable
            assert inv == makhlin_invariants(named_gate(name))

    def test_failed_verification_is_typed(self):
        with pytest.raises(VerificationFailed):
            compile_cnot(RotFrameParams(1.0, 0.3, 0.2), tol=1e-30)

    def test_random_triples_all_branches(self, rng):
        for _ in range(300):
            j, jzz, jp = rng.normal(size=3)
            # Hit the special branches too.
            if rng.uniform() < 0.2:
                jp = 0.0
            if rng.uniform() < 0.1:
                j, jp = 0.0, 0.0
                jzz = jzz if jzz != 0 else 1.0
            for q in (1, 2):
                res = compile_cnot(RotFrameParams(j, jzz, jp),
                                   refocus_qubit=q)
                u = simulate_schedule(res.schedule, res.params)
                assert distance(u, named_gate(res.target_name)) < 1e-9

    def test_scaling_covariance(self, rng):
        j, jzz, jp = 0.7, -0.4, 0.2
        lam = 3.5
        res1 = compile_cnot(RotFrameParams(j, jzz, jp))
        res2 = compile_cnot(RotFrameParams(lam * j, lam * jzz, lam * jp))
        ops1, ops2 = res1.schedule.ops, res2.schedule.ops
        assert len(ops1) == len(ops2)
        for a, b in zip(ops1, ops2):
            if isinstance(a, Entangle):
                assert math.isclose(b.duration, a.duration / lam)
            else:
                assert a == b

    def test_result_json(self):
        import json
        d = compile_cnot(RotFrameParams(1.0, 0.2, 0.1)).to_dict()
        json.dumps(d)
        assert d["verification"]["passed"]
        assert d["branch"] == "general_jprime"


class TestRefocusedBuilder:
    """One construction for every CNOT: two intervals conjugated by
    Rz(phi)_2 when phi = arg(+-(J + iJ')) != 0, split by a pi pulse that
    keeps the stronger of |J + iJ'| and |J_zz|: Rx(pi)_q keeps XX, and the
    echo Rx(pi)_q Ry(pi)_other keeps ZZ."""

    # Ops emitted by the separate two-shot and general builders this one
    # replaced, and by the ZZ frame's echo, conjugated like general_jprime
    # on qubit 2; it may emit fewer, never more.
    MAX_OPS = {("two_shot_refocus", 1): 9, ("two_shot_refocus", 2): 9,
               ("general_jprime", 1): 10, ("general_jprime", 2): 13,
               ("zz_refocus", 1): 14, ("zz_refocus", 2): 14}
    # The SWAP*CNOT shot: two x/y pulses and two virtual Rz in 6 ops.
    SWAPCNOT_MAX_OPS, SWAPCNOT_MAX_XY = 6, 2
    # x/y pulses per branch; every z rotation is a virtual frame change.
    XY_PULSES = {"zz_refocus": 5,
                 "two_shot_refocus": 4, "general_jprime": 4,
                 "xy_single_shot_swapcnot": 2}

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("j,jp,branch", [
        (1.3, 0.0, "two_shot_refocus"), (-1.3, 0.0, "two_shot_refocus"),
        (1.3, -0.0, "two_shot_refocus"), (-1.3, -0.0, "two_shot_refocus"),
        (0.0, 0.8, "general_jprime"), (0.0, -0.8, "general_jprime"),
        (-0.0, 0.8, "general_jprime"), (0.7, -0.8, "general_jprime"),
        (-0.7, 0.8, "general_jprime"), (-0.7, -0.8, "general_jprime"),
    ])
    def test_exact_cnot_and_op_count(self, j, jp, branch, q):
        # |J + iJ'| < 2 in every row: J_zz = -2 is refocused in ZZ frame.
        for jzz, rate in ((0.0, math.hypot(j, jp)),
                          (0.45, math.hypot(j, jp)), (-2.0, 2.0)):
            res = compile_cnot(RotFrameParams(j, jzz, jp), prefer="cnot",
                               refocus_qubit=q)
            want = branch if jzz != -2.0 else "zz_refocus"
            assert res.branch == want
            assert res.verification.exact_distance < 1e-9
            assert math.isclose(res.delta_t, PI / (8 * rate))
            assert len(res.schedule.ops) <= self.MAX_OPS[want, q]

    @pytest.mark.parametrize("j", [1.3, -1.3, 0.2, -7.0])
    def test_swapcnot_op_count(self, j):
        res = compile_cnot(RotFrameParams(j, 0.0, 0.0))
        assert res.branch == "xy_single_shot_swapcnot"
        assert res.verification.exact_distance < 1e-9
        ops = res.schedule.ops
        assert len(ops) <= self.SWAPCNOT_MAX_OPS
        assert sum(isinstance(op, Rotate) and op.axis != "z"
                   for op in ops) <= self.SWAPCNOT_MAX_XY

    def test_no_z_conjugation_without_jprime(self):
        # The fold conjugation is Rz(+-phi) on qubit 2; phi = 0 needs none.
        res = compile_cnot(RotFrameParams(-1.0, 0.2, 0.0), refocus_qubit=2)
        assert not any(isinstance(op, Rotate) and op.axis == "z"
                       and op.qubit == 2 for op in res.schedule.ops)

    @pytest.mark.parametrize("prefer", ["auto", "cnot"])
    @pytest.mark.parametrize("q", [1, 2])
    def test_one_xy_pulse_per_qubit_per_layer(self, prefer, q):
        # A layer is the ops between two Entangles, or after the last one.
        grid = (-1.7, -0.3, 0.0, 0.3, 1.7)
        seen = set()
        for j, jzz, jp in itertools.product(grid, repeat=3):
            if j == jzz == jp == 0:
                continue
            res = compile_cnot(RotFrameParams(j, jzz, jp), prefer=prefer,
                               refocus_qubit=q)
            layers = [[]]
            for op in res.schedule.ops:
                if isinstance(op, Entangle):
                    layers.append([])
                elif isinstance(op, Rotate) and op.axis != "z":
                    layers[-1].append(op.qubit)
            for layer in layers:
                assert layer.count(1) <= 1 and layer.count(2) <= 1
            assert (sum(map(len, layers))
                    == self.XY_PULSES[res.branch]), res.branch
            seen.add(res.branch)
        assert len(seen) == (4 if prefer == "auto" else 3)

    @pytest.mark.parametrize("q", [1, 2])
    def test_fixed_pulses_come_from_the_table(self, q):
        # Every Rotate but the fold's Rz(+-phi)_2, each +-pi/2 or pi, is
        # the object built once at import; every GlobalPhase closes at one
        # of six angles; one Entangle serves both intervals.
        phases = {angle for s in (1.0, -1.0)
                  for angle in (PI / 2 + s * PI / 4, s * PI / 4 - PI / 2,
                                s * PI / 2)}
        grid = (-1.7, 0.0, 0.3)
        seen = set()
        for prefer in ("auto", "cnot"):
            for j, jzz, jp in itertools.product(grid, repeat=3):
                if j == jzz == jp == 0:
                    continue
                res = compile_cnot(RotFrameParams(j, jzz, jp), prefer=prefer,
                                   refocus_qubit=q)
                seen.add(res.branch)
                fold = res.branch != "xy_single_shot_swapcnot"
                ops = res.schedule.ops
                for op in ops:
                    if isinstance(op, GlobalPhase):
                        assert op.angle in phases
                    elif isinstance(op, Rotate) and not (
                            fold and op.axis == "z" and op.qubit == 2):
                        assert _ROT[op.axis, op.angle, op.qubit] is op
                intervals = {id(op) for op in ops if isinstance(op, Entangle)}
                assert len(intervals) == 1, res.branch
        assert len(seen) == 4


PAULI = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
         "y": np.array([[0, -1j], [1j, 0]]),
         "z": np.diag([1.0 + 0j, -1.0])}
I2 = np.eye(2, dtype=complex)


def field_propagators(schedule, p, fields):
    """The schedule's product, one per field f of the stack fields, with
    H = rot_frame_matrix(p) + f during each interval: exp by eigh, and
    each Rotate as cos(angle / 2) I - i sin(angle / 2) sigma."""
    w, v = np.linalg.eigh(rot_frame_matrix(p) + fields)
    u = np.broadcast_to(np.eye(4, dtype=complex), fields.shape)
    for op in schedule.ops:
        if isinstance(op, Entangle):
            step = (v * np.exp(-1j * w * op.duration)[:, None, :]
                    @ v.conj().transpose(0, 2, 1))
        elif isinstance(op, Rotate):
            m = (math.cos(op.angle / 2) * I2
                 - 1j * math.sin(op.angle / 2) * PAULI[op.axis])
            step = np.kron(m, I2) if op.qubit == 1 else np.kron(I2, m)
        else:
            step = np.exp(1j * op.angle) * np.eye(4)
        u = step @ u
    return u


class TestZZFrameEcho:
    """The ZZ frame's echo, a pi pulse on each qubit, flips every part of
    the coupling but ZZ, and with it any local z field: an idle
    neighbour's ZZ, a residual detuning or a frequency drift. Every
    ZZ-frame CNOT is blind to such fields, to all orders."""

    @staticmethod
    def couplings():
        # 20 seeded couplings with |J_zz| > r: 4 with r = 0, and J' != 0
        # in the rest.
        rng = np.random.default_rng(20091)
        out = []
        for k in range(20):
            jzz = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0)
            r = 0.0 if k < 4 else abs(jzz) * rng.uniform(0.0, 0.99)
            theta = rng.uniform(-PI, PI)
            out.append(RotFrameParams(r * math.cos(theta), jzz,
                                      r * math.sin(theta)))
        return out

    Z1, Z2 = np.kron(PAULI["z"], I2), np.kron(I2, PAULI["z"])
    FIELDS = {"z1": Z1, "z2": Z2, "z1-z2": (Z1 - Z2) / 2}

    @pytest.mark.parametrize("field", ["z1", "z2", "z1-z2"])
    @pytest.mark.parametrize("q", [1, 2])
    def test_blind_to_local_z_fields(self, field, q):
        # D = |U(+h) - U(-h)| and |U(h) - U(0)|, up to phase, over 17
        # log-spaced h in [1e-4, 1e-1] max(r, |J_zz|); the eigh
        # reference itself is exact to ~1e-15.
        couplings = self.couplings()
        assert sum(p.j == p.j_prime == 0 for p in couplings) == 4
        for p in couplings:
            res = compile_cnot(p, refocus_qubit=q)
            assert res.branch == "zz_refocus"
            scale = max(math.hypot(p.j, p.j_prime), abs(p.j_zz))
            h = scale * np.logspace(-4, -1, 17)[:, None, None]
            f = self.FIELDS[field]
            u0, = field_propagators(res.schedule, p, 0 * f[None])
            assert distance(u0, CNOT) < 1e-13
            plus = field_propagators(res.schedule, p, h * f)
            minus = field_propagators(res.schedule, p, -h * f)
            for up, um in zip(plus, minus):
                assert distance(up, um, up_to_global_phase=True) < 1e-13
                assert distance(up, u0, up_to_global_phase=True) < 1e-13
