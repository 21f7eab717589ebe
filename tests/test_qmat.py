import math

import numpy as np
import pytest

from qgd import qmat
from qgd.errors import NotUnitary
from qgd.hamiltonian import CouplingTensor, rwa_infidelity
from qgd.qmat import I2, I4, SX, SY, SZ, distance, kron

from conftest import expm_h, haar_unitary

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), I4)

    def test_zz(self):
        assert np.allclose(kron(SZ, SZ), np.diag([1, -1, -1, 1]))

    def test_xx(self):
        assert np.allclose(kron(SX, SX), np.fliplr(np.eye(4)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [None, object(), "x", ["1", "0"]])
    def test_non_numeric_refused(self, bad):
        # Before, kron(None, None) was nan+nanj and an object a bare
        # TypeError.
        for a, b in ((bad, bad), (bad, I2), (I2, bad)):
            with pytest.raises(ValueError, match="of numbers"):
                kron(a, b)


class TestCouplingOperator:
    def test_matches_kron_sum(self, rng):
        paulis = (SX, SY, SZ)
        for _ in range(50):
            t = rng.normal(size=(3, 3))
            ref = sum(t[m, n] * kron(paulis[m], paulis[n])
                      for m in range(3) for n in range(3))
            assert np.max(np.abs(qmat.coupling_operator(t) - ref)) < 1e-14

    def test_integer_tensor_accepted(self):
        assert np.array_equal(qmat.coupling_operator(np.eye(3, dtype=int)),
                              qmat.coupling_operator(np.eye(3)))

    def test_pauli_read_inverts_it(self, rng):
        # tr(sigma^m (x) sigma^n sigma^p (x) sigma^q) = 4 [m = p][n = q]:
        # exact on a tensor of small integers, to roundoff on any other.
        t = rng.integers(-3, 4, size=(3, 3)).astype(float)
        assert np.array_equal(
            qmat._pauli_coefficients(qmat.coupling_operator(t)), t)
        for _ in range(50):
            t = rng.normal(size=(3, 3))
            back = qmat._pauli_coefficients(qmat.coupling_operator(t))
            assert np.max(np.abs(back - t)) < 1e-15

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad,match", [
        (np.eye(3) * (1 + 0.5j), "not complex128"),
        (np.eye(3, dtype=complex), "not complex128"),
        (None, "of numbers"), (object(), "of numbers"),
        ([["a"] * 3] * 3, "of numbers"),
        (np.eye(2), "shape"), (np.ones(9), "shape"),
        (np.ones((3, 3, 1)), "shape")])
    def test_complex_non_numeric_or_not_3x3_refused(self, bad, match):
        # Before, a complex tensor lost its imaginary part with a
        # ComplexWarning and an object raised a bare TypeError.
        with pytest.raises(ValueError, match=match):
            qmat.coupling_operator(bad)


class TestExpmHermitian:
    """The lab frame's one exponential: the kernel qmat._expm_eigh, and
    the checks rwa_infidelity makes before it runs, since the kernel
    trusts its input."""

    def test_zero_generator(self):
        u = qmat._expm_eigh(np.zeros((4, 4), dtype=complex), 2.7)
        assert np.allclose(u, I4)

    def test_diagonal_phases(self):
        # sigma_z x I has eigenvalues (1, 1, -1, -1): e^{-i lambda t}.
        u = qmat._expm_eigh(kron(SZ, I2), math.pi / 2)
        assert np.allclose(u, np.diag([-1j, -1j, 1j, 1j]), atol=1e-14)
        u = qmat._expm_eigh(kron(SZ, I2), math.pi)
        assert np.allclose(u, -I4, atol=1e-14)

    def test_unitary_and_semigroup(self, rng):
        for _ in range(50):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (a + a.conj().T) / 2
            u = qmat._expm_eigh(h, 0.8)
            assert np.max(np.abs(u.conj().T @ u - I4)) < 1e-12
            u12 = qmat._expm_eigh(h, 0.3) @ qmat._expm_eigh(h, 0.5)
            assert distance(u12, u) < 1e-12

    @pytest.mark.parametrize("scale,t", [
        (1e300, 1e10), (-1e300, -1e10), (1.0, math.inf),
        (1e300, np.float64(1e10))])
    def test_phase_overflow_rejected(self, monkeypatch, scale, t):
        # The caller owns the phase bound: no generator whose phase
        # overflows, nor any other refused horizon, reaches the kernel.
        def kernel(*args):
            raise AssertionError("the lab-frame exponential ran")

        monkeypatch.setattr(qmat, "_expm_eigh", kernel)
        with pytest.raises(ValueError,
                           match="too long|T must be positive|t_final inf"):
            rwa_infidelity(CouplingTensor(scale * np.eye(3)), 1.0, t)

    @pytest.mark.parametrize("t", ["1", None, [1.0], 1j])
    def test_non_number_time_rejected(self, t):
        with pytest.raises(ValueError,
                           match="t_final .* not a finite number"):
            rwa_infidelity(CouplingTensor(np.eye(3)), 1.0, t)

    @pytest.mark.parametrize("h", [
        np.ones((2, 2, 2)), np.ones(3), 5.0, np.ones((2, 3))],
        ids=["3d", "1d", "scalar", "non_square"])
    def test_non_square_matrix_rejected(self, h):
        # The generator is 4x4 by construction: its one matrix input is
        # the 3x3 coupling tensor.
        with pytest.raises(ValueError, match="coupling tensor must be 3x3"):
            CouplingTensor(h)


def _bool_calls():
    """A pytest.param(call, id=entry point) for each entry point given a
    bool where a real belongs."""
    from qgd.cli import _matrix_from_json
    from qgd.compiler import CNOT
    from qgd.hamiltonian import RotFrameParams
    from qgd.pulses import Entangle, PulseSchedule, Rotate, verify_schedule
    s = PulseSchedule((Entangle(0.5),))
    p = RotFrameParams(1.0, 0.0, 0.0)
    calls = {
        "RotFrameParams.from_dict": lambda: RotFrameParams.from_dict(
            {"J": True, "Jzz": False, "Jprime": 0}),
        "RotFrameParams": lambda: RotFrameParams(True, 0.0, 0.0),
        "CouplingTensor": lambda: CouplingTensor(
            [[True, False, False], [False, True, False], [0, 0, 0]]),
        "Entangle": lambda: Entangle(True),
        "Rotate": lambda: Rotate("x", True, 1),
        "verify_schedule": lambda: verify_schedule(s, p, CNOT, tol=True),
        "rwa_infidelity": lambda: rwa_infidelity(
            CouplingTensor(np.eye(3)), True, 1.0),
        "matrix_json": lambda: _matrix_from_json(
            [[[True, False]] * 4] * 4),
    }
    return [pytest.param(call, id=name) for name, call in calls.items()]


class TestNumberRule:
    """_finite, the one reader of a real, turns a finite real number into
    a Python float and names every input it refuses."""

    @pytest.mark.parametrize("value,expected", [
        (1.5, 1.5), (2, 2.0), (np.float64(-2.5), -2.5),
        (np.float32(0.5), 0.5), (np.int64(-3), -3.0)])
    def test_real_numbers_become_floats(self, value, expected):
        x = qmat._finite("v", value)
        assert type(x) is float and x == expected

    @pytest.mark.parametrize("value", [-0.0, np.float64(-0.0),
                                       np.float32(-0.0), 0.0, 0],
                             ids=["float", "float64", "float32", "zero",
                                  "int"])
    def test_finite_reads_negative_zero_as_zero(self, value):
        x = qmat._finite("v", value)
        assert type(x) is float and math.copysign(1.0, x) == 1.0

    @pytest.mark.parametrize("value", [
        True, math.nan, -math.inf, 10 ** 400, -10 ** 400],
        ids=["True", "nan", "-inf", "big_int", "big_negative_int"])
    def test_bools_and_non_finite_reals_named(self, value):
        # An int too large for a float is as infinite as -inf.
        with pytest.raises(ValueError, match="^width .* not a finite"):
            qmat._finite("width", value)

    @pytest.mark.parametrize("value", ["1", None, [1.0], 1j,
                                       np.array(1.0)])
    def test_non_numbers_named(self, value):
        with pytest.raises(ValueError, match="^width .* not a finite"):
            qmat._finite("width", value)

    @pytest.mark.parametrize("call", _bool_calls())
    def test_bool_is_not_a_real(self, call):
        # A bool is an int to Python, and once read as 1.0 or 0.0.
        with pytest.raises(ValueError, match="True|bad matrix JSON"):
            call()


def _public_calls():
    """A pytest.param(type name, call, id=function) for each public entry
    point given a value of the wrong type where a package type belongs."""
    from qgd.compiler import CNOT, compile_cnot
    from qgd.entangler import canonical_entangler
    from qgd.equivalence import weyl_canonicalize
    from qgd.hamiltonian import (RotFrameParams, reduce_coupling,
                                 rot_frame_matrix, rot_frame_propagator)
    from qgd.pulses import (Entangle, PulseSchedule, simulate_schedule,
                            trajectory, verify_schedule)
    p = RotFrameParams(1.0, 0.2, 0.1)
    s = PulseSchedule((Entangle(0.5),))
    tensor = {"Jxx": 1.0, "Jyy": 1.0}
    calls = {
        "compile_cnot": ("RotFrameParams", lambda: compile_cnot({"J": 1})),
        "simulate_schedule": ("RotFrameParams",
                              lambda: simulate_schedule(s, None)),
        "verify_schedule": ("PulseSchedule", lambda: verify_schedule(
            [Entangle(0.5)], p, CNOT)),
        "trajectory": ("RotFrameParams", lambda: trajectory(None, s)),
        "rwa_infidelity": ("CouplingTensor",
                           lambda: rwa_infidelity(tensor, 1.0, 1.0)),
        "reduce_coupling": ("CouplingTensor",
                            lambda: reduce_coupling(tensor)),
        "rot_frame_matrix": ("RotFrameParams",
                             lambda: rot_frame_matrix(None)),
        "rot_frame_propagator": ("RotFrameParams",
                                 lambda: rot_frame_propagator(None, 1.0)),
        "canonical_entangler": ("EntanglerCoords",
                                lambda: canonical_entangler((0.1, 0.2, 0.3))),
        "weyl_canonicalize": ("EntanglerCoords",
                              lambda: weyl_canonicalize(None)),
        "PulseSchedule": ("Iterable", lambda: PulseSchedule(5)),
    }
    return [pytest.param(*v, id=k) for k, v in calls.items()]


@pytest.mark.parametrize("expected,call", _public_calls())
def test_wrong_argument_type_refused_by_name(expected, call):
    # _require_type's ValueError, never an AttributeError or TypeError
    # from the first attribute the function reads.
    with pytest.raises(ValueError, match=f"^expected {expected}, got "):
        call()


def _bool_matrix_calls():
    """A pytest.param(call, id=entry point) for each matrix argument of
    each entry point, given a bool identity where numbers belong."""
    from qgd.equivalence import (kak_decompose, locally_equivalent,
                                 makhlin_invariants)
    from qgd.hamiltonian import RotFrameParams
    from qgd.pulses import Entangle, PulseSchedule, verify_schedule
    eye2, eye3, eye4 = (np.eye(n, dtype=bool) for n in (2, 3, 4))
    s = PulseSchedule((Entangle(0.5),))
    p = RotFrameParams(1.0, 0.0, 0.0)
    calls = {
        "require_unitary": lambda: qmat.require_unitary(eye4),
        "distance_u": lambda: distance(eye4, I4),
        "distance_v": lambda: distance(I4, eye4, True),
        "kron_a": lambda: kron(eye2, I2),
        "kron_b": lambda: kron(I2, eye2),
        "coupling_operator": lambda: qmat.coupling_operator(eye3),
        "makhlin_invariants": lambda: makhlin_invariants(eye4),
        "kak_decompose": lambda: kak_decompose(eye4),
        "locally_equivalent_u": lambda: locally_equivalent(eye4, CNOT),
        "locally_equivalent_v": lambda: locally_equivalent(CNOT, eye4),
        "verify_schedule": lambda: verify_schedule(s, p, eye4),
    }
    return [pytest.param(call, id=name) for name, call in calls.items()]


@pytest.mark.parametrize("call", _bool_matrix_calls())
def test_bool_array_is_no_matrix_of_numbers(call):
    # A bool array would otherwise be read as 0s and 1s: the identity.
    with pytest.raises(ValueError, match="matrix of numbers, not bool$"):
        call()


class TestRequireUnitary:
    def test_unitary_passes_unchanged(self, rng):
        u = haar_unitary(rng)
        assert qmat.require_unitary(u) is u

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.float32,
                                       np.complex64])
    def test_every_numeric_dtype_accepted(self, dtype):
        # The one dtype check (_numeric) admits every numeric kind; a bool
        # array is none (test_bool_array_is_no_matrix_of_numbers).
        u = qmat.require_unitary(np.eye(4, dtype=dtype))
        assert u.dtype == complex and np.array_equal(u, I4)
        assert distance(np.eye(4, dtype=dtype), I4) == 0.0

    @pytest.mark.parametrize("entry", [
        math.nan, math.inf, -math.inf, complex(0, math.inf),
        complex(math.nan, 0), 1e200, 1 + 2e-9])
    def test_bad_entry_fails_the_one_reduction(self, entry):
        # A nan or inf entry, or one whose square overflows, makes
        # max|u^dag u - I| nan or inf, which fails the < test without a
        # RuntimeWarning.
        u = CNOT.copy()
        u[2, 3] = entry
        with pytest.raises(NotUnitary, match="deviates from unitarity by "
                                             "more than 1e-09"):
            qmat.require_unitary(u)


class TestDistance:
    def test_identical(self, rng):
        u = haar_unitary(rng)
        assert distance(u, u) == 0.0
        assert distance(u, u, up_to_global_phase=True) == 0.0

    def test_phase_factored_out(self, rng):
        u = haar_unitary(rng)
        assert distance(u, np.exp(1j * math.pi / 7) * u,
                        up_to_global_phase=True) < 1e-12

    def test_phase_distance_has_no_sqrt_floor(self, rng):
        # A tiny deviation must read as itself, not as the sqrt of the
        # trace roundoff (~1e-8).
        u = haar_unitary(rng)
        v = np.exp(0.3j) * u @ expm_h(kron(SZ, SX), 1e-12)
        d = distance(u, v, up_to_global_phase=True)
        assert 1e-12 < d < 3e-12

    def test_identity_to_cnot(self):
        assert abs(distance(I4, CNOT) - 2.0) < 1e-14

    def test_metric_properties(self, rng):
        for _ in range(20):
            u, v, w = (haar_unitary(rng) for _ in range(3))
            assert abs(distance(u, v) - distance(v, u)) < 1e-12
            assert distance(u, w) <= distance(u, v) + distance(v, w) + 1e-12
