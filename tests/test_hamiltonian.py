import cmath
import math
import re
import warnings

import numpy as np
import pytest

from qgd.entangler import EntanglerCoords, canonical_entangler
from qgd.hamiltonian import (CouplingTensor, RotFrameParams,
                             reduce_coupling, rot_frame_matrix,
                             rot_frame_propagator, rwa_infidelity)
from qgd import qmat
from qgd.qmat import I2, SX, SY, SZ, distance, kron

from conftest import expm_h, lab_hamiltonian

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)


def rot_frame_operator(p):
    """The rotating-frame Hamiltonian in operator form,
    J (XX + YY) + J_zz ZZ + J' (XY - YX)."""
    return (p.j * (kron(SX, SX) + kron(SY, SY))
            + p.j_zz * kron(SZ, SZ)
            + p.j_prime * (kron(SX, SY) - kron(SY, SX)))


def tensor(**kw):
    j = np.zeros((3, 3))
    idx = {"x": 0, "y": 1, "z": 2}
    for key, val in kw.items():
        j[idx[key[0]], idx[key[1]]] = val
    return CouplingTensor(j=j)


class _Built(Exception):
    """Carries the Hamiltonian that rwa_infidelity hands to its kernel."""


def built_lab_frame(monkeypatch, ct, eps):
    """The lab-frame Hamiltonian that rwa_infidelity(ct, eps, T) builds
    and hands to qmat._expm_eigh, caught there before it is exponentiated;
    T = 1 / max(eps, sum |J|) is inside the horizon."""
    def kernel(h, t):
        raise _Built(h)

    t_final = 1.0 / max(eps, float(np.abs(ct.j).sum()))
    with monkeypatch.context() as m:
        m.setattr(qmat, "_expm_eigh", kernel)
        with pytest.raises(_Built) as built:
            rwa_infidelity(ct, eps, t_final)
    return built.value.args[0]


class TestReduceCoupling:
    def test_heisenberg(self):
        p = reduce_coupling(CouplingTensor(np.eye(3) * 0.7))
        assert (p.j, p.j_zz, p.j_prime) == (0.7, 0.7, 0.0)

    def test_ising(self):
        p = reduce_coupling(tensor(zz=0.4))
        assert (p.j, p.j_zz, p.j_prime) == (0.0, 0.4, 0.0)

    def test_antisymmetric(self):
        p = reduce_coupling(tensor(xy=0.3, yx=-0.3))
        assert (p.j, p.j_zz, p.j_prime) == (0.0, 0.0, 0.3)

    def test_linearity(self, rng):
        a = CouplingTensor(rng.normal(size=(3, 3)))
        b = CouplingTensor(rng.normal(size=(3, 3)))
        pa, pb = reduce_coupling(a), reduce_coupling(b)
        pc = reduce_coupling(CouplingTensor(2 * a.j + 3 * b.j))
        assert math.isclose(pc.j, 2 * pa.j + 3 * pb.j, abs_tol=1e-14)
        assert math.isclose(pc.j_prime, 2 * pa.j_prime + 3 * pb.j_prime,
                            abs_tol=1e-14)
        assert math.isclose(pc.j_zz, 2 * pa.j_zz + 3 * pb.j_zz,
                            abs_tol=1e-14)

    def test_matches_numpy_formula(self, rng):
        # The Python-float reduction against the numpy one it replaced:
        # same operations in the same order, so bit-identical.
        for _ in range(200):
            j = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-3, 3)
            p = reduce_coupling(CouplingTensor(j))
            assert (p.j, p.j_zz, p.j_prime) == (
                j[0, 0] / 2 + j[1, 1] / 2, j[2, 2],
                j[0, 1] / 2 - j[1, 0] / 2)

    def test_huge_entries_reduce_finite_without_warning(self):
        # Entries far beyond any physical coupling reduce on Python
        # floats: no numpy warning, and finite J, J_zz and J'.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = reduce_coupling(CouplingTensor(np.full((3, 3), 1e300)))
        assert (p.j, p.j_zz, p.j_prime) == (1e300, 1e300, 0.0)

    def test_json_round_trip(self):
        ct = tensor(xx=1.0, yy=0.5, zz=-0.25, xy=0.1, xz=0.3, zy=-0.7)
        again = CouplingTensor.from_dict({
            f"J{a}{b}": float(ct.j[i, k]) for i, a in enumerate("xyz")
            for k, b in enumerate("xyz")})
        assert np.array_equal(ct.j, again.j)
        # The reduced couplings read back equal: they hold only J, J_zz
        # and J', whatever the dropped off-RWA entries were.
        p = reduce_coupling(ct)
        assert RotFrameParams.from_dict(p.to_dict()) == p

    def test_json_missing_key_rejected(self):
        with pytest.raises(ValueError):
            CouplingTensor.from_dict({"Jxx": 1.0})


class TestCouplingTensor:
    # The constructor keeps the finite-number rule of RotFrameParams: a
    # string that spells a number is not one.
    def test_string_entries_rejected(self):
        with pytest.raises(ValueError, match="Jxx '1' is not a finite"):
            CouplingTensor([["1", "0", "0"], ["0", "1", "0"],
                            ["0", "0", "0.5"]])

    @pytest.mark.parametrize("bad", [None, 1j, 1 + 0j, "0.5",
                                     math.nan, math.inf])
    def test_non_number_entry_rejected(self, bad):
        j = [[0.0] * 3 for _ in range(3)]
        j[1][2] = bad
        with pytest.raises(ValueError, match="Jyz .* not a finite number"):
            CouplingTensor(j)

    def test_entries_read_only(self):
        # An entry changed after construction would skip the finite
        # check: a nan would reach rwa_infidelity as a "too large" tensor.
        src = np.eye(3)
        ct = CouplingTensor(src)
        with pytest.raises(ValueError, match="read-only"):
            ct.j[0, 2] = math.nan
        src[0, 2] = math.nan  # the caller's array is not the tensor
        assert np.array_equal(ct.j, np.eye(3))

    def test_complex_array_rejected(self):
        with pytest.raises(ValueError, match="not a finite number"):
            CouplingTensor(np.eye(3) * (1 + 1j))

    def test_every_real_input_gives_the_same_entries(self):
        ints = [[1, 0, 2], [0, 3, 0], [4, 0, 1]]
        expected = np.array(ints, dtype=float)
        for src in (ints, [[float(x) for x in row] for row in ints],
                    np.array(ints), np.array(ints, dtype=np.uint8),
                    np.array(ints, dtype=np.float32), expected.copy()):
            ct = CouplingTensor(src)
            assert ct.j.dtype == float
            assert np.array_equal(ct.j, expected)
        # float32 entries are widened exactly.
        third = np.full((3, 3), 1 / 3, dtype=np.float32)
        assert np.array_equal(CouplingTensor(third).j,
                              [[float(x) for x in row] for row in third])

    @pytest.mark.parametrize("dtype", [int, np.float32, float])
    def test_input_mutated_afterwards_leaves_the_tensor(self, dtype):
        src = np.arange(9, dtype=dtype).reshape(3, 3)
        ct = CouplingTensor(src)
        src[1, 1] = 100
        assert np.array_equal(ct.j, np.arange(9.0).reshape(3, 3))

    def test_finite_entries_with_an_overflowing_sum_accepted(self):
        ct = CouplingTensor(np.full((3, 3), 1e308))
        assert np.array_equal(ct.j, np.full((3, 3), 1e308))

    @pytest.mark.parametrize("bad", [np.eye(2), [[1.0, 0.0], [0.0]],
                                     np.zeros((3, 3, 1)), "diag"])
    def test_wrong_shape_rejected(self, bad):
        with pytest.raises(ValueError, match="3x3"):
            CouplingTensor(bad)

    @pytest.mark.parametrize("src, expected", [
        pytest.param([[0.0, "0.5", 0.0], [0.0] * 3, [0.0] * 3],
                     "entry Jxy '0.5' is not a finite number", id="string"),
        pytest.param([[0.0] * 3, [0.0] * 3, [None, 0.0, 0.0]],
                     "entry Jzx None is not a finite number", id="none"),
        pytest.param(np.eye(3, dtype=bool),
                     "entry Jxx True is not a finite number",
                     id="bool_array"),
        pytest.param(np.full((3, 3), 1e308), np.full((3, 3), 1e308),
                     id="overflowing_sum"),
        pytest.param([[0.0] * 3, [0.0, 0.0, math.nan], [0.0] * 3],
                     "entry Jyz nan is not a finite number", id="nan"),
        pytest.param(np.eye(3, dtype=np.longdouble), np.eye(3),
                     id="longdouble"),
        pytest.param(np.eye(3, dtype=complex),
                     re.escape("entry Jxx (1+0j) is not a finite number"),
                     id="complex_array"),
        pytest.param([[0.0] * 3, [0.0, 10 ** 400, 0.0], [0.0] * 3],
                     f"entry Jyy {10 ** 400} is not a finite number",
                     id="huge_int"),
        pytest.param([[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]],
                     "coupling tensor must be 3x3", id="ragged"),
    ])
    def test_one_check_path(self, src, expected):
        # Every input takes the one path: the value, or the message that
        # names the first bad entry.
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                CouplingTensor(src)
        else:
            j = CouplingTensor(src).j
            assert j.dtype == float
            assert np.array_equal(j, expected)

    def test_negative_zero_entries_read_as_zero(self):
        for src in (np.full((3, 3), -0.0), [[-0.0] * 3] * 3):
            assert not np.signbit(CouplingTensor(src).j).any()


class TestRotFrameParams:
    def test_fold(self, rng):
        # J + iJ' = s r e^{i phi} with s = +-1 and phi in (-pi/2, pi/2],
        # to a relative 1e-15; the fixed cases sit on the fold's edges.
        cases = [tuple(rng.normal(size=2)) for _ in range(100)]
        cases += [(0.0, 1.0), (0.0, -1.0), (-1.0, 0.0), (-1.0, -0.0)]
        for j, jp in cases:
            s, phi = RotFrameParams(j, 0.3, jp).fold
            assert s in (1.0, -1.0)
            assert -math.pi / 2 < phi <= math.pi / 2
            r = math.hypot(j, jp)
            assert abs(s * r * cmath.exp(1j * phi) - complex(j, jp)) \
                < 1e-15 * r

    def test_negative_zero_reads_as_zero(self):
        # The JSON of a compile result then carries no "J": -0.0.
        p = RotFrameParams(-0.0, np.float64(-0.0), -0.0)
        assert [math.copysign(1.0, v) for v in (p.j, p.j_zz, p.j_prime)
                ] == [1.0] * 3
        assert p.fold == (1.0, 0.0)

    def test_fold_quadrants(self):
        assert RotFrameParams(1.0, 0.0, 1.0).fold == (1.0, math.pi / 4)
        assert RotFrameParams(-1.0, 0.0, -1.0).fold == (-1.0, math.pi / 4)
        assert RotFrameParams(0.0, 0.0, -1.0).fold == (-1.0, math.pi / 2)
        assert RotFrameParams(-1.0, 0.0, -0.0).fold == (-1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        for args in ((bad, 0.0, 0.0), (1.0, bad, 0.0), (1.0, 0.0, bad)):
            with pytest.raises(ValueError):
                RotFrameParams(*args)

    @pytest.mark.parametrize("bad", [None, [1.0], "1", "0.5"])
    def test_non_number_rejected(self, bad):
        # One finite-number rule, as for schedule ops: a string is not a
        # number, even one that spells a number.
        for args in ((bad, 1.0, 0.0), (1.0, bad, 0.0), (1.0, 0.0, bad)):
            with pytest.raises(ValueError, match="not a finite number"):
                RotFrameParams(*args)
        with pytest.raises(ValueError, match="not a finite number"):
            RotFrameParams.from_dict({"J": bad, "Jzz": 1.0, "Jprime": 0.0})

    def test_from_dict_rejects_bad_shapes(self):
        for bad in ([1.0], {"J": 1.0}, {"J": None, "Jzz": 0.0},
                    {"J": 1.0, "Jzz": "x"}, {"J": 1.0, "Jzz": 0.0}):
            with pytest.raises(ValueError):
                RotFrameParams.from_dict(bad)

    def test_from_dict_has_no_jprime_alias(self):
        # A payload that spells the key "J'" is refused, never compiled
        # with J' = 0.
        with pytest.raises(ValueError, match="Jprime"):
            RotFrameParams.from_dict({"J": 1.0, "Jzz": 0.0, "J'": 0.5})

    @pytest.mark.parametrize("j,jp", [(1e308, 0.0), (0.0, -1e308),
                                      (8e307, 8e307)])
    def test_overflowing_gamma_rejected(self, j, jp):
        # Finite couplings whose gamma = 2(J + iJ') overflows.
        with pytest.raises(ValueError, match="J and J'"):
            RotFrameParams(j, 0.0, jp)

    def test_overflowing_tensor_rejected(self):
        ct = CouplingTensor(np.full((3, 3), 1e308))
        with pytest.raises(ValueError, match="J and J'"):
            reduce_coupling(ct)


class TestRotFrameMatrix:
    def test_xy_block(self):
        h = rot_frame_matrix(RotFrameParams(0.5, 0.0, 0.0))
        assert np.allclose(h, np.array([[0, 0, 0, 0],
                                        [0, 0, 1, 0],
                                        [0, 1, 0, 0],
                                        [0, 0, 0, 0]]))

    def test_ising_diagonal(self):
        h = rot_frame_matrix(RotFrameParams(0.0, 0.3, 0.0))
        assert np.allclose(h, np.diag([0.3, -0.3, -0.3, 0.3]))

    def test_eigenvalues(self, rng):
        for _ in range(50):
            j, jzz, jp = rng.normal(size=3)
            p = RotFrameParams(j, jzz, jp)
            w = np.sort(np.linalg.eigvalsh(rot_frame_matrix(p)))
            g = 2 * math.hypot(p.j, p.j_prime)
            expected = np.sort([p.j_zz, p.j_zz, -p.j_zz + g, -p.j_zz - g])
            assert np.allclose(w, expected, atol=1e-12)

    def test_matches_operator_form(self, rng):
        for _ in range(1000):
            p = RotFrameParams(*rng.normal(size=3))
            assert np.max(np.abs(rot_frame_matrix(p)
                                 - rot_frame_operator(p))) < 1e-14

    def test_exchange_symmetry(self):
        h_sym = rot_frame_matrix(RotFrameParams(0.4, 0.7, 0.0))
        assert np.max(np.abs(h_sym @ SWAP - SWAP @ h_sym)) < 1e-14
        h_asym = rot_frame_matrix(RotFrameParams(0.4, 0.7, 0.2))
        assert np.max(np.abs(h_asym @ SWAP - SWAP @ h_asym)) > 1e-3

    def test_propagator_is_entangler_in_fold_frame(self, rng):
        # e^{-i H_rot t} = (I (x) Rz(phi)) A(s r t, s r t, J_zz t)
        # (I (x) Rz(phi))^dag, (s, phi) = p.fold, over every sign of J
        # and J'.
        def rz2(a):
            return np.kron(I2, np.diag([cmath.exp(-0.5j * a),
                                        cmath.exp(0.5j * a)]))

        grid = [(j, jzz, jp) for j in (-1.3, -0.4, 0.0, 0.7)
                for jzz in (-0.6, 0.0, 0.45) for jp in (-0.8, 0.0, 0.5)]
        grid += [tuple(rng.normal(size=3)) for _ in range(200)]
        for j, jzz, jp in grid:
            p = RotFrameParams(j, jzz, jp)
            s, phi = p.fold
            for t in (0.3, 2.1):
                srt = s * math.hypot(j, jp) * t
                a = canonical_entangler(EntanglerCoords(srt, srt, jzz * t))
                want = rz2(phi) @ a @ rz2(phi).conj().T
                assert np.max(np.abs(rot_frame_propagator(p, t) - want)) \
                    < 1e-15

    def test_propagator_rejects_bad_time(self):
        p = RotFrameParams(1.0, 0.3, 0.2)
        with pytest.raises(ValueError, match="phase overflows"):
            rot_frame_propagator(p, 1e308)
        for t in (math.nan, math.inf, "1", None, [1.0], 1j, True):
            with pytest.raises(ValueError, match="t .* not a finite number"):
                rot_frame_propagator(p, t)


class TestLabFrameGenerator:
    """The (constant) generator of the lab frame, as rwa_infidelity builds
    it for its one exponential."""

    def test_uncoupled_undriven_is_diagonal(self, monkeypatch):
        h = built_lab_frame(monkeypatch, CouplingTensor(np.zeros((3, 3))),
                            1.5)
        expected = -0.75 * kron(SZ, I2) - 0.75 * kron(I2, SZ)
        assert np.allclose(h, expected)

    def test_tuned_ising_time_independent(self, monkeypatch):
        # A ZZ coupling commutes with the drift, so the coupling seen in
        # the rotating frame, e^{iH0 t} (H - H0) e^{-iH0 t}, is static.
        eps = 1.0
        h0 = built_lab_frame(monkeypatch, CouplingTensor(np.zeros((3, 3))),
                             eps)
        coupling = built_lab_frame(monkeypatch, tensor(zz=0.01), eps) - h0
        for t in (0.3, 1.7, 9.2):
            frame = expm_h(h0, -t)
            moved = frame @ coupling @ frame.conj().T
            assert np.max(np.abs(moved - coupling)) < 1e-14

    def test_hermitian(self, monkeypatch, rng):
        # rwa_infidelity exponentiates it unchecked: mirrored entries are
        # the same sums of the same products, at every magnitude; and it
        # is the Kronecker-product reference.
        for _ in range(200):
            j = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-300, 306,
                                                              size=(3, 3))
            eps = 10.0 ** rng.uniform(-300, 306)
            h = built_lab_frame(monkeypatch, CouplingTensor(j), eps)
            assert np.array_equal(h, h.conj().T)
            assert np.allclose(h, lab_hamiltonian(j, eps), rtol=1e-15,
                               atol=0)

    def test_invalid_params_rejected(self):
        for eps in (-1.0, 0.0):
            with pytest.raises(ValueError, match="eps must be positive"):
                rwa_infidelity(tensor(zz=0.01), eps, 1.0)
        for eps in (math.nan, math.inf, "1", None, [1.0], 1j):
            with pytest.raises(ValueError, match="eps .* not a finite num"):
                rwa_infidelity(tensor(zz=0.01), eps, 1.0)

    @pytest.mark.parametrize("entry", [1e308, -1e308])
    def test_overflowing_norm_rejected(self, entry):
        # Finite entries whose sum |J_mu nu| overflows, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="coupling tensor too large"):
                rwa_infidelity(CouplingTensor(np.full((3, 3), entry)),
                               1.0, 1.0)


class TestRwaInfidelity:
    def test_zero_coupling(self):
        inf = rwa_infidelity(CouplingTensor(np.zeros((3, 3))), 1.0, 2.0)
        assert inf < 1e-9

    def test_heisenberg_weak_coupling(self):
        # Heisenberg coupling commutes with the frame generator, so the
        # rotating-wave approximation is exact and the infidelity sits at
        # eigensolver roundoff (~2e-14 here).
        g = 1e-3
        inf = rwa_infidelity(CouplingTensor(np.eye(3) * g), 1.0,
                             math.pi / (8 * g))
        assert inf < 1e-10

    @pytest.mark.parametrize("g,expected", [
        (1e-1, 0.33720317918706605),
        (1e-2, 0.02723078738859794),
    ])
    def test_matches_time_ordered_integration(self, g, expected):
        # Values of the piecewise-constant lab-frame integration that the
        # closed form replaced, on the generic tensor of rwa-scan.
        base = np.array([[1.0, 0.4, 0.3],
                         [0.2, 0.8, -0.5],
                         [0.6, -0.3, 0.9]])
        inf = rwa_infidelity(CouplingTensor(base * g), 1.0,
                             math.pi / (8 * g))
        assert abs(inf - expected) < 1e-11

    def test_generic_tensor_weaker_coupling_is_better(self):
        base = np.array([[1.0, 0.4, 0.3],
                         [0.2, 0.8, -0.5],
                         [0.6, -0.3, 0.9]])
        vals = []
        for g in (1e-1, 1e-2):
            vals.append(rwa_infidelity(CouplingTensor(base * g), 1.0,
                                       math.pi / (8 * g)))
        assert vals[1] < vals[0]

    def test_equals_the_checked_public_path(self, rng):
        # The same computation through the public, checking functions and
        # the reference exponential, bit for bit.
        for _ in range(300):
            ct = CouplingTensor(rng.normal(size=(3, 3))
                                * 10.0 ** rng.uniform(-6, 0))
            eps = 10.0 ** rng.uniform(-1, 1)
            t_final = 10.0 ** rng.uniform(-2, 3)
            h = qmat.coupling_operator(ct.j)
            h[0, 0] -= eps
            h[3, 3] += eps
            u_lab = expm_h(h, t_final)
            u_rwa = rot_frame_propagator(reduce_coupling(ct), t_final)
            drift = cmath.exp(1j * (eps * t_final))
            u_rwa[0, 0] *= drift
            u_rwa[3, 3] *= drift.conjugate()
            expected = distance(u_lab, u_rwa, up_to_global_phase=True)
            assert (rwa_infidelity(ct, eps, t_final).hex()
                    == expected.hex())

    def test_skips_the_hermiticity_recheck(self, monkeypatch):
        # The built Hamiltonian goes straight to the one exponential, once,
        # Hermitian bit for bit: there is no check to repeat.
        calls = []
        kernel = qmat._expm_eigh

        def spy(h, t):
            calls.append((h.copy(), t))
            return kernel(h, t)

        monkeypatch.setattr(qmat, "_expm_eigh", spy)
        ct = CouplingTensor(np.array([[1.0, 0.4, 0.3],
                                      [0.2, 0.8, -0.5],
                                      [0.6, -0.3, 0.9]]) * 1e-2)
        assert rwa_infidelity(ct, 1.0, math.pi / 8e-2) > 0
        [(h, t)] = calls
        assert np.array_equal(h, h.conj().T) and t == math.pi / 8e-2

    def test_rejects_bad_args(self):
        zero = CouplingTensor(np.zeros((3, 3)))
        for eps, t_final, message in (
                (-1.0, 1.0, "eps must be positive"),
                (math.nan, 1.0, "eps nan is not a finite number"),
                (1.0, 0.0, "T must be positive"),
                (1.0, math.inf, "t_final inf is not a finite number"),
                (1.0, math.nan, "t_final nan is not a finite number"),
                ("1", 1.0, "eps '1' is not a finite number"),
                (None, 1.0, "eps None is not a finite number"),
                (1.0, "1", "t_final '1' is not a finite number"),
                (1.0, None, "t_final None is not a finite number")):
            with pytest.raises(ValueError, match=message):
                rwa_infidelity(zero, eps, t_final)

    @pytest.mark.parametrize("ct, eps, t_final, message", [
        ({}, "x", None, "t_final None is not a finite number"),
        ({}, "x", -1.0, "T must be positive and finite"),
        ({}, "x", 1.0, "eps 'x' is not a finite number"),
        ({}, -1.0, 1.0, "expected CouplingTensor, got {}"),
        (np.full((3, 3), 1e308), -1.0, 2.0 ** 40,
         "eps must be positive and finite"),
        (np.full((3, 3), 1e308), 1.0, 2.0 ** 40,
         "coupling tensor too large: eps [+] sum [|]J[|] overflows"),
        (np.eye(3), 1.0, 2.0 ** 40, "t_final 1099511627776.0 is too long"),
    ], ids=["t_number", "t_range", "eps_number", "type", "eps_range",
            "too_large", "horizon"])
    def test_each_refusal_keeps_its_message_and_order(self, ct, eps,
                                                      t_final, message):
        # Each input is also wrong in every later check: the first check
        # that fails names it.
        if isinstance(ct, np.ndarray):
            ct = CouplingTensor(ct)
        with pytest.raises(ValueError, match=f"^{message}"):
            rwa_infidelity(ct, eps, t_final)

    def test_reads_each_scalar_once(self, monkeypatch):
        # t_final and eps are each read once; the rotating-frame entries
        # take the time as read, and only the reduced couplings' own
        # record reads its three values.
        ct = CouplingTensor(np.eye(3) * 1e-2)
        seen = []
        finite = qmat._finite

        def counting(what, value):
            seen.append(what)
            return finite(what, value)

        monkeypatch.setattr(qmat, "_finite", counting)
        rwa_infidelity(ct, 1.0, 10.0)
        assert sorted(seen) == ["coupling J", "coupling J'", "coupling J_zz",
                                "eps", "t_final"]

    def test_refuses_horizon_beyond_phase_resolution(self):
        # Beyond eps T = 2^32 the phase roundoff exceeds 1e-6 rad.
        ct = CouplingTensor(np.array([[1.0, 0.4, 0.3],
                                      [0.2, 0.8, -0.5],
                                      [0.6, -0.3, 0.9]]) * 1e-2)
        assert math.isfinite(rwa_infidelity(ct, 2.0, 2.0 ** 31))
        too_long = math.nextafter(2.0 ** 31, math.inf)
        with pytest.raises(ValueError, match=f"t_final {too_long!r}"):
            rwa_infidelity(ct, 2.0, too_long)

    def test_overflowing_drift_phase_raises_without_warning(self):
        # eps T overflows: the horizon guard refuses it, on Python floats.
        ct = CouplingTensor(np.eye(3) * 1e-2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="t_final 10000000000.0 is "
                                                 "too long"):
                rwa_infidelity(ct, 1e300, 1e10)

    @pytest.mark.parametrize("eps, t_final", [(2.0, 2.0 ** 32),
                                              (1e300, 1e10)])
    def test_long_horizon_refused_before_any_eigendecomposition(
            self, monkeypatch, eps, t_final):
        def eigh(*args):
            raise AssertionError("eigendecomposition ran")
        monkeypatch.setattr(qmat, "_expm_eigh", eigh)
        ct = CouplingTensor(np.eye(3) * 1e-2)
        with pytest.raises(ValueError, match=f"t_final {t_final!r} is too"):
            rwa_infidelity(ct, eps, t_final)

    @pytest.mark.parametrize("eps", [1.0, np.float64(1.0), np.float32(1.0),
                                     1, np.int64(1)])
    def test_eps_of_any_real_type_gives_the_float_result(self, eps):
        # The drift phase eps T is taken on the converted eps: a float32
        # eps times T would round in float32 (0.027230581569994982).
        ct = CouplingTensor(np.array([[1.0, 0.4, 0.3],
                                      [0.2, 0.8, -0.5],
                                      [0.6, -0.3, 0.9]]) * 1e-2)
        t_final = math.pi / 8 / 1e-2
        assert (rwa_infidelity(ct, eps, t_final).hex()
                == rwa_infidelity(ct, 1.0, t_final).hex())

    def test_refuses_horizon_beyond_coupling_phase_resolution(self):
        # eps T = 1e9 is well inside 2^32, but sum |J| T is ~5e15.
        ct = CouplingTensor(np.array([[1.0, 0.4, 0.3],
                                      [0.2, 0.8, -0.5],
                                      [0.6, -0.3, 0.9]]) * 1e6)
        with pytest.raises(ValueError, match="t_final 1000000000.0 is too"):
            rwa_infidelity(ct, 1.0, 1e9)
