import math

import numpy as np
import pytest

from qgd.hamiltonian import (CouplingTensor, RotFrameParams,
                             lab_frame_hamiltonian, reduce_coupling,
                             rot_frame_matrix, rot_frame_propagator,
                             rwa_infidelity)
from qgd.qmat import (I2, SX, SY, SZ, expm_hermitian, kron,
                      require_hermitian)

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


class TestReduceCoupling:
    def test_heisenberg(self):
        p = reduce_coupling(CouplingTensor(np.eye(3) * 0.7))
        assert (p.j, p.j_zz, p.j_prime) == (0.7, 0.7, 0.0)
        assert p.discarded_weight == 0.0

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

    def test_discarded_weight_diagnostic(self):
        p = reduce_coupling(tensor(xz=1.0, zy=2.0))
        assert (p.j, p.j_zz, p.j_prime) == (0.0, 0.0, 0.0)
        assert math.isclose(p.discarded_weight, 5.0)

    def test_json_round_trip(self):
        ct = tensor(xx=1.0, yy=0.5, zz=-0.25, xy=0.1)
        again = CouplingTensor.from_dict(ct.to_dict())
        assert np.array_equal(ct.j, again.j)

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

    def test_complex_array_rejected(self):
        with pytest.raises(ValueError, match="not a finite number"):
            CouplingTensor(np.eye(3) * (1 + 1j))

    def test_bools_accepted(self):
        ct = CouplingTensor([[True, False, False], [False, True, False],
                             [False, False, False]])
        assert np.array_equal(ct.j, np.diag([1.0, 1.0, 0.0]))
        assert ct.j.dtype == float

    @pytest.mark.parametrize("bad", [np.eye(2), [[1.0, 0.0], [0.0]],
                                     np.zeros((3, 3, 1)), "diag"])
    def test_wrong_shape_rejected(self, bad):
        with pytest.raises(ValueError, match="3x3"):
            CouplingTensor(bad)


class TestRotFrameParams:
    def test_gamma_identity(self, rng):
        for _ in range(100):
            j, jzz, jp = rng.normal(size=3)
            p = RotFrameParams(j, jzz, jp)
            assert -math.pi < p.phi <= math.pi

    def test_phi_quadrant(self):
        assert math.isclose(RotFrameParams(1.0, 0.0, 1.0).phi, math.pi / 4)

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

    def test_bool_is_a_number(self):
        assert RotFrameParams(True, False, 0).to_dict() == {
            "J": 1.0, "Jzz": 0.0, "Jprime": 0.0}

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

    def test_propagator_rejects_bad_time(self):
        p = RotFrameParams(1.0, 0.3, 0.2)
        for t in (math.nan, math.inf, 1e308):
            with pytest.raises(ValueError, match="phase overflows"):
                rot_frame_propagator(p, t)
        for t in ("1", None, [1.0], 1j):
            with pytest.raises(ValueError, match="t .* not a finite number"):
                rot_frame_propagator(p, t)


class TestLabFrameGenerator:
    """lab_frame_hamiltonian, the (constant) generator of the lab frame."""

    def test_uncoupled_undriven_is_diagonal(self):
        h = lab_frame_hamiltonian(CouplingTensor(np.zeros((3, 3))), 1.5)
        expected = -0.75 * kron(SZ, I2) - 0.75 * kron(I2, SZ)
        assert np.allclose(h, expected)

    def test_tuned_ising_time_independent(self):
        # A ZZ coupling commutes with the drift, so the coupling seen in
        # the rotating frame, e^{iH0 t} (H - H0) e^{-iH0 t}, is static.
        eps = 1.0
        h0 = lab_frame_hamiltonian(CouplingTensor(np.zeros((3, 3))), eps)
        coupling = lab_frame_hamiltonian(tensor(zz=0.01), eps) - h0
        for t in (0.3, 1.7, 9.2):
            frame = expm_hermitian(h0, -t)
            moved = frame @ coupling @ frame.conj().T
            assert np.max(np.abs(moved - coupling)) < 1e-14

    def test_hermitian(self, rng):
        for _ in range(10):
            ct = CouplingTensor(rng.normal(size=(3, 3)) * 0.01)
            require_hermitian(lab_frame_hamiltonian(ct, 1.0))

    def test_invalid_params_rejected(self):
        for eps in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="eps must be positive"):
                lab_frame_hamiltonian(tensor(zz=0.01), eps)
        for eps in ("1", None, [1.0], 1j):
            with pytest.raises(ValueError, match="eps .* not a finite num"):
                lab_frame_hamiltonian(tensor(zz=0.01), eps)

    @pytest.mark.parametrize("entry", [1e308, -1e308])
    def test_overflowing_norm_rejected(self, entry):
        # Finite entries whose sum |J_mu nu| overflows, with no warning.
        with pytest.raises(ValueError, match="coupling tensor too large"):
            lab_frame_hamiltonian(CouplingTensor(np.full((3, 3), entry)), 1.0)


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

    def test_rejects_bad_args(self):
        zero = CouplingTensor(np.zeros((3, 3)))
        for eps, t_final, message in (
                (-1.0, 1.0, "eps must be positive"),
                (math.nan, 1.0, "eps must be positive"),
                (1.0, 0.0, "T must be positive"),
                (1.0, math.inf, "T must be positive"),
                (1.0, math.nan, "T must be positive"),
                ("1", 1.0, "eps '1' is not a finite number"),
                (None, 1.0, "eps None is not a finite number"),
                (1.0, "1", "t_final '1' is not a finite number"),
                (1.0, None, "t_final None is not a finite number")):
            with pytest.raises(ValueError, match=message):
                rwa_infidelity(zero, eps, t_final)
