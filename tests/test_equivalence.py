import math

import numpy as np
import pytest

from qgd.compiler import CNOT, CZ, SWAP, controlled_phase
from qgd.entangler import EntanglerCoords, canonical_entangler
from qgd import equivalence, qmat
from qgd.equivalence import (kak_decompose, locally_equivalent,
                             makhlin_invariants, weyl_canonicalize)
from qgd.errors import NotUnitary
from qgd.qmat import distance, kron

from conftest import haar_unitary, random_su2

PI = math.pi


def test_magic_basis_constants():
    assert equivalence.MAGIC is qmat.MAGIC
    assert np.array_equal(qmat.MAGIC_DAG, qmat.MAGIC.conj().T)
    assert np.allclose(qmat.MAGIC_DAG @ qmat.MAGIC, np.eye(4), atol=1e-15)
    # XX, YY and ZZ are diagonal in the magic basis, with +-1 entries.
    for k in range(3):
        d = np.diag(qmat.GEN_DIAGS[:, k])
        assert np.allclose(qmat.MAGIC @ d @ qmat.MAGIC_DAG,
                           qmat.PAULI_PAIRS[k, k], atol=1e-15)
    assert np.allclose(np.abs(qmat.GEN_DIAGS), 1.0, rtol=0, atol=1e-15)


class TestMakhlinInvariants:
    def test_cnot_golden(self):
        inv = makhlin_invariants(CNOT)
        assert abs(inv.g1) < 1e-12
        assert abs(inv.g2 - 1.0) < 1e-12

    def test_identity(self):
        inv = makhlin_invariants(np.eye(4))
        assert abs(inv.g1 - 1.0) < 1e-12
        assert abs(inv.g2 - 3.0) < 1e-12

    def test_swap(self):
        inv = makhlin_invariants(SWAP)
        assert abs(inv.g1 + 1.0) < 1e-12
        assert abs(inv.g2 + 3.0) < 1e-12

    def test_local_invariance(self, rng):
        for _ in range(200):
            u = haar_unitary(rng)
            base = makhlin_invariants(u)
            dressed = (kron(random_su2(rng), random_su2(rng)) @ u
                       @ kron(random_su2(rng), random_su2(rng)))
            inv = makhlin_invariants(dressed)
            assert abs(inv.g1 - base.g1) < 1e-10
            assert abs(inv.g2 - base.g2) < 1e-10

    def test_phase_invariance(self, rng):
        u = haar_unitary(rng)
        base = makhlin_invariants(u)
        inv = makhlin_invariants(np.exp(1j * 1.234) * u)
        assert abs(inv.g1 - base.g1) < 1e-12
        assert abs(inv.g2 - base.g2) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            makhlin_invariants(np.ones((4, 4), dtype=complex))


class TestLocallyEquivalent:
    def test_cz_cnot(self):
        assert locally_equivalent(CZ, CNOT)

    def test_axis_entangler_vs_controlled_phase(self):
        theta = 0.7
        a = canonical_entangler(EntanglerCoords(theta / 4, 0, 0))
        assert locally_equivalent(a, controlled_phase(theta))

    def test_cnot_vs_swap(self):
        assert not locally_equivalent(CNOT, SWAP)


class TestKakDecompose:
    def test_entangler_round_trip(self):
        c = EntanglerCoords(0.3, 0.2, 0.1)
        a = canonical_entangler(c)
        f = kak_decompose(a)
        assert distance(f.reconstruct(), a) < 1e-9
        assert locally_equivalent(canonical_entangler(f.coords), a)

    def test_cnot_class_coords(self):
        f = kak_decompose(CNOT)
        assert distance(f.reconstruct(), CNOT) < 1e-9
        target = canonical_entangler(EntanglerCoords(PI / 4, 0, 0))
        assert locally_equivalent(canonical_entangler(f.coords), target)

    def test_local_factors_special_unitary(self, rng):
        f = kak_decompose(haar_unitary(rng))
        for m in (*f.u_post, *f.u_pre):
            assert abs(np.linalg.det(m) - 1) < 1e-12
            assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12

    def test_coords_in_principal_cell(self, rng):
        for _ in range(50):
            f = kak_decompose(haar_unitary(rng))
            for v in f.coords.as_array():
                assert -PI < v <= PI
            assert -PI < f.phase <= PI

    @pytest.mark.parametrize("gate", [np.eye(4, dtype=complex), CNOT, CZ,
                                      SWAP, SWAP @ CNOT])
    def test_degenerate_inputs(self, gate):
        f = kak_decompose(gate)
        assert distance(f.reconstruct(), gate) < 1e-9

    def test_haar_round_trip(self, rng):
        for _ in range(200):
            u = haar_unitary(rng)
            f = kak_decompose(u)
            assert distance(f.reconstruct(), u) < 1e-9
            gu = makhlin_invariants(u)
            ga = makhlin_invariants(canonical_entangler(f.coords))
            assert abs(gu.g1 - ga.g1) + abs(gu.g2 - ga.g2) < 1e-9

    def test_deterministic(self, rng):
        u = haar_unitary(rng)
        f1, f2 = kak_decompose(u), kak_decompose(u)
        assert f1.phase == f2.phase
        assert np.array_equal(f1.coords.as_array(), f2.coords.as_array())

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            kak_decompose(2 * np.eye(4, dtype=complex))

    def test_json_shape(self, rng):
        import json
        d = kak_decompose(haar_unitary(rng)).to_dict()
        json.dumps(d)
        assert set(d) == {"phase", "coords", "u_pre", "u_post"}
        assert len(d["coords"]) == 3


class TestWeylCanonicalize:
    def test_z_axis_maps_to_x_axis(self):
        c = weyl_canonicalize(EntanglerCoords(0, 0, PI / 4))
        assert np.allclose(c.as_array(), [PI / 4, 0, 0], atol=1e-14)

    def test_already_canonical(self):
        c = weyl_canonicalize(EntanglerCoords(PI / 4, 0, 0))
        assert np.allclose(c.as_array(), [PI / 4, 0, 0], atol=1e-14)

    def test_sign_flip(self):
        c = weyl_canonicalize(EntanglerCoords(-PI / 4, 0, 0))
        assert np.allclose(c.as_array(), [PI / 4, 0, 0], atol=1e-14)

    def test_idempotent_and_invariant_preserving(self, rng):
        for _ in range(300):
            c = EntanglerCoords(*rng.uniform(-2 * PI, 2 * PI, size=3))
            w = weyl_canonicalize(c)
            w2 = weyl_canonicalize(w)
            assert np.allclose(w.as_array(), w2.as_array(), atol=1e-12)
            gi = makhlin_invariants(canonical_entangler(c))
            gw = makhlin_invariants(canonical_entangler(w))
            assert abs(gi.g1 - gw.g1) + abs(gi.g2 - gw.g2) < 1e-10

    def test_no_snap_near_the_pi_over_4_face(self):
        # A class within a few 1e-6 of the face x = pi/4 must keep its
        # distance from it: snapping -pi/4 + d to +pi/4 would move it out
        # of its class by ~d.
        for d in np.linspace(1e-6, 7e-6, 7):
            c = EntanglerCoords(PI / 4 + d, 0.3, 0.1)
            w = weyl_canonicalize(c)
            gi = makhlin_invariants(canonical_entangler(c))
            gw = makhlin_invariants(canonical_entangler(w))
            assert abs(gi.g1 - gw.g1) + abs(gi.g2 - gw.g2) < 1e-13
            assert np.allclose(w.as_array(), [PI / 4 - d, 0.3, -0.1],
                               rtol=0, atol=1e-15)

    def test_chamber_bounds(self, rng):
        for _ in range(200):
            w = weyl_canonicalize(
                EntanglerCoords(*rng.uniform(-7, 7, size=3)))
            x, y, z = w.as_array()
            assert PI / 4 + 1e-12 >= x >= y >= abs(z) - 1e-12
            assert y >= 0
