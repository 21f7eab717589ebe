import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qgd.compiler import CNOT, CZ, SWAP, compile_cnot, controlled_phase
from qgd.entangler import EntanglerCoords, canonical_entangler
from qgd import equivalence, qmat
from qgd.hamiltonian import RotFrameParams
from qgd.pulses import Entangle, PulseSchedule, verify_schedule
from qgd.equivalence import (kak_decompose, locally_equivalent,
                             makhlin_invariants, weyl_canonicalize)
from qgd.errors import NotUnitary
from qgd.qmat import distance, kron

from conftest import (GEN_DIAGS, MAGIC, MAGIC2, MAGIC_DAG, PAULIS,
                      haar_unitary, noisy_unitaries, off_unitarity,
                      random_su2)

PI = math.pi


def _dressed(rng, core):
    return (kron(random_su2(rng), random_su2(rng)) @ core
            @ kron(random_su2(rng), random_su2(rng)))


def test_magic_basis_constants():
    # KAK's private magic basis is the tests' own, bit for bit.
    assert equivalence._MAGIC2.tobytes() == MAGIC2.tobytes()
    assert equivalence._MAGIC.tobytes() == MAGIC.tobytes()
    assert equivalence._MAGIC_DAG.tobytes() == MAGIC_DAG.tobytes()
    assert np.allclose(MAGIC_DAG @ MAGIC, np.eye(4), atol=1e-15)
    # XX, YY and ZZ are diagonal in the magic basis, with +-1 entries.
    for k, p in enumerate(PAULIS):
        assert np.allclose(MAGIC @ np.diag(GEN_DIAGS[:, k]) @ MAGIC_DAG,
                           np.kron(p, p), atol=1e-15)
    # Exactly +-1: the eigenphase system is then an exact Hadamard matrix.
    assert equivalence._GEN_DIAGS.tobytes() == GEN_DIAGS.tobytes()
    assert np.array_equal(
        equivalence._PHASE_INVERSE @ equivalence._PHASE_SYSTEM, np.eye(4))
    # The quaternion map: entries exactly 0 or +-1/4, and 4 _ASSOC is
    # orthogonal (the 16 products sigma_j (x) sigma_k are a basis).
    assoc = equivalence._ASSOC
    assert set(np.unique(assoc)) <= {-0.25, 0.0, 0.25}
    assert np.array_equal(4 * assoc @ assoc.T, np.eye(16))
    # Both are read off the exact sqrt(2) Q: bit for bit the formulas over
    # Q, rounded to the nearest integer, that they replace.
    gen = np.rint(np.stack([
        np.real(np.diag(MAGIC_DAG @ np.kron(p, p) @ MAGIC))
        for p in PAULIS], axis=1))
    assert gen.tobytes() == equivalence._GEN_DIAGS.tobytes()
    quaternions = [np.eye(2)] + [-1j * p for p in PAULIS]
    rounded = np.rint(np.array([
        (MAGIC_DAG @ np.kron(p, q) @ MAGIC).real.ravel()
        for p in quaternions for q in quaternions])) / 4
    assert rounded.tobytes() == assoc.tobytes()


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


def _magic_basis_invariants(u):
    """(G1, G2) by their definition: m = ub^T ub, ub = Q^dag u Q."""
    ub = MAGIC_DAG @ u @ MAGIC
    m = ub.T @ ub
    det = np.prod(np.linalg.eigvals(ub))
    tr = np.trace(m)
    return tr**2 / (16 * det), (tr**2 - np.trace(m @ m)) / (4 * det)


class TestMakhlinKernel:
    """_makhlin reads the invariants off m' = u^T (Y (x) Y) u (Y (x) Y),
    with no magic basis."""

    def test_magic_basis_times_its_transpose_is_minus_yy(self):
        # Q Q^T = -Y (x) Y; exact on the exact sqrt(2) Q, and within the
        # rounding of 1/sqrt(2) on Q itself.
        yy = np.kron(PAULIS[1], PAULIS[1])
        assert np.array_equal(MAGIC2 @ MAGIC2.T, -2 * yy)
        assert np.abs(MAGIC @ MAGIC.T + yy).max() <= 2.3e-16
        # The signed mirror the kernel takes is (Y (x) Y) u (Y (x) Y).
        u = np.arange(16.0).reshape(4, 4) + 1j
        assert np.array_equal(equivalence._YY_SIGNS * u[::-1, ::-1],
                              yy @ u @ yy)

    def test_matches_the_magic_basis_definition(self, rng):
        gates = [haar_unitary(rng) for _ in range(1000)]
        gates += [np.eye(4), CNOT, CZ, SWAP]
        gates += [controlled_phase(t) for t in np.linspace(-PI, PI, 9)]
        gates += [canonical_entangler(EntanglerCoords(x, x, 0.0))
                  for x in np.linspace(-PI / 2, PI / 2, 9)]
        for u in gates:
            inv, det = equivalence._makhlin(u)
            g1, g2 = _magic_basis_invariants(u)
            assert abs(inv.g1 - g1) < 1e-14
            assert abs(inv.g2 - g2) < 1e-14
            assert abs(det - np.prod(np.linalg.eigvals(u))) < 1e-14

    def test_noisy_gates_match_the_magic_basis_form(self):
        # Noise of 10^-10.5 to 10^-9.5, which once put G2's imaginary
        # residual around a refusal bound of its own: the kernel checks
        # nothing, so every gate gets the magic-basis form's G1 and G2,
        # from m = ub^T ub, symmetric, with det ub by Laplace expansion.
        rng = np.random.default_rng(20031)
        for _ in range(400):
            u = haar_unitary(rng) + 10 ** rng.uniform(-10.5, -9.5) * (
                rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            ub = MAGIC_DAG @ u @ MAGIC
            m = ub.T @ ub
            tr2 = complex(m.trace()) ** 2
            det = equivalence._det4(ub.tolist())
            g2 = (tr2 - complex((m * m).sum())) / (4 * det)
            inv, _ = equivalence._makhlin(u)
            assert abs(inv.g1 - tr2 / (16 * det)) < 1e-14
            assert abs(inv.g2 - g2.real) < 1e-14


class TestInvariantsMemo:
    """makhlin_invariants computes each distinct input content once."""

    MEMO = equivalence._invariants

    @pytest.mark.parametrize("entry", [
        makhlin_invariants, lambda u: locally_equivalent(u, CNOT)],
        ids=["makhlin", "locally_equivalent"])
    def test_input_mutated_in_place_is_checked_again(self, entry):
        u = CZ.copy()
        entry(u)
        u[0, 0] = 2.0
        with pytest.raises(NotUnitary):
            entry(u)

    @pytest.mark.parametrize("entry, kept", [
        (makhlin_invariants, 0), (lambda u: locally_equivalent(CNOT, u), 1)],
        ids=["makhlin", "locally_equivalent"])
    def test_failed_check_is_not_memoized(self, entry, kept):
        self.MEMO.cache_clear()
        for _ in range(3):
            with pytest.raises(NotUnitary):
                entry(2 * SWAP)
        info = self.MEMO.cache_info()
        assert (info.currsize, info.misses) == (kept, 3 + kept)

    def test_memo_stays_at_its_bound(self, rng):
        for _ in range(100):
            locally_equivalent(haar_unitary(rng), haar_unitary(rng))
        info = self.MEMO.cache_info()
        assert info.currsize == info.maxsize == equivalence._MEMO_SIZE

    def test_memoized_invariants_are_read_only(self):
        inv = makhlin_invariants(CNOT)
        assert makhlin_invariants(CNOT.copy()) is inv
        with pytest.raises(dataclasses.FrozenInstanceError):
            inv.g2 = 0.0
        # So is the checked gate kept beside them.
        _, gate, _ = equivalence._invariants(CNOT.tobytes())
        with pytest.raises(ValueError, match="read-only"):
            gate[0, 0] = 0.0

    def test_kak_after_invariants_is_one_hit(self, rng):
        u = haar_unitary(rng)
        makhlin_invariants(u)
        before = self.MEMO.cache_info()
        kak_decompose(u.copy())
        after = self.MEMO.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_kak_leaves_the_memo_record_unchanged(self, rng):
        # KAK flips columns of its own arrays, never of the memo's.
        for u in (haar_unitary(rng), CNOT, SWAP, np.eye(4)):
            _, ub, _ = equivalence._invariants(
                np.asarray(u, complex).tobytes())
            saved = ub.copy()
            first = kak_decompose(u)
            second = kak_decompose(u.copy())
            assert first.coords == second.coords
            assert first.phase == second.phase
            for f, g in zip((*first.u_post, *first.u_pre),
                            (*second.u_post, *second.u_pre)):
                assert np.array_equal(f, g)
            assert np.array_equal(ub, saved)

    def test_cold_and_warm_results_agree(self, rng):
        u = haar_unitary(rng)
        self.MEMO.cache_clear()
        cold = makhlin_invariants(u)
        cold_equiv = locally_equivalent(u, CNOT)
        hits = self.MEMO.cache_info().hits
        assert hits >= 1  # locally_equivalent found u kept
        warm = makhlin_invariants(u)
        assert self.MEMO.cache_info().hits == hits + 1
        assert warm == cold and warm.to_dict() == cold.to_dict()
        assert locally_equivalent(u, CNOT) == cold_equiv
        # Equal content, whatever the layout or dtype, is one entry.
        assert makhlin_invariants(np.asfortranarray(u)) == cold
        assert makhlin_invariants(u.tolist()) == cold
        real = np.eye(4)
        assert makhlin_invariants(real) == makhlin_invariants(
            real.astype(complex))


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

    def test_coords_within_three_quarter_pi(self, rng):
        # kak_decompose does not wrap: theta_k = angle(d_k) / 2, with pi
        # added to theta_0 on a det flip, puts |x|, |y|, |z| <= 3pi/4 and
        # the phase in [-pi/2, 3pi/4], inside (-pi, pi].
        grid = np.linspace(-PI, PI, 9)[1:]
        gates = [haar_unitary(rng) for _ in range(5000)]
        gates += [np.eye(4, dtype=complex), CNOT, CZ, SWAP, SWAP @ CNOT]
        gates += [controlled_phase(t) for t in
                  [*np.geomspace(1e-9, 1e-1, 9), *np.linspace(0.2, PI, 15)]]
        gates += [_dressed(rng, canonical_entangler(EntanglerCoords(x, y, z)))
                  for x in grid for y in grid for z in grid]
        phases = []
        for u in gates:
            f = kak_decompose(u)
            assert max(map(abs, f.coords.as_array())) <= 3 * PI / 4
            assert -PI / 2 <= f.phase <= 3 * PI / 4
            phases.append(f.phase)
        # The det-flip branch (theta_0 + pi) is taken.
        assert max(phases[:5000]) > PI / 2

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

    def test_one_eigh_per_gate_and_one_per_degenerate_cluster(
            self, rng, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            shapes.append(a.shape)
            return eigh(a)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        kak_decompose(haar_unitary(rng))
        assert shapes == [(4, 4)]
        # A(x, x, 0) has the conjugate eigenphase pair e^{+-4ix}: Re m is
        # degenerate there and Im m separates the pair.
        shapes.clear()
        kak_decompose(_dressed(rng, canonical_entangler(
            EntanglerCoords(0.3, 0.3, 0))))
        assert shapes == [(4, 4), (2, 2)]

    def test_eigh_count_per_haar_gate_and_at_the_retry_point(
            self, rng, monkeypatch):
        # One eigh per Haar gate: the eigenbasis returns at once when no
        # columns couple. Two per dressed A(x, x, 0) at the benchmark's
        # x = atan(pi^2) / 2: the cluster walk still runs there.
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(a.shape)
            return eigh(a)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        for _ in range(50):
            kak_decompose(haar_unitary(rng))
        assert len(calls) == 50
        calls.clear()
        x = math.atan(PI ** 2) / 2
        core = canonical_entangler(EntanglerCoords(x, x, 0))
        for _ in range(50):
            kak_decompose(_dressed(rng, core))
        assert len(calls) == 100

    @pytest.mark.parametrize("core", [
        canonical_entangler(EntanglerCoords(0.3, 0.3, 0)),
        controlled_phase(1e-4),
        canonical_entangler(EntanglerCoords(PI / 4, 1e-6, 0)),
        canonical_entangler(EntanglerCoords(PI / 4, 1e-9, 0)),
    ], ids=["A(0.3, 0.3, 0)", "C(1e-4)", "A(pi/4, 1e-6, 0)",
            "A(pi/4, 1e-9, 0)"])
    def test_degenerate_re_m_rebuilds(self, rng, core):
        # Re m is exactly degenerate for A(x, x, 0) and degenerate within
        # ~5e-9 for a controlled phase of 1e-4, whose eigh(Re m) columns
        # then couple at ~1e-12: the refinement must resolve both. Near
        # CNOT, A(pi/4, y, 0) has Re m eigenvalues +-sin 2y, each twice:
        # eigh(Re m) leaks across the 2 sin 2y gap, Im m then pairs
        # columns of opposite Re m, and Re m must split those again.
        for _ in range(50):
            u = _dressed(rng, core)
            f = kak_decompose(u)
            assert np.linalg.norm(f.reconstruct() - u) < 1e-12
            assert locally_equivalent(canonical_entangler(f.coords), core)

    def test_noisy_gates_the_invariants_accept_decompose(self):
        # Every gate within UNITARY_TOL decomposes, rebuilt to within its
        # own deviation from unitarity.
        accepted = 0
        for u in noisy_unitaries(np.random.default_rng(2027), 2000):
            try:
                makhlin_invariants(u)
            except NotUnitary:
                continue
            accepted += 1
            deviation = np.linalg.norm(u.conj().T @ u - np.eye(4))
            rebuilt = kak_decompose(u).reconstruct()
            assert np.linalg.norm(rebuilt - u) <= deviation
        assert accepted > 1000

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None])
    @pytest.mark.parametrize("axis", "xyz")
    def test_rejects_non_finite(self, axis, bad):
        xyz = {"x": 0.3, "y": 0.2, "z": 0.1, axis: bad}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"coordinate {axis} "):
                weyl_canonicalize(EntanglerCoords(**xyz))

    @pytest.mark.parametrize("bad", [(0.1, 0.2, 0.3), None,
                                     np.array([0.1, 0.2, 0.3])])
    def test_rejects_non_coords(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="expected EntanglerCoords"):
                weyl_canonicalize(bad)

    def test_chamber_bounds(self, rng):
        for _ in range(200):
            w = weyl_canonicalize(
                EntanglerCoords(*rng.uniform(-7, 7, size=3)))
            x, y, z = w.as_array()
            assert PI / 4 + 1e-12 >= x >= y >= abs(z) - 1e-12
            assert y >= 0

    @pytest.mark.parametrize("coords", [
        (7e15, 0.1, 0.05), (-3e16, 0.2, 0.1), (1e300, 0.3, -0.2),
        (0.3, -1e300, 1e300), (1e16, 3e17, -5e18), (-1.7e308, 1e15, 2.5)])
    def test_large_coordinates_stay_in_the_chamber(self, coords):
        # The reduction a - pi/2 floor((a + pi/4) / (pi/2)) rounded once
        # |a| ~ 1e15 and put 7e15 at x = 1.0; math.remainder is exact.
        w = weyl_canonicalize(EntanglerCoords(*coords))
        assert PI / 4 >= w.x >= w.y >= abs(w.z)
        assert weyl_canonicalize(w) == w


def _verify_target(target):
    return verify_schedule(PulseSchedule((Entangle(0.1),)),
                           RotFrameParams(1.0, 0.0, 0.0), target)


def _distance_either_side(bad):
    with pytest.raises(ValueError, match="4x4"):
        distance(np.eye(4), bad)
    return distance(bad, np.eye(4))


@pytest.mark.parametrize("entry", [makhlin_invariants, kak_decompose,
                                   _verify_target, _distance_either_side],
                         ids=["makhlin", "kak", "verify_schedule",
                              "distance"])
@pytest.mark.parametrize("bad, shape", [
    (np.eye(2), "(2, 2)"), (np.eye(8), "(8, 8)"),
    (np.eye(4)[None], "(1, 4, 4)"), ([[1, 0], [0]], None)],
    ids=["eye2", "eye8", "stacked", "ragged"])
def test_entry_points_refuse_non_4x4(entry, bad, shape):
    with pytest.raises(ValueError, match="4x4") as exc:
        entry(bad)
    if shape is not None:
        assert f"shape {shape}" in str(exc.value)


_STRINGS = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
            ["0", "0", "0", "1"], ["0", "0", "1", "0"]]


@pytest.mark.parametrize("entry", [makhlin_invariants, kak_decompose,
                                   _verify_target, _distance_either_side],
                         ids=["makhlin", "kak", "verify_schedule",
                              "distance"])
@pytest.mark.parametrize("bad, dtype", [
    (_STRINGS, "<U1"), ([row[:2] for row in _STRINGS[:2]], "<U1"),
    (None, "object"), (np.array(CNOT, dtype=object), "object"),
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, None], [0, 0, 1, 0]],
     "object"), (np.zeros((4, 4), dtype="M8[s]"), r"datetime64\[s\]")],
    ids=["strings", "strings2x2", "none", "object_gate", "none_entry",
         "datetime"])
def test_entry_points_refuse_non_numbers(entry, bad, dtype):
    # One dtype check admits int, uint, float and complex entries;
    # numpy would otherwise parse "1" as 1.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"expected a 4x4 matrix of "
                           rf"numbers, not {dtype}"):
            entry(bad)


def _residual_failing_gate():
    """A Haar gate whose unitarity residual u^dag u - I has an entry of
    2e-9, twice UNITARY_TOL: require_unitary, the one unitarity rule,
    refuses it."""
    return off_unitarity(np.random.default_rng(0), 2e-9)


@pytest.mark.parametrize("entry", [makhlin_invariants, kak_decompose,
                                   _verify_target],
                         ids=["makhlin", "kak", "verify_schedule"])
def test_residual_failing_gate_is_refused_on_every_call(entry):
    u = _residual_failing_gate()
    misses = equivalence._invariants.cache_info().misses
    for _ in range(3):
        with pytest.raises(NotUnitary, match="deviates from unitarity"):
            entry(u)
    # Each call checked the gate anew: the failure was not memoized.
    assert equivalence._invariants.cache_info().misses == misses + 3


def test_target_is_checked_before_simulation():
    # The schedule's phase overflows; the target is checked first.
    sched = PulseSchedule((Entangle(1e308),))
    params = RotFrameParams(1e300, 0.0, 0.0)
    with pytest.raises(ValueError, match="phase overflows"):
        verify_schedule(sched, params, CNOT)
    with pytest.raises(NotUnitary, match="deviates from unitarity"):
        verify_schedule(sched, params, _residual_failing_gate())


@pytest.mark.parametrize("deviation", [1e-10, 3e-10, 5e-10, 7e-10, 9e-10])
def test_gates_within_unitary_tol_are_accepted(deviation):
    # require_unitary alone decides unitarity: every gate it accepts is
    # accepted by each entry point, and KAK rebuilds it to within half its
    # deviation. Once a G2-residual bound of 1e-10 refused some of these.
    rng = np.random.default_rng(39)
    for _ in range(20):
        u = off_unitarity(rng, deviation)
        makhlin_invariants(u)
        _verify_target(u)
        rebuilt = kak_decompose(u).reconstruct()
        half = np.linalg.norm(u.conj().T @ u - np.eye(4)) / 2
        assert np.linalg.norm(rebuilt - u) <= half + 1e-13


def test_no_lu_determinant_is_needed(rng, monkeypatch):
    # Every determinant is a Laplace expansion on Python scalars.
    u = haar_unitary(rng)
    dressed = (kron(random_su2(rng), random_su2(rng)) @ CNOT
               @ kron(random_su2(rng), random_su2(rng)))

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.det called")

    monkeypatch.setattr(np.linalg, "det", refuse)
    equivalence._invariants.cache_clear()
    for gate in (u, dressed, CNOT, SWAP):
        makhlin_invariants(gate)
        f = kak_decompose(gate)
        assert distance(f.reconstruct(), gate) < 1e-9
    params = RotFrameParams(0.8, -0.3, 0.1)
    assert verify_schedule(PulseSchedule((Entangle(0.4),)), params,
                           u).exact_distance > 0
    assert compile_cnot(params).verification.exact_distance < 1e-9


def test_import_leaves_numpy_random_unloaded():
    # The library draws no random numbers, so nothing in it may load
    # numpy.random, and only qgd.cli imports click: either module would
    # add its own import time to every import qgd.
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = ("import sys, qgd; "
            "print([m for m in ('numpy.random', 'click') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
