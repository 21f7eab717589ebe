import math
import warnings

import numpy as np
import pytest

from qgd.entangler import EntanglerCoords, canonical_entangler, wrap_angle
from qgd.equivalence import locally_equivalent, makhlin_invariants
from qgd.errors import UnsupportedOp
from qgd.hamiltonian import RotFrameParams, rot_frame_matrix
from qgd.pulses import (Entangle, GlobalPhase, PulseSchedule, Rotate,
                        trajectory)
from qgd.qmat import distance, expm_hermitian

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)

PI = math.pi


class TestCanonicalEntangler:
    def test_origin_is_identity(self):
        assert np.allclose(canonical_entangler(EntanglerCoords(0, 0, 0)),
                           np.eye(4))

    def test_z_axis_diagonal(self):
        a = canonical_entangler(EntanglerCoords(0, 0, PI / 4))
        ph = np.exp(-1j * PI / 4)
        assert np.allclose(a, np.diag([ph, ph.conjugate(), ph.conjugate(), ph]),
                           atol=1e-14)

    def test_swap_class_point(self):
        a = canonical_entangler(EntanglerCoords(PI / 4, PI / 4, PI / 4))
        assert locally_equivalent(a, SWAP)

    def test_periodicity(self, rng):
        c = EntanglerCoords(*rng.uniform(-3, 3, size=3))
        a = canonical_entangler(c)
        for k in range(3):
            shift = [0.0, 0.0, 0.0]
            shift[k] = 2 * PI
            shifted = EntanglerCoords(c.x + shift[0], c.y + shift[1],
                                      c.z + shift[2])
            assert distance(a, canonical_entangler(shifted)) < 1e-12

    def test_factorizes_over_axes(self, rng):
        x, y, z = rng.uniform(-2, 2, size=3)
        a = canonical_entangler(EntanglerCoords(x, y, z))
        ax = canonical_entangler(EntanglerCoords(x, 0, 0))
        ay = canonical_entangler(EntanglerCoords(0, y, 0))
        az = canonical_entangler(EntanglerCoords(0, 0, z))
        for prod in (ax @ ay @ az, az @ ax @ ay, ay @ az @ ax):
            assert distance(a, prod) < 1e-12

    @pytest.mark.parametrize("coords", [(1e308, 1e308, 0.0),
                                        (0.0, -1e308, -1e308),
                                        (1e308, 0.0, math.inf),
                                        (math.nan, 0.0, 0.0)])
    def test_overflowing_phase_rejected(self, coords):
        # Refused before anything is exponentiated: no numpy warning, and
        # a ValueError, not a Hermiticity or unitarity complaint.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="phase overflows|not a finite number"):
                canonical_entangler(EntanglerCoords(*coords))

    def test_area_theorem_cross_check(self, rng):
        # Constant J' = 0 evolution equals the entangler at the
        # integrated coordinates.
        j, jzz = rng.uniform(-1, 1, size=2)
        t = 0.9
        h = rot_frame_matrix(RotFrameParams(j, jzz, 0.0))
        u = expm_hermitian(h, t)
        a = canonical_entangler(EntanglerCoords(j * t, j * t, jzz * t))
        assert distance(u, a) < 1e-10


class TestCoordsWrap:
    def test_principal_cell(self):
        assert wrap_angle(PI) == PI
        assert wrap_angle(-PI) == PI
        assert abs(wrap_angle(3 * PI / 2) + PI / 2) < 1e-14
        c = EntanglerCoords(2 * PI + 0.1, -2 * PI - 0.1, 0.0).wrapped()
        assert np.allclose(c.as_array(), [0.1, -0.1, 0.0])


class TestTrajectory:
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
        from qgd.pulses import simulate_schedule
        p = RotFrameParams(0.9, -0.4, 0.0)
        sched = PulseSchedule((Entangle(0.31), Rotate("x", PI, 2),
                               Entangle(0.52), Rotate("y", PI, 1),
                               Entangle(0.17)))
        traj = trajectory(p, sched)
        a = canonical_entangler(traj.endpoint)
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
        assert lines[0] == "t,x,y,z,x_wrapped,y_wrapped,z_wrapped"
        assert len(lines) == 4
        assert lines[1] == "0,0,0,0,0,0,0"
