import math
import warnings

import numpy as np
import pytest

from qgd.entangler import EntanglerCoords, _wrap, canonical_entangler
from qgd.equivalence import locally_equivalent
from qgd.hamiltonian import RotFrameParams, rot_frame_matrix
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

    @pytest.mark.parametrize("bad", [None, (0.1, 0.2, 0.3),
                                     np.array([0.1, 0.2, 0.3])])
    def test_rejects_non_coords(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="expected EntanglerCoords"):
                canonical_entangler(bad)

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
        assert _wrap(PI) == PI
        assert _wrap(-PI) == PI
        assert abs(_wrap(3 * PI / 2) + PI / 2) < 1e-14
        c = EntanglerCoords(2 * PI + 0.1, -2 * PI - 0.1, 0.0).wrapped()
        assert np.allclose(c.as_array(), [0.1, -0.1, 0.0])

    def test_coords_are_finite_python_floats(self):
        c = EntanglerCoords(np.float64(0.1), 1, np.int64(-2))
        assert [type(v) for v in (c.x, c.y, c.z)] == [float] * 3
        assert (c.x, c.y, c.z) == (0.1, 1.0, -2.0)

    @pytest.mark.parametrize("axis", "xyz")
    @pytest.mark.parametrize("bad", [None, math.inf, -math.inf, math.nan,
                                     "0.1", 1j])
    def test_non_finite_coordinate_refused_before_any_wrap(self, axis, bad):
        # No nan from as_array() and no numpy warning from wrapped(): the
        # coordinate is refused when the point is built.
        xyz = {"x": 0.3, "y": 0.2, "z": 0.1, axis: bad}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=f"entangler coordinate {axis} .* is not "
                                     "a finite number"):
                EntanglerCoords(**xyz).wrapped()
