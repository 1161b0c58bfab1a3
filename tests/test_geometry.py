import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geoknot import chord_lower_bound, discrete_curvature
from conftest import heron_circumradius

coords = st.floats(-10.0, 10.0, allow_nan=False)


def vec(dim):
    return st.lists(coords, min_size=dim, max_size=dim).map(np.array)


class TestDiscreteCurvature:
    def test_collinear_middle_is_zero(self):
        assert discrete_curvature([0.0, 0.0], [1.0, 0.0], [2.0, 0.0]) == 0.0

    def test_right_angle_triple(self):
        got = discrete_curvature([0.0, 0.0], [1.0, 0.0], [1.0, 1.0])
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_semicircle_triple(self):
        got = discrete_curvature([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0])
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_acute_middle_is_infinite(self):
        assert discrete_curvature([0.0, 0.0], [1.0, 0.0], [0.0, 0.5]) == math.inf

    def test_collinear_same_side_is_infinite(self):
        assert discrete_curvature([0.0, 0.0], [2.0, 0.0], [1.0, 0.0]) == math.inf

    def test_repeated_point_rejected(self):
        with pytest.raises(ValueError):
            discrete_curvature([0.0, 0.0], [0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            discrete_curvature([1.0, 0.0], [0.0, 1.0], [1.0, 0.0])

    @pytest.mark.parametrize("x, y", [
        ([1.0, 0.0], [0.0, 1.0]),
        ([0.0, 0.0], [1.0, 0.0]),
        ([0.5, -1.0, 2.0], [0.0, 0.0, 0.0]),
    ])
    def test_coincident_endpoints_rejected(self, x, y):
        # x == z turns acutely; the acute test must not answer inf first.
        with pytest.raises(ValueError, match="distinct"):
            discrete_curvature(x, y, list(x))
        z = [-0.0 if v == 0.0 else v for v in x]  # equal, not bitwise
        with pytest.raises(ValueError, match="distinct"):
            discrete_curvature(x, y, z)

    @given(vec(3), vec(3), vec(3))
    def test_symmetric_in_endpoints(self, x, y, z):
        pts = [x, y, z]
        if min(
            np.linalg.norm(a - b)
            for k, a in enumerate(pts)
            for b in pts[k + 1:]
        ) < 1e-6:
            return
        assert discrete_curvature(x, y, z) == discrete_curvature(z, y, x)

    @given(vec(2), vec(2), vec(2))
    def test_inverse_circumradius_when_finite(self, x, y, z):
        # Needs a robustly non-degenerate triple: both formulas lose
        # precision together as the points approach a line.
        pts = [x, y, z]
        if min(
            np.linalg.norm(a - b)
            for k, a in enumerate(pts)
            for b in pts[k + 1:]
        ) < 0.1:
            return
        got = discrete_curvature(x, y, z)
        if not math.isfinite(got) or got < 1e-2:
            return
        R = heron_circumradius(x, y, z)
        if not math.isfinite(R):
            return
        assert got * R == pytest.approx(1.0, abs=1e-10)

    def test_obtuse_branch_condition(self):
        # Middle angle exactly 90 degrees sits on the finite branch.
        got = discrete_curvature([1.0, 0.0], [0.0, 0.0], [0.0, 1.0])
        assert math.isfinite(got)


class TestChordLowerBound:
    def test_half_turn(self):
        assert chord_lower_bound(1.0, math.pi) == pytest.approx(2.0, rel=1e-15)

    def test_quarter_turn_at_double_curvature(self):
        assert chord_lower_bound(2.0, math.pi / 2) == pytest.approx(1.0, rel=1e-15)

    def test_small_curvature_limit(self):
        assert chord_lower_bound(1e-9, 1.0) == pytest.approx(1.0, abs=1e-12)

    @given(
        st.floats(1e-6, 10.0, allow_nan=False),
        st.floats(0.0, 100.0, allow_nan=False),
    )
    def test_never_exceeds_arclength(self, kappa, s):
        if s > math.pi / kappa:
            return
        assert chord_lower_bound(kappa, s) <= s + 1e-12

    def test_gates(self):
        with pytest.raises(ValueError):
            chord_lower_bound(1.0, 4.0)  # s beyond pi/kappa
        with pytest.raises(ValueError):
            chord_lower_bound(0.0, 1.0)
        with pytest.raises(ValueError):
            chord_lower_bound(math.inf, 1.0)
        with pytest.raises(ValueError):
            chord_lower_bound(1.0, -0.1)

