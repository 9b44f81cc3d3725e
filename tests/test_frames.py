import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from filter_reference import velocity_angle
from kitefusion import frames
from kitefusion.errors import DegenerateInputError, DomainError


class TestSphericalToCartesian:
    def test_zenith(self):
        assert_allclose(frames.spherical_to_cartesian(math.pi / 2, 0.3, 30.0),
                        [0.0, 0.0, 30.0], atol=1e-12)

    def test_horizon_downwind(self):
        assert_allclose(frames.spherical_to_cartesian(0.0, 0.0, 30.0),
                        [30.0, 0.0, 0.0], atol=1e-12)

    def test_reference_point(self):
        # Reference values computed independently with 50-digit arithmetic
        # (mpmath) for theta=0.7, phi=-0.75, r=30.
        expected = [16.788795446434992, -15.640382404624002, 19.326530617130732]
        assert_allclose(frames.spherical_to_cartesian(0.7, -0.75, 30.0),
                        expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("r", [0.0, -1.0, math.inf])
    def test_bad_radius(self, r):
        # An infinite radius would put the point at [inf, inf, inf].
        with pytest.raises(DomainError, match="r must be positive and finite"):
            frames.spherical_to_cartesian(0.3, 0.1, r)

    def test_elevation_out_of_range(self):
        with pytest.raises(DomainError):
            frames.spherical_to_cartesian(1.8, 0.0, 30.0)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_azimuth_rejected(self, phi):
        with pytest.raises(DomainError, match="azimuth"):
            frames.spherical_to_cartesian(0.3, phi, 30.0)

    def test_on_sphere_by_construction(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p = frames.spherical_to_cartesian(rng.uniform(-1.5, 1.5), rng.uniform(-3.1, 3.1),
                                              30.0)
            assert np.linalg.norm(p) == pytest.approx(30.0, abs=1e-12)


class TestCartesianToSpherical:
    def test_downwind(self):
        theta, phi = frames.cartesian_to_spherical(np.array([30.0, 0.0, 0.0]), 30.0)
        assert theta == 0.0
        assert phi == 0.0

    def test_zenith_axis_degenerate(self):
        with pytest.raises(DegenerateInputError):
            frames.cartesian_to_spherical(np.array([0.0, 0.0, 30.0]), 30.0)

    def test_z_above_radius_rejected(self):
        p = np.array([1.0, 0.0, 30.0 * (1.0 + 1e-8)])
        with pytest.raises(DomainError):
            frames.cartesian_to_spherical(p, 30.0)

    @pytest.mark.parametrize("xy", [(math.inf, 1.0), (math.nan, 1.0), (1.0, -math.inf)])
    def test_non_finite_xy_rejected(self, xy):
        with pytest.raises(DomainError):
            frames.cartesian_to_spherical(np.array([*xy, 3.0]), 30.0)

    def test_nan_height_rejected(self):
        with pytest.raises(DomainError):
            frames.cartesian_to_spherical(np.array([1.0, 1.0, math.nan]), 30.0)

    def test_z_within_tolerance_clamped(self):
        p = np.array([1e-6, 0.0, 30.0 * (1.0 + 1e-10)])
        theta, _ = frames.cartesian_to_spherical(p, 30.0)
        assert theta == pytest.approx(math.pi / 2)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            theta = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)
            phi = rng.uniform(-math.pi, math.pi)
            p = frames.spherical_to_cartesian(theta, phi, 30.0)
            theta2, phi2 = frames.cartesian_to_spherical(p, 30.0)
            assert abs(theta2 - theta) < 1e-12
            assert abs(frames.wrap_angle(phi2 - phi)) < 1e-12

    @given(theta=st.floats(-math.pi / 2, math.pi / 2), phi=st.floats(-math.pi, math.pi),
           r=st.floats(1e-3, 1e6))
    def test_round_trip_property(self, theta, phi, r):
        """The angles come back to rounding; the elevation's error grows
        as 1/cos(theta) toward the zenith, where arcsin loses its slope,
        and an azimuth error moves the point by cos(theta) times it."""
        theta2, phi2 = frames.cartesian_to_spherical(frames.spherical_to_cartesian(theta, phi, r), r)
        assert abs(theta2) <= math.pi / 2 and abs(phi2) <= math.pi
        assert abs(theta2 - theta) * math.cos(theta) <= 1e-15
        assert abs(frames.wrap_angle(phi2 - phi)) <= 1e-15

    def test_infinite_radius_rejected(self):
        # z / r would read elevation 0.0 for a point 5 m up.
        with pytest.raises(DomainError, match="r must be positive and finite"):
            frames.cartesian_to_spherical(np.array([1.0, 2.0, 5.0]), math.inf)


class TestRotGToL:
    def test_zenith(self):
        expected = np.array([
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, -1.0],
        ])
        assert_allclose(frames.rot_g_to_l(math.pi / 2, 0.0), expected, atol=1e-15)

    def test_horizon(self):
        expected = np.array([
            [0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0],
        ])
        assert_allclose(frames.rot_g_to_l(0.0, 0.0), expected, atol=1e-15)

    def test_orthonormal_proper(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            R = frames.rot_g_to_l(rng.uniform(-math.pi / 2, math.pi / 2),
                                  rng.uniform(-math.pi, math.pi))
            assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)

    def test_sends_position_to_local_down(self):
        rng = np.random.default_rng(13)
        r = 30.0
        for _ in range(200):
            theta = rng.uniform(-math.pi / 2, math.pi / 2)
            phi = rng.uniform(-math.pi, math.pi)
            p = frames.spherical_to_cartesian(theta, phi, r)
            assert_allclose(frames.rot_g_to_l(theta, phi) @ p, [0.0, 0.0, -r], atol=1e-9)


class TestRotNedToG:
    def test_aligned(self):
        expected = np.array([
            [1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
        ])
        assert_allclose(frames.rot_ned_to_g(0.0), expected, atol=1e-15)

    def test_east_heading(self):
        expected = np.array([
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0],
        ])
        assert_allclose(frames.rot_ned_to_g(math.pi / 2), expected, atol=1e-15)

    def test_symmetric_involution(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            R = frames.rot_ned_to_g(rng.uniform(-math.pi, math.pi))
            assert_allclose(R, R.T, atol=1e-15)
            assert_allclose(R @ R, np.eye(3), atol=1e-12)
            assert_allclose(R @ R.T, np.eye(3), atol=1e-12)


class TestVelocityAngle:
    """The reference copy the estimator oracles build on."""

    @pytest.mark.parametrize("v, expected", [
        ([1.0, 0.0, 0.0], 0.0),
        ([0.0, 1.0, 0.0], math.pi / 2),
        ([-1.0, 0.0, 0.5], math.pi),
    ])
    def test_cardinal_directions(self, v, expected):
        assert velocity_angle(np.array(v)) == pytest.approx(expected)

    def test_scale_invariant(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            v = rng.normal(size=3)
            k = rng.uniform(0.1, 50.0)
            assert velocity_angle(v * k) == pytest.approx(velocity_angle(v))

    def test_zero_tangent_velocity(self):
        with pytest.raises(DegenerateInputError):
            velocity_angle(np.array([0.0, 0.0, -3.0]))


class TestWrapAngle:
    @pytest.mark.parametrize("angle, expected", [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3 * math.pi / 2, -math.pi / 2),
        (2 * math.pi, 0.0),
        (-7 * math.pi / 3, -math.pi / 3),
    ])
    def test_values(self, angle, expected):
        assert frames.wrap_angle(angle) == pytest.approx(expected, abs=1e-12)

    def test_array_input(self):
        out = frames.wrap_angle(np.array([0.0, -math.pi, 3 * math.pi]))
        assert_allclose(out, [0.0, math.pi, math.pi], atol=1e-12)

    def test_interval(self):
        rng = np.random.default_rng(16)
        w = frames.wrap_angle(rng.uniform(-50, 50, size=1000))
        assert np.all(w > -math.pi)
        assert np.all(w <= math.pi)

    def test_scalar_and_array_paths_agree_bit_for_bit(self):
        angles = np.random.default_rng(17).uniform(-50, 50, size=1000)
        wrapped = frames.wrap_angle(angles)
        for angle, expected in zip(angles, wrapped):
            for value in (float(angle), angle, np.array(angle)):
                out = frames.wrap_angle(value)
                assert type(out) is float and out == expected
