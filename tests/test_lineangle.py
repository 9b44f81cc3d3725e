import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kitefusion import frames, lineangle
from kitefusion.errors import DegenerateInputError, DomainError
from kitefusion.lineangle import (
    EncoderGeometry,
    EncoderReading,
    angles_to_encoder,
    encoder_to_angles,
    quantize,
    resolution,
)

# Zero mounting offsets: the guide sits on the arm axis at unit reach and
# the pivot on the reference origin, so the encoders read the wing angles.
PASSTHROUGH = EncoderGeometry(guide_rise=0.0, guide_reach=1.0,
                              pivot_height=0.0, pivot_setback=0.0)

BENCH = EncoderGeometry(guide_rise=0.1, guide_reach=0.3,
                        pivot_height=0.05, pivot_setback=0.05)


class TestEncoderToAngles:
    def test_passthrough_geometry(self):
        theta, phi = encoder_to_angles(EncoderReading(0.5, 0.3), PASSTHROUGH)
        assert theta == pytest.approx(0.5, abs=1e-12)
        assert phi == pytest.approx(0.3, abs=1e-12)

    def test_bench_reference_point(self):
        # Reference values computed independently with 50-digit arithmetic
        # (mpmath) for theta_b=0.5, phi_b=0 on the BENCH geometry.
        theta, phi = encoder_to_angles(EncoderReading(0.5, 0.0), BENCH)
        assert theta == pytest.approx(0.38571792893616741, abs=1e-12)
        assert phi == 0.0

    def test_elevation_monotone_in_arm_angle(self):
        thetas = [encoder_to_angles(EncoderReading(tb, 0.2), BENCH)[0]
                  for tb in np.linspace(0.1, 1.2, 40)]
        assert np.all(np.diff(thetas) > 0)

    def test_vertical_tether_degenerate(self):
        geo = EncoderGeometry(guide_rise=0.0, guide_reach=0.1,
                              pivot_height=0.0, pivot_setback=0.1)
        with pytest.raises(DegenerateInputError):
            encoder_to_angles(EncoderReading(0.0, 0.0), geo)

    def test_geometry_validation(self):
        with pytest.raises(DomainError):
            EncoderGeometry(guide_rise=-0.1, guide_reach=0.3)
        with pytest.raises(DomainError):
            EncoderGeometry(guide_rise=0.0, guide_reach=0.0)

    @pytest.mark.parametrize("field, value", [
        ("guide_rise", math.nan),
        ("guide_reach", math.inf),
        ("pivot_height", math.inf),
        ("pivot_setback", math.nan),
    ])
    def test_non_finite_field_named(self, field, value):
        """Rejected at construction like the other config dataclasses,
        not only by the command line parser."""
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            EncoderGeometry(**{field: value})

    def test_guide_constants_cached_per_geometry(self):
        geo = EncoderGeometry(guide_rise=0.1, guide_reach=0.3,
                              pivot_height=0.05, pivot_setback=0.05)
        assert "guide_radius" not in vars(geo) and "guide_angle" not in vars(geo)
        cold = encoder_to_angles(angles_to_encoder(0.8, -0.4, geo), geo)
        assert vars(geo)["guide_radius"] == math.hypot(0.1, 0.3)
        assert vars(geo)["guide_angle"] == math.atan2(0.1, 0.3)
        assert encoder_to_angles(angles_to_encoder(0.8, -0.4, geo), geo) == cold
        # The cache is not a field: equality and hashing see the geometry only.
        assert geo == BENCH and hash(geo) == hash(BENCH)


class TestQuantize:
    def test_grid_multiples(self):
        step = resolution(400)
        reading = quantize(0.5, -1.234, 400)
        assert reading.theta_b / step == pytest.approx(round(reading.theta_b / step))
        assert reading.phi_b / step == pytest.approx(round(reading.phi_b / step))
        assert abs(reading.theta_b - 0.5) <= step / 2
        assert abs(reading.phi_b + 1.234) <= step / 2

    def test_resolution_value(self):
        assert resolution(400) == pytest.approx(2 * math.pi / 400)
        with pytest.raises(DomainError):
            resolution(0)


class TestAnglesToEncoder:
    def test_passthrough_unquantized(self):
        reading = angles_to_encoder(0.5, 0.3, PASSTHROUGH, counts_per_rev=0)
        assert reading.theta_b == pytest.approx(0.5, abs=1e-9)
        assert reading.phi_b == pytest.approx(0.3, abs=1e-9)

    def test_bench_inverse_unquantized(self):
        reading = angles_to_encoder(0.38571792893616741, 0.0, BENCH, counts_per_rev=0)
        assert reading.theta_b == pytest.approx(0.5, abs=1e-9)
        assert reading.phi_b == pytest.approx(0.0, abs=1e-9)

    def test_round_trip_within_one_count(self):
        rng = np.random.default_rng(43)
        step = resolution(400)
        for _ in range(300):
            theta = rng.uniform(0.2, 1.3)
            phi = rng.uniform(-2.5, 2.5)
            reading = angles_to_encoder(theta, phi, BENCH)
            theta2, phi2 = encoder_to_angles(reading, BENCH)
            assert abs(theta2 - theta) <= step
            assert abs(frames.wrap_angle(phi2 - phi)) <= step

    @pytest.mark.parametrize("geometry", [EncoderGeometry(), BENCH], ids=["default", "bench"])
    def test_unquantized_round_trip(self, geometry):
        rng = np.random.default_rng(44)
        for _ in range(500):
            theta = rng.uniform(-1.3, 1.5)
            phi = rng.uniform(-math.pi, math.pi)
            reading = angles_to_encoder(theta, phi, geometry, counts_per_rev=0)
            theta2, phi2 = encoder_to_angles(reading, geometry)
            assert abs(theta2 - theta) <= 1e-12
            assert abs(frames.wrap_angle(phi2 - phi)) <= 1e-12

    def test_two_root_geometry_takes_far_root(self):
        # The reference origin lies outside the guide sphere, so a ray can
        # cross it twice; the far crossing is the branch the mechanism
        # settles on when started from the wing angles.
        geo = EncoderGeometry(guide_rise=0.0, guide_reach=0.1,
                              pivot_height=0.0, pivot_setback=0.15)
        reading = angles_to_encoder(0.3, 3.0, geo, counts_per_rev=0)
        assert reading.theta_b == pytest.approx(0.744105430, abs=1e-9)
        assert reading.phi_b == pytest.approx(2.708146019, abs=1e-9)
        # Pointing away from the sphere: both crossings lie behind the origin.
        with pytest.raises(DomainError):
            angles_to_encoder(0.5, 0.2, geo)

    def test_unreachable_angles_fail(self):
        # A large pivot height pushes the reachable elevations far from
        # level flight; a level tether misses the guide sphere.
        geo = EncoderGeometry(guide_rise=0.0, guide_reach=0.1,
                              pivot_height=5.0, pivot_setback=0.0)
        with pytest.raises(DomainError, match="reachable"):
            angles_to_encoder(0.0, 0.0, geo)
