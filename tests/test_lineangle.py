import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from filter_reference import angles_to_encoder as reference_encoder
from kitefusion import frames, lineangle
from kitefusion.errors import DegenerateInputError, DomainError
from kitefusion.lineangle import (
    EncoderGeometry,
    angles_to_encoder,
    encoder_to_angles,
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
        theta, phi = encoder_to_angles((0.5, 0.3), PASSTHROUGH)
        assert theta == pytest.approx(0.5, abs=1e-12)
        assert phi == pytest.approx(0.3, abs=1e-12)
        # Any pair reads as the tuple of its floats.
        assert encoder_to_angles([0.5, 0.3], PASSTHROUGH) == (theta, phi)
        assert encoder_to_angles(np.array([0.5, 0.3]), PASSTHROUGH) == (theta, phi)

    def test_bench_reference_point(self):
        # Reference values computed independently with 50-digit arithmetic
        # (mpmath) for theta_b=0.5, phi_b=0 on the BENCH geometry.
        theta, phi = encoder_to_angles((0.5, 0.0), BENCH)
        assert theta == pytest.approx(0.38571792893616741, abs=1e-12)
        assert phi == 0.0

    def test_elevation_monotone_in_arm_angle(self):
        thetas = [encoder_to_angles((tb, 0.2), BENCH)[0]
                  for tb in np.linspace(0.1, 1.2, 40)]
        assert np.all(np.diff(thetas) > 0)

    def test_vertical_tether_degenerate(self):
        geo = EncoderGeometry(guide_rise=0.0, guide_reach=0.1,
                              pivot_height=0.0, pivot_setback=0.1)
        with pytest.raises(DegenerateInputError):
            encoder_to_angles((0.0, 0.0), geo)

    @pytest.mark.parametrize("reading", [(math.nan, 0.2), (0.5, math.nan),
                                         (math.inf, 0.1), (0.3, -math.inf)],
                             ids=["nan-elevation", "nan-azimuth", "inf-elevation",
                                  "inf-azimuth"])
    def test_non_finite_reading(self, reading):
        """Refused by name, as ``EstimationPipeline.step`` refuses it,
        rather than returning NaN or raising math's bare ValueError."""
        with pytest.raises(DomainError) as raised:
            encoder_to_angles(reading, BENCH)
        assert str(raised.value) == f"encoder reading {reading} is not finite"

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
        """A reading is the unrounded solution rounded to the encoder grid."""
        step = resolution(400)
        exact = angles_to_encoder(0.5, -1.234, BENCH, counts_per_rev=0)
        reading = angles_to_encoder(0.5, -1.234, BENCH, 400)
        for angle, unrounded in zip(reading, exact):
            assert angle / step == pytest.approx(round(angle / step))
            assert abs(angle - unrounded) <= step / 2

    def test_resolution_value(self):
        assert resolution(400) == pytest.approx(2 * math.pi / 400)
        assert resolution(np.int64(400)) == resolution(np.int32(400)) == resolution(400)
        with pytest.raises(DomainError):
            resolution(0)

    @pytest.mark.parametrize("call", [
        lambda count: resolution(count),
        lambda count: angles_to_encoder(0.5, 0.1, BENCH, counts_per_rev=count),
    ], ids=["resolution", "angles-to-encoder"])
    @pytest.mark.parametrize("count", [400.5, 400.0, np.float64(400.0)],
                             ids=["fraction", "whole-float", "float64"])
    def test_line_count_not_an_integer_refused(self, call, count):
        """A line count is a whole number of steps: 400.5 would round
        readings to a grid of 2 pi / 400.5, as ``NoiseSpec`` refuses it."""
        with pytest.raises(DomainError) as raised:
            call(count)
        assert str(raised.value) == f"counts_per_rev must be an integer, got {count}"

    @pytest.mark.parametrize("count", [0.0, False], ids=["float", "bool"])
    def test_only_an_integer_zero_reads_ideal(self, count):
        ideal = angles_to_encoder(0.5, 0.1, BENCH, counts_per_rev=0)
        assert angles_to_encoder(0.5, 0.1, BENCH, counts_per_rev=np.int64(0)) == ideal
        with pytest.raises(DomainError) as raised:
            angles_to_encoder(0.5, 0.1, BENCH, counts_per_rev=count)
        assert str(raised.value) == f"counts_per_rev must be positive and finite, got {count}"


class TestAnglesToEncoder:
    def test_passthrough_unquantized(self):
        theta_b, phi_b = angles_to_encoder(0.5, 0.3, PASSTHROUGH, counts_per_rev=0)
        assert theta_b == pytest.approx(0.5, abs=1e-9)
        assert phi_b == pytest.approx(0.3, abs=1e-9)

    def test_bench_inverse_unquantized(self):
        theta_b, phi_b = angles_to_encoder(0.38571792893616741, 0.0, BENCH, counts_per_rev=0)
        assert theta_b == pytest.approx(0.5, abs=1e-9)
        assert phi_b == pytest.approx(0.0, abs=1e-9)

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

    @given(rise=st.floats(0.0, 2.0), reach=st.floats(0.01, 2.0),
           setback=st.floats(-0.5, 0.5), height=st.floats(-0.5, 0.5),
           theta=st.floats(-math.pi / 2, math.pi / 2), phi=st.floats(-math.pi, math.pi))
    def test_unquantized_round_trip_property(self, rise, reach, setback, height, theta, phi):
        """Over random geometries with the reference origin inside the
        guide sphere (offsets at most half its radius, so every direction
        is reachable), the inverse recovers the wing direction."""
        radius = math.hypot(rise, reach)
        geometry = EncoderGeometry(guide_rise=rise, guide_reach=reach,
                                   pivot_height=height * radius, pivot_setback=setback * radius)
        reading = angles_to_encoder(theta, phi, geometry, counts_per_rev=0)
        theta2, phi2 = encoder_to_angles(reading, geometry)
        assert abs(theta2) <= math.pi / 2 and abs(phi2) <= math.pi
        # Compared as unit vectors: the azimuth is free on the zenith axis.
        assert_allclose(frames.spherical_to_cartesian(theta2, phi2, 1.0),
                        frames.spherical_to_cartesian(theta, phi, 1.0), rtol=0, atol=1e-12)

    def test_two_root_geometry_takes_far_root(self):
        # The reference origin lies outside the guide sphere, so a ray can
        # cross it twice; the far crossing is the branch the mechanism
        # settles on when started from the wing angles.
        geo = EncoderGeometry(guide_rise=0.0, guide_reach=0.1,
                              pivot_height=0.0, pivot_setback=0.15)
        theta_b, phi_b = angles_to_encoder(0.3, 3.0, geo, counts_per_rev=0)
        assert theta_b == pytest.approx(0.744105430, abs=1e-9)
        assert phi_b == pytest.approx(2.708146019, abs=1e-9)
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

    @pytest.mark.parametrize("theta, phi", [(math.inf, 0.1), (0.3, -math.inf),
                                            (math.nan, 0.2), (0.4, math.nan)])
    def test_non_finite_angles_fail(self, theta, phi):
        with pytest.raises(DomainError) as raised:
            angles_to_encoder(theta, phi, BENCH)
        assert str(raised.value) == f"wing angles theta={theta}, phi={phi} are not finite"

    def test_line_count_checked_before_the_angles(self):
        with pytest.raises(DomainError, match="^counts_per_rev must be positive"):
            angles_to_encoder(math.nan, 0.2, BENCH, counts_per_rev=-1)

    @pytest.mark.parametrize("counts_per_rev", [0, 400])
    def test_python_floats_as_the_reference(self, counts_per_rev):
        """One reading of Python floats, the bits of the scalar reference
        in ``filter_reference``."""
        for theta, phi in [(0.5, 0.3), (0.9, -2.0), (0.2, -0.0), (1.1, 0.001)]:
            reading = angles_to_encoder(theta, phi, BENCH, counts_per_rev)
            assert type(reading) is tuple
            assert all(type(value) is float for value in reading)
            assert _bits(reading) == _bits(reference_encoder(theta, phi, BENCH,
                                                             counts_per_rev))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _error_of(call):
    """``(type, message)`` of the exception ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:  # the test compares any error
        return type(exc), str(exc)
    return None


TWO_ROOTS = EncoderGeometry(guide_rise=0.0, guide_reach=0.1,
                            pivot_height=0.0, pivot_setback=0.15)

#: Wing angles, finite or not, signed zeros included.
ANGLES = st.one_of(st.floats(-4.0, 4.0),
                   st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))


class TestStackedAnglesToEncoder:
    """The one inversion, which the synthesizer runs on a whole record,
    reproduces the scalar reference in ``filter_reference`` reading by
    reading, bit for bit, and raises the error of the first pair refused."""

    @pytest.mark.parametrize("geometry", [EncoderGeometry(), BENCH, PASSTHROUGH, TWO_ROOTS],
                             ids=["default", "bench", "passthrough", "two-roots"])
    @pytest.mark.parametrize("counts_per_rev", [0, 400, 4096, 7, 7.5])
    def test_bit_identical_readings(self, geometry, counts_per_rev):
        rng = np.random.default_rng(45)
        if geometry is TWO_ROOTS:  # reachable only around phi = pi
            theta = rng.uniform(0.0, 0.4, 500)
            phi = rng.uniform(2.8, math.pi, 500)
        else:
            # Azimuths on both sides of zero, some within half a count of
            # it, so that readings round to a zero count from below.
            step = 2.0 * math.pi / 400
            phi = np.concatenate([rng.uniform(-math.pi, math.pi, 400),
                                  rng.uniform(-step / 2, step / 2, 100), [0.0, -0.0]])
            theta = rng.uniform(0.2, 1.3, len(phi))
        if counts_per_rev == 7.5:
            # Not a line count: refused before any pair, as the reference
            # refuses it.
            want = (DomainError, "counts_per_rev must be an integer, got 7.5")
            assert _error_of(lambda: reference_encoder(theta[0], phi[0], geometry, 7.5)) == want
            assert _error_of(lambda: lineangle._angles_to_encoders(theta, phi, geometry,
                                                                    7.5)) == want
            return
        got = lineangle._angles_to_encoders(theta, phi, geometry, counts_per_rev)
        want = [reference_encoder(th, ph, geometry, counts_per_rev)
                for th, ph in zip(theta.tolist(), phi.tolist())]
        assert got.shape == (len(want), 2)
        assert _bits(got) == _bits(want)

    def test_empty_record(self):
        assert lineangle._angles_to_encoders(np.empty(0), np.empty(0), BENCH).shape == (0, 2)

    @pytest.mark.parametrize("bad_at, theta, phi, fault", [
        (3, 0.5, 0.2, "are outside the reachable set"),  # both crossings behind
        (0, 0.5, 0.2, "are outside the reachable set"),
        (5, math.nan, 3.0, "are not finite"),
        (2, math.inf, 3.0, "are not finite"),
        (4, 0.3, -math.inf, "are not finite"),
    ], ids=["behind-3", "behind-0", "nan-5", "inf-theta-2", "inf-phi-4"])
    @pytest.mark.parametrize("counts_per_rev", [0, 400, -1])
    def test_same_error_at_first_refused_reading(self, bad_at, theta, phi, fault,
                                                 counts_per_rev):
        """The line count is checked before any pair; then the first pair
        refused decides, as the scalar form raises it for that pair."""
        thetas = np.full(8, 0.3)
        phis = np.full(8, 3.0)
        thetas[bad_at], phis[bad_at] = theta, phi
        # A second refused reading later on: the first one decides.
        thetas[6], phis[6] = 0.5, 0.2
        if counts_per_rev == -1:
            want = (DomainError, "counts_per_rev must be positive and finite, got -1")
        else:
            want = (DomainError, f"wing angles theta={theta}, phi={phi} {fault}")
            assert _error_of(lambda: angles_to_encoder(theta, phi, TWO_ROOTS,
                                                       counts_per_rev)) == want
        assert _error_of(lambda: lineangle._angles_to_encoders(
            thetas, phis, TWO_ROOTS, counts_per_rev)) == want

    @settings(max_examples=200, deadline=None)
    @given(rise=st.floats(0.0, 2.0), reach=st.floats(0.01, 2.0),
           setback=st.floats(-1.5, 1.5), height=st.floats(-1.5, 1.5),
           pairs=st.lists(st.tuples(ANGLES, ANGLES), max_size=12),
           counts_per_rev=st.sampled_from([0, 400]))
    def test_reference_or_first_refusal_property(self, rise, reach, setback, height, pairs,
                                                 counts_per_rev):
        """Over random geometries, the origin inside the guide sphere or
        outside it (two roots, some directions out of reach), and records
        with refused pairs anywhere: the readings of the reference, bit
        for bit, or the error of the first pair refused."""
        radius = math.hypot(rise, reach)
        geometry = EncoderGeometry(guide_rise=rise, guide_reach=reach,
                                   pivot_height=height * radius, pivot_setback=setback * radius)
        want, error = [], None
        for theta, phi in pairs:
            if not (math.isfinite(theta) and math.isfinite(phi)):
                error = f"wing angles theta={theta}, phi={phi} are not finite"
                break
            try:
                want.append(reference_encoder(theta, phi, geometry, counts_per_rev))
            except DomainError as exc:
                error = str(exc)
                break
        thetas = np.array([theta for theta, _ in pairs], dtype=float)
        phis = np.array([phi for _, phi in pairs], dtype=float)

        def call():
            return lineangle._angles_to_encoders(thetas, phis, geometry, counts_per_rev)

        if error is None:
            assert _bits(call()) == _bits(want)
        else:
            assert _error_of(call) == (DomainError, error)
