import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kitefusion import attitude
from kitefusion.attitude import (
    GRAVITY,
    body_rates_between,
    inertial_accel,
    quats_to_rots,
    rot_to_quat,
)
from kitefusion.errors import DomainError
from kitefusion.frames import rot_ned_to_g


# Propagation under constant body rates, the relation body_rates_between
# inverts.  The package does not integrate the gyro, so the closed form
# and the kinematic derivative it solves live here as the reference.

def quat_derivative(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Quaternion time derivative ``0.5 * Omega(w) @ q`` for body rates ``w``."""
    attitude._check_units(np.reshape(q, (1, 4)))
    q1, q2, q3, q4 = (float(c) for c in q)
    wx, wy, wz = (float(c) for c in w)
    return 0.5 * np.array([
        -wx * q2 - wy * q3 - wz * q4,
        wx * q1 - wz * q3 + wy * q4,
        wy * q1 + wz * q2 - wx * q4,
        wz * q1 - wy * q2 + wx * q3,
    ])


def quat_propagate(q: np.ndarray, w: np.ndarray, dt: float) -> np.ndarray:
    """Propagate a unit quaternion over ``dt`` under constant body rates:
    ``q(t+dt) = (cos(a) I + sin(a)/|w| Omega(w)) q(t)`` with
    ``a = |w| dt / 2``, renormalised."""
    attitude._check_units(np.reshape(q, (1, 4)))
    wx, wy, wz = (float(c) for c in w)
    n = math.sqrt(wx * wx + wy * wy + wz * wz)
    if n == 0.0:
        return np.asarray(q, dtype=float).copy()
    a = 0.5 * n * dt
    c = math.cos(a)
    s = math.sin(a) / n
    q1, q2, q3, q4 = (float(cmp) for cmp in q)
    out = np.array([
        c * q1 + s * (-wx * q2 - wy * q3 - wz * q4),
        c * q2 + s * (wx * q1 - wz * q3 + wy * q4),
        c * q3 + s * (wy * q1 + wz * q2 - wx * q4),
        c * q4 + s * (wz * q1 - wy * q2 + wx * q3),
    ])
    return out / math.sqrt(out @ out)


def rot_of(q) -> np.ndarray:
    """Rotation matrix of one quaternion, from the package's stacked form."""
    return quats_to_rots([q])[0]


def quat_of(R) -> np.ndarray:
    """Quaternion of one rotation matrix, from the package's stacked form."""
    return rot_to_quat([R])[0]


def rates_between(q0, q1, dt) -> np.ndarray:
    """Body rates of one quaternion pair, from the package's stacked form."""
    return body_rates_between([q0], [q1], dt)[0]


def scalar_quat_to_rot(q) -> np.ndarray:
    """One quaternion's matrix, written out entry by entry: the scalar
    definition that ``quats_to_rots`` must reproduce bit for bit."""
    attitude._check_units(np.reshape(q, (1, 4)))
    q1, q2, q3, q4 = (float(c) for c in q)
    return np.array([
        [2.0 * (q1 * q1 + q2 * q2) - 1.0, 2.0 * (q2 * q3 - q1 * q4), 2.0 * (q2 * q4 + q1 * q3)],
        [2.0 * (q2 * q3 + q1 * q4), 2.0 * (q1 * q1 + q3 * q3) - 1.0, 2.0 * (q3 * q4 - q1 * q2)],
        [2.0 * (q2 * q4 - q1 * q3), 2.0 * (q3 * q4 + q1 * q2), 2.0 * (q1 * q1 + q4 * q4) - 1.0],
    ])


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def scalar_rot_to_quat(R):
    """Reference: one matrix at a time, pivoting on the largest of the
    four squared components."""
    t = R[0, 0] + R[1, 1] + R[2, 2]
    case = int(np.argmax((t, R[0, 0], R[1, 1], R[2, 2])))
    if case == 0:
        s = math.sqrt(1.0 + t) * 2.0
        q = np.array([0.25 * s, (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s])
    elif case == 1:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array([(R[2, 1] - R[1, 2]) / s, 0.25 * s,
                      (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s])
    elif case == 2:
        s = math.sqrt(1.0 - R[0, 0] + R[1, 1] - R[2, 2]) * 2.0
        q = np.array([(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s,
                      0.25 * s, (R[1, 2] + R[2, 1]) / s])
    else:
        s = math.sqrt(1.0 - R[0, 0] - R[1, 1] + R[2, 2]) * 2.0
        q = np.array([(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s,
                      (R[1, 2] + R[2, 1]) / s, 0.25 * s])
    q /= np.linalg.norm(q)
    return -q if q[0] < 0.0 else q


def quat_angle(qa, qb):
    """Rotation angle between two unit quaternions, sign-insensitive."""
    return 2.0 * math.acos(min(1.0, abs(float(np.dot(qa, qb)))))


class TestQuatToRot:
    def test_identity(self):
        assert_allclose(rot_of([1.0, 0.0, 0.0, 0.0]), np.eye(3), atol=1e-15)

    def test_quarter_turn_about_z(self):
        s = math.sqrt(2.0) / 2.0
        expected = np.array([
            [0.0, -1.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
        ])
        assert_allclose(rot_of([s, 0.0, 0.0, s]), expected, atol=1e-15)

    def test_orthonormal_proper(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            R = rot_of(random_unit_quat(rng))
            assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)

    def test_double_cover(self):
        rng = np.random.default_rng(22)
        q = random_unit_quat(rng)
        assert_allclose(rot_of(q), rot_of(-q), atol=1e-15)

    def test_non_unit_rejected(self):
        with pytest.raises(DomainError):
            rot_of([1.0, 0.0, 0.1, 0.0])


class TestRotToQuat:
    def test_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            q = random_unit_quat(rng)
            if q[0] < 0:
                q = -q
            assert_allclose(quat_of(rot_of(q)), q, atol=1e-12)

    @pytest.mark.parametrize("q", [
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.5, 0.5, 0.5, 0.5],
    ])
    def test_half_turn_pivots(self, q):
        # Half turns have zero scalar part and exercise the non-trace pivots.
        R = rot_of(q)
        assert_allclose(rot_of(quat_of(R)), R, atol=1e-12)

    def test_canonical_sign(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            assert quat_of(rot_of(random_unit_quat(rng)))[0] >= 0.0

    def test_stack_matches_scalar_reference_on_every_pivot(self):
        rng = np.random.default_rng(26)
        quats = [random_unit_quat(rng) for _ in range(200)]
        # Each component in turn made dominant, so every pivot is taken.
        for k in range(4):
            q = rng.normal(size=4) * 0.1
            q[k] = 1.0
            quats.append(q / np.linalg.norm(q))
        stack = quats_to_rots(quats)
        traces = stack[:, [0, 1, 2], [0, 1, 2]]
        pivots = np.argmax(np.column_stack([traces.sum(axis=1), traces]), axis=1)
        assert set(pivots.tolist()) == {0, 1, 2, 3}
        batch = rot_to_quat(stack)
        assert batch.shape == (len(quats), 4)
        for R, q in zip(stack, batch):
            assert np.array_equal(q, scalar_rot_to_quat(R))
            assert np.array_equal(q, quat_of(R))


class TestQuatsToRots:
    def test_matches_scalar_per_row(self):
        rng = np.random.default_rng(27)
        quats = np.array([random_unit_quat(rng) for _ in range(100)])
        batch = quats_to_rots(quats)
        assert batch.shape == (100, 3, 3)
        for q, R in zip(quats, batch):
            assert np.array_equal(R, scalar_quat_to_rot(q))

    def test_rejects_non_unit_row(self):
        quats = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.1, 0.0]])
        with pytest.raises(DomainError):
            quats_to_rots(quats)

    def test_rejects_nan_row(self):
        quats = np.array([[1.0, 0.0, 0.0, 0.0], [math.nan, 0.0, 0.0, 0.0]])
        with pytest.raises(DomainError, match="quaternion norm nan"):
            quats_to_rots(quats)


class TestQuatDerivative:
    """The reference kinematics above, which the propagation check uses."""

    def test_zero_rates(self):
        rng = np.random.default_rng(25)
        q = random_unit_quat(rng)
        assert_allclose(quat_derivative(q, [0.0, 0.0, 0.0]), np.zeros(4), atol=1e-15)

    def test_roll_rate_at_identity(self):
        dq = quat_derivative([1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        assert_allclose(dq, [0.0, 0.5, 0.0, 0.0], atol=1e-15)

    def test_derivative_orthogonal_to_quat(self):
        # Norm preservation of the kinematics: d/dt |q|^2 = 2 q . qdot = 0.
        rng = np.random.default_rng(26)
        for _ in range(200):
            q = random_unit_quat(rng)
            w = rng.normal(size=3) * 3.0
            assert abs(float(q @ quat_derivative(q, w))) < 1e-12


class TestQuatPropagate:
    """The reference propagation above, which body_rates_between inverts:
    TestBodyRatesBetween's round trips are only as good as it is."""

    def test_zero_rates_fixed_point(self):
        rng = np.random.default_rng(27)
        q = random_unit_quat(rng)
        assert_allclose(quat_propagate(q, [0.0, 0.0, 0.0], 0.02), q, atol=1e-15)

    def test_quarter_turn_in_thousand_steps(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        w = [0.0, 0.0, math.pi / 2.0]
        for _ in range(1000):
            q = quat_propagate(q, w, 1e-3)
        s = math.sqrt(2.0) / 2.0
        assert quat_angle(q, [s, 0.0, 0.0, s]) < 1e-4

    def test_matches_fine_rk4_integration(self):
        rng = np.random.default_rng(28)
        for _ in range(5):
            q0 = random_unit_quat(rng)
            w = rng.normal(size=3) * 2.0
            dt = 0.5
            q_exp = quat_propagate(q0, w, dt)
            # Independent route: Runge-Kutta on the kinematic ODE.
            n = 1000
            h = dt / n
            q = q0.copy()
            for _ in range(n):
                k1 = quat_derivative(q, w)
                k2 = quat_derivative(q + 0.5 * h * k1, w)
                k3 = quat_derivative(q + 0.5 * h * k2, w)
                k4 = quat_derivative(q + h * k3, w)
                q = q + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            q /= np.linalg.norm(q)
            assert quat_angle(q, q_exp) < 1e-9


class TestBodyRatesBetween:
    def test_round_trip(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            q0 = random_unit_quat(rng)
            w = rng.normal(size=3) * 4.0
            dt = rng.uniform(0.005, 0.05)
            q1 = quat_propagate(q0, w, dt)
            if float(q0 @ q1) < 0:
                q1 = -q1
            assert_allclose(rates_between(q0, q1, dt), w, atol=1e-9)

    def test_identical_quaternions(self):
        rng = np.random.default_rng(30)
        q = random_unit_quat(rng)
        assert_allclose(rates_between(q, q, 0.02), np.zeros(3), atol=1e-12)

    def test_stack_matches_pairs(self):
        rng = np.random.default_rng(31)
        q0 = np.array([random_unit_quat(rng) for _ in range(50)])
        q1 = np.array([quat_propagate(q, rng.normal(size=3), 0.02) for q in q0])
        q1[7] = q0[7]  # no rotation: the small-angle branch
        rates = body_rates_between(q0, q1, 0.02)
        assert rates.shape == (50, 3)
        for a, b, w in zip(q0, q1, rates):
            assert np.array_equal(w, rates_between(a, b, 0.02))
        with pytest.raises(DomainError):
            body_rates_between(q0, 1.01 * q1, 0.02)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_step_rejected(self, dt):
        # nan would give nan rates and inf zero rates.
        q = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(DomainError, match="dt must be positive and finite"):
            body_rates_between(q, q, dt)


class TestAccelToInertial:
    """inertial_accel, the specific-force inversion the pipeline runs."""

    def test_stationary_wing_reads_gravity(self):
        a = inertial_accel([0.0, 0.0, GRAVITY], [1.0, 0.0, 0.0, 0.0], 1.0, 0.0)
        assert_allclose(a, np.zeros(3), atol=1e-12)

    def test_stationary_any_heading(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            phi_g = rng.uniform(-math.pi, math.pi)
            a = inertial_accel([0.0, 0.0, GRAVITY], [1.0, 0.0, 0.0, 0.0],
                               math.cos(phi_g), math.sin(phi_g))
            assert_allclose(a, np.zeros(3), atol=1e-12)

    def test_forward_thrust_aligned_frames(self):
        # K aligned with NED, downwind axis on north: body x maps to +X in G.
        a = inertial_accel([2.0, 0.0, GRAVITY], [1.0, 0.0, 0.0, 0.0], 1.0, 0.0)
        assert_allclose(a, [2.0, 0.0, 0.0], atol=1e-12)

    def test_linearity_in_specific_force(self):
        rng = np.random.default_rng(32)
        q = random_unit_quat(rng)
        a1 = rng.normal(size=3)
        a2 = rng.normal(size=3)
        heading = (math.cos(0.4), math.sin(0.4))
        lhs = np.array(inertial_accel(a1 + a2, q, *heading))
        rhs = (np.array(inertial_accel(a1, q, *heading)) + inertial_accel(a2, q, *heading)
               - np.array([0.0, 0.0, GRAVITY]))
        assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 9e-7, 1.0 - 9e-7])
    def test_matches_rotation_matrix(self, scale):
        """The quaternion form equals the matrix of ``quats_to_rots``
        applied to the reading, turned by the heading, with gravity
        restored, within 1e-12 max(1, |a|), unit or off unit inside the
        tolerance."""
        rng = np.random.default_rng(35)
        for _ in range(200):
            q = scale * random_unit_quat(rng)
            a_k = rng.normal(0.0, 30.0, 3)
            phi_g = rng.uniform(-math.pi, math.pi)
            want = rot_ned_to_g(phi_g) @ (quats_to_rots([q])[0] @ a_k)
            want[2] += GRAVITY
            got = inertial_accel(a_k.tolist(), q.tolist(), math.cos(phi_g), math.sin(phi_g))
            bound = 1e-12 * max(1.0, float(np.linalg.norm(a_k)))
            assert np.abs(np.array(got) - want).max() <= bound

    def test_non_unit_rejected(self):
        with pytest.raises(DomainError):
            inertial_accel([0.0, 0.0, GRAVITY], [1.0, 0.1, 0.0, 0.0], 1.0, 0.0)

    def test_nan_quaternion_rejected(self):
        with pytest.raises(DomainError, match="quaternion norm nan"):
            inertial_accel([0.0, 0.0, GRAVITY], [math.nan, 0.0, 0.0, 0.0], 1.0, 0.0)


class TestStackedInertialAccel:
    """The record-at-a-time rotation compare_approaches primes the
    routings with reproduces inertial_accel row by row, bit for bit."""

    @pytest.mark.parametrize("phi_g", [0.0, -0.0, 0.6, 2.5, -math.pi])
    def test_bit_identical_rows(self, phi_g):
        rng = np.random.default_rng(33)
        q = np.array([random_unit_quat(rng) for _ in range(300)])
        q[:10] = [1.0, 0.0, 0.0, 0.0]
        q[10:20] = [0.0, 0.0, 0.0, -1.0]
        # Rows off unit by up to 9e-7, inside the tolerance: the quaternion
        # form is an identity of the matrix for any q, not only a unit one.
        q[30:40] *= 1.0 + 9e-7
        q[40:50] *= 1.0 - 9e-7
        a_k = rng.normal(0.0, 20.0, (300, 3))
        a_k[:10] = [0.0, 0.0, GRAVITY]
        a_k[20:25] = 0.0
        cos_g, sin_g = math.cos(phi_g), math.sin(phi_g)
        got = np.column_stack(attitude._inertial_accels(a_k, q, cos_g, sin_g))
        want = np.array([inertial_accel(a.tolist(), qq.tolist(), cos_g, sin_g)
                         for a, qq in zip(a_k, q)])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [[1.0, 0.1, 0.0, 0.0], [math.nan, 0.0, 0.0, 0.0],
                                     [1.0 + 2e-6, 0.0, 0.0, 0.0]],
                             ids=["long", "nan", "just-past-tolerance"])
    def test_same_error_as_first_bad_row(self, bad):
        rng = np.random.default_rng(34)
        q = np.array([random_unit_quat(rng) for _ in range(12)])
        q[7] = bad
        q[9] = [2.0, 0.0, 0.0, 0.0]
        a_k = rng.normal(size=(12, 3))
        with pytest.raises(DomainError) as want:
            for a, qq in zip(a_k, q):
                inertial_accel(a.tolist(), qq.tolist(), 1.0, 0.0)
        with pytest.raises(DomainError) as got:
            attitude._inertial_accels(a_k, q, 1.0, 0.0)
        assert str(got.value) == str(want.value)
