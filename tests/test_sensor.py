"""Sensor geometry: quaternions, slerp and the vectorized ray generator."""

import numpy as np
import pytest

from plink import sensor


def random_quats(n, seed=0):
    q = np.random.default_rng(seed).normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def half_turns():
    """Rotations by pi about x, y and z: each makes a different diagonal
    entry the largest, so every branch of quat_from_matrix runs."""
    return [np.diag(d) for d in ([1.0, -1, -1], [-1.0, 1, -1], [-1.0, -1, 1])]


class TestQuaternions:
    def test_matrix_round_trip(self):
        rotations = [sensor.matrix_from_quat(q) for q in random_quats(50)] + half_turns()
        for rot in rotations:
            back = sensor.matrix_from_quat(sensor.quat_from_matrix(rot))
            np.testing.assert_allclose(back, rot, rtol=0.0, atol=1e-12)

    def test_quat_round_trip_up_to_sign(self):
        for q in random_quats(50, seed=1):
            back = sensor.quat_from_matrix(sensor.matrix_from_quat(q))
            np.testing.assert_allclose(back * np.sign(back @ q), q, rtol=0.0, atol=1e-12)

    def test_matrices_are_proper_rotations(self):
        for q in random_quats(20, seed=2):
            rot = sensor.matrix_from_quat(q)
            np.testing.assert_allclose(rot.T @ rot, np.eye(3), rtol=0.0, atol=1e-12)
            assert np.linalg.det(rot) == pytest.approx(1.0)


class TestSlerp:
    @pytest.mark.parametrize("angle", [1e-7, 0.4, 2.5])
    def test_endpoints(self, angle):
        q0 = np.array([1.0, 0.0, 0.0, 0.0])
        q1 = np.array([np.cos(angle / 2), 0.0, 0.0, np.sin(angle / 2)])
        np.testing.assert_allclose(sensor.quat_slerp(q0, q1, 0.0), q0, atol=1e-12)
        np.testing.assert_allclose(sensor.quat_slerp(q0, q1, 1.0), q1, atol=1e-12)

    def test_takes_the_short_way_round(self):
        q0 = np.array([1.0, 0.0, 0.0, 0.0])
        q1 = -np.array([np.cos(0.2), 0.0, np.sin(0.2), 0.0])  # same rotation as -q1
        end = sensor.quat_slerp(q0, q1, 1.0)
        np.testing.assert_allclose(end, -q1, atol=1e-12)
        mid = sensor.quat_slerp(q0, q1, 0.5)
        np.testing.assert_allclose(mid, [np.cos(0.1), 0.0, np.sin(0.1), 0.0], atol=1e-12)


def moving_frame():
    intr = sensor.SensorIntrinsics([-0.1, 0.0, 0.07], 16, 20.0, 0.1)
    q1 = np.array([np.cos(0.3), 0.1, 0.2, np.sin(0.3)])
    start = sensor.Pose(np.eye(3), np.array([0.0, 0.0, 0.0]), 0.0)
    end = sensor.Pose(sensor.matrix_from_quat(q1), np.array([1.0, -0.5, 0.2]), 0.5)
    shape = (intr.n_beams, intr.azimuth_count)
    return sensor.ScanFrame(intr, start, end, np.zeros(shape), np.zeros(shape, dtype=bool))


class TestRayDirections:
    def test_bit_identical_to_per_azimuth_loop(self):
        frame = moving_frame()
        origins, dirs = sensor.ray_directions(frame.intrinsics, frame)
        local = sensor.sensor_frame_directions(frame.intrinsics)
        for a, pose in enumerate(sensor.motion_compensate(frame)):
            np.testing.assert_array_equal(dirs[:, a, :], local[:, a, :] @ pose.rotation.T)
            np.testing.assert_array_equal(origins[:, a, :],
                                          np.broadcast_to(pose.translation, (3, 3)))

    def test_directions_are_unit(self):
        frame = moving_frame()
        _, dirs = sensor.ray_directions(frame.intrinsics, frame)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=-1), 1.0, atol=1e-12)
