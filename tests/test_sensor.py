"""Sensor geometry: quaternions, slerp and the vectorized ray generator.

`oracle_poses` is the per-azimuth reference: one scalar slerp, one rotation
matrix and one validated `Pose` per azimuth step. The package computes the
poses only stacked, and must match it bit for bit.
"""

import numpy as np
import pytest

from plink import pipeline, sensor
from plink.errors import InvalidFrameError


def scalar_matrix(q):
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def scalar_slerp(q0, q1, fraction):
    q0 = q0 / np.linalg.norm(q0)
    q1 = q1 / np.linalg.norm(q1)
    dot = float(np.dot(q0, q1))
    if dot < 0.0:
        q1, dot = -q1, -dot
    if dot > 1.0 - 1e-12:
        out = (1.0 - fraction) * q0 + fraction * q1
        return out / np.linalg.norm(out)
    angle = np.arccos(np.clip(dot, -1.0, 1.0))
    return (np.sin((1.0 - fraction) * angle) * q0
            + np.sin(fraction * angle) * q1) / np.sin(angle)


def oracle_poses(start, end, fractions):
    """One validated Pose per fraction, each from its own scalar slerp."""
    if (np.array_equal(start.rotation, end.rotation)
            and np.array_equal(start.translation, end.translation)):
        return [sensor.Pose(start.rotation, start.translation, 0.0) for _ in fractions]
    q0 = sensor.quat_from_matrix(start.rotation)
    q1 = sensor.quat_from_matrix(end.rotation)
    return [sensor.Pose(scalar_matrix(scalar_slerp(q0, q1, float(f))),
                        (1.0 - f) * start.translation + f * end.translation, 0.0)
            for f in fractions]


def frame_fractions(frame):
    start, end = frame.start_pose.timestamp, frame.end_pose.timestamp
    return (frame.sample_times() - start) / (end - start)


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


def random_frame(seed, n_beams=4, n_az=64):
    rng = np.random.default_rng(seed)
    intr = sensor.SensorIntrinsics(np.linspace(-0.1, 0.1, n_beams), n_az, 20.0, 0.1)
    start, end = (sensor.Pose(sensor.matrix_from_quat(q), rng.normal(size=3), t)
                  for q, t in zip(random_quats(2, seed), (0.0, 0.1)))
    shape = (n_beams, n_az)
    return sensor.ScanFrame(intr, start, end, np.zeros(shape), np.zeros(shape, dtype=bool))


class TestMotionCompensate:
    @pytest.mark.parametrize("frame", [moving_frame(), random_frame(3), random_frame(4)])
    def test_stacked_poses_match_per_azimuth_oracle(self, frame):
        fractions = frame_fractions(frame)
        rotations, translations = sensor.motion_compensate(frame.start_pose, frame.end_pose,
                                                           fractions)
        assert rotations.shape == (fractions.size, 3, 3)
        assert translations.shape == (fractions.size, 3)
        for rot, trans, pose in zip(rotations, translations,
                                    oracle_poses(frame.start_pose, frame.end_pose, fractions)):
            np.testing.assert_array_equal(rot, pose.rotation)
            np.testing.assert_array_equal(trans, pose.translation)

    def test_near_identical_rotations_take_the_linear_branch(self):
        start = sensor.Pose(np.eye(3), np.zeros(3), 0.0)
        q = np.array([1.0, 1e-7, 0.0, 0.0])
        end = sensor.Pose(sensor.matrix_from_quat(q), np.ones(3), 1.0)
        fractions = np.linspace(0.0, 1.0, 9)
        rotations, _ = sensor.motion_compensate(start, end, fractions)
        for rot, pose in zip(rotations, oracle_poses(start, end, fractions)):
            np.testing.assert_array_equal(rot, pose.rotation)

    def test_static_frame_repeats_the_start_pose(self):
        pose = sensor.Pose(sensor.matrix_from_quat(random_quats(1, 5)[0]), np.ones(3), 0.0)
        rotations, translations = sensor.motion_compensate(pose, pose, np.linspace(0, 1, 5))
        assert np.all(rotations == pose.rotation) and np.all(translations == pose.translation)

    def test_resample_path_matches_per_frame_oracle(self):
        frame = random_frame(6)
        path = pipeline.resample_path([frame.start_pose, frame.end_pose], 7)
        fractions = np.arange(8) / 7
        assert [p.timestamp for p in path] == [0.1 * f for f in fractions]
        for got, want in zip(path, oracle_poses(frame.start_pose, frame.end_pose, fractions)):
            np.testing.assert_array_equal(got.rotation, want.rotation)
            np.testing.assert_array_equal(got.translation, want.translation)


class TestRayDirections:
    def test_bit_identical_to_per_azimuth_loop(self):
        for frame in (moving_frame(), random_frame(7)):
            origins, dirs = sensor.ray_directions(frame.intrinsics, frame)
            local = sensor.sensor_frame_directions(frame.intrinsics)
            poses = oracle_poses(frame.start_pose, frame.end_pose, frame_fractions(frame))
            n_beams = frame.intrinsics.n_beams
            for a, pose in enumerate(poses):
                np.testing.assert_array_equal(dirs[:, a, :], local[:, a, :] @ pose.rotation.T)
                np.testing.assert_array_equal(origins[:, a, :],
                                              np.broadcast_to(pose.translation, (n_beams, 3)))

    def test_end_pose_must_be_later(self):
        frame = moving_frame()
        frame.end_pose.timestamp = frame.start_pose.timestamp
        with pytest.raises(InvalidFrameError):
            sensor.ray_directions(frame.intrinsics, frame)

    def test_directions_are_unit(self):
        frame = moving_frame()
        _, dirs = sensor.ray_directions(frame.intrinsics, frame)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=-1), 1.0, atol=1e-12)
