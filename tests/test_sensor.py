"""Sensor geometry: quaternions, poses, slerp and the vectorized ray generator.

`oracle_poses` is the per-azimuth reference: one scalar slerp of the
boundary poses' quaternions and one validated `Pose` per azimuth step, and
`scalar_matrix` turns a quaternion into a rotation one entry at a time.
The package computes the poses only stacked, and must match both bit for
bit.
"""

import re

import numpy as np
import pytest

from plink import pipeline, sensor, simscene
from plink.errors import InvalidFrameError, InvalidInputError

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


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
        return [sensor.Pose(start.quaternion, start.translation, 0.0) for _ in fractions]
    return [sensor.Pose(scalar_slerp(start.quaternion, end.quaternion, float(f)),
                        (1.0 - f) * start.translation + f * end.translation, 0.0)
            for f in fractions]


def frame_fractions(frame):
    start, end = frame.start_pose.timestamp, frame.end_pose.timestamp
    return (frame.sample_times() - start) / (end - start)


def random_quats(n, seed=0):
    q = np.random.default_rng(seed).normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


class TestQuaternions:
    def test_matrices_are_proper_rotations(self):
        for q in random_quats(20, seed=2):
            rot = sensor.matrix_from_quat(q)
            np.testing.assert_allclose(rot.T @ rot, np.eye(3), rtol=0.0, atol=1e-12)
            assert np.linalg.det(rot) == pytest.approx(1.0)


class TestPose:
    def test_keeps_the_quaternion_it_was_given(self):
        q = np.array([2.0, 0.0, 0.0, 2.0])     # a quarter turn about z, norm 2√2
        pose = sensor.Pose(q, np.zeros(3), 0.0)
        np.testing.assert_array_equal(pose.quaternion, q)
        np.testing.assert_array_equal(pose.rotation, sensor.matrix_from_quat(q))
        np.testing.assert_allclose(pose.rotation @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                   atol=1e-15)

    @pytest.mark.parametrize("q", [[0.0, 0.0, 0.0, 0.0], [1e200, 1e200, 0.0, 0.0],
                                   [1e-200, 1e-200, 0.0, 0.0], [1e-160, 1e-160, 0.0, 0.0],
                                   [np.nan, 1.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]])
    def test_norm_must_be_finite_and_not_tiny(self, q):
        with pytest.raises(InvalidInputError, match=re.escape("is outside [1.49e-154, inf)")):
            sensor.Pose(np.array(q), np.zeros(3), 0.0)

    def test_smallest_norm_gives_a_proper_rotation(self):
        q = np.array([1.0, 1.0, 0.0, 0.0]) * sensor.MIN_QUAT_NORM / np.sqrt(2.0)
        rot = sensor.Pose(q * (1 + 1e-15), np.zeros(3), 0.0).rotation
        np.testing.assert_allclose(rot.T @ rot, np.eye(3), rtol=0.0, atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0)

    @pytest.mark.parametrize("q, t", [(np.ones(3), np.zeros(3)), (IDENTITY, np.zeros(4)),
                                      (np.eye(3), np.zeros(3))])
    def test_shapes(self, q, t):
        with pytest.raises(InvalidInputError, match="4-vector quaternion and a 3-vector"):
            sensor.Pose(q, t, 0.0)


@pytest.mark.parametrize("name", ["static_path.csv", "moving_path.csv"])
def test_pose_file_round_trip_keeps_every_line(tmp_path, name):
    # The csv writer ends lines with CRLF and the shipped files with LF, so
    # the files are compared line by line, each line character for character.
    path = simscene.builtin_scene_path(name)
    sensor.write_poses(tmp_path / name, sensor.read_poses(path))
    with open(path, newline="") as shipped:
        assert (tmp_path / name).read_bytes().decode().splitlines() == \
            shipped.read().splitlines()


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
    start = sensor.Pose(IDENTITY, np.array([0.0, 0.0, 0.0]), 0.0)
    end = sensor.Pose(q1, np.array([1.0, -0.5, 0.2]), 0.5)
    shape = (intr.n_beams, intr.azimuth_count)
    return sensor.ScanFrame(intr, start, end, np.zeros(shape), np.zeros(shape, dtype=bool))


def random_frame(seed, n_beams=4, n_az=64):
    rng = np.random.default_rng(seed)
    intr = sensor.SensorIntrinsics(np.linspace(-0.1, 0.1, n_beams), n_az, 20.0, 0.1)
    start, end = (sensor.Pose(q, rng.normal(size=3), t)
                  for q, t in zip(random_quats(2, seed), (0.0, 0.1)))
    shape = (n_beams, n_az)
    return sensor.ScanFrame(intr, start, end, np.zeros(shape), np.zeros(shape, dtype=bool))


def static_frame(seed):
    frame = random_frame(seed)
    start = frame.start_pose
    frame.end_pose = sensor.Pose(start.quaternion, start.translation, 0.1)
    return frame


class TestMotionCompensate:
    @pytest.mark.parametrize("frame", [moving_frame(), random_frame(3), random_frame(4)])
    def test_stacked_poses_match_per_azimuth_oracle(self, frame):
        fractions = frame_fractions(frame)
        quaternions, translations = sensor.motion_compensate(frame.start_pose, frame.end_pose,
                                                             fractions)
        assert quaternions.shape == (fractions.size, 4)
        assert translations.shape == (fractions.size, 3)
        for q, trans, pose in zip(quaternions, translations,
                                  oracle_poses(frame.start_pose, frame.end_pose, fractions)):
            np.testing.assert_array_equal(q, pose.quaternion)
            np.testing.assert_array_equal(trans, pose.translation)

    def test_near_identical_rotations_take_the_linear_branch(self):
        start = sensor.Pose(IDENTITY, np.zeros(3), 0.0)
        end = sensor.Pose(np.array([1.0, 1e-7, 0.0, 0.0]), np.ones(3), 1.0)
        fractions = np.linspace(0.0, 1.0, 9)
        quaternions, _ = sensor.motion_compensate(start, end, fractions)
        for q, pose in zip(quaternions, oracle_poses(start, end, fractions)):
            np.testing.assert_array_equal(q, pose.quaternion)

    def test_static_frame_repeats_the_start_pose(self):
        pose = sensor.Pose(random_quats(1, 5)[0], np.ones(3), 0.0)
        quaternions, translations = sensor.motion_compensate(pose, pose, np.linspace(0, 1, 5))
        assert np.all(quaternions == pose.quaternion) and np.all(translations == pose.translation)

    def test_resample_path_matches_per_frame_oracle(self):
        frame = random_frame(6)
        path = pipeline.resample_path([frame.start_pose, frame.end_pose], 7)
        fractions = np.arange(8) / 7
        assert [p.timestamp for p in path] == [0.1 * f for f in fractions]
        for got, want in zip(path, oracle_poses(frame.start_pose, frame.end_pose, fractions)):
            np.testing.assert_array_equal(got.quaternion, want.quaternion)
            np.testing.assert_array_equal(got.translation, want.translation)


class TestRayDirections:
    def test_bit_identical_to_per_azimuth_loop(self):
        for frame in (moving_frame(), random_frame(7), static_frame(8)):
            origins, dirs = sensor.ray_directions(frame.intrinsics, frame)
            local = sensor.sensor_frame_directions(frame.intrinsics)
            poses = oracle_poses(frame.start_pose, frame.end_pose, frame_fractions(frame))
            n_beams = frame.intrinsics.n_beams
            for a, pose in enumerate(poses):
                np.testing.assert_array_equal(dirs[:, a, :],
                                              local[:, a, :] @ scalar_matrix(pose.quaternion).T)
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
