"""Sensor geometry: quaternions, poses, slerp and the vectorized ray generator,
the pose writer against a ``csv.writer`` oracle, and the scan record: its
bytes, its round trip and each input its reader refuses.

`oracle_poses` is the per-azimuth reference: one scalar slerp of the
boundary poses' quaternions and one validated `Pose` per azimuth step, and
`scalar_matrix` turns a quaternion into a rotation one entry at a time.
The package computes the poses only stacked, and must match both bit for
bit. The ray generator also matches its reference form
(`tests.simulator_reference`) byte for byte, signed zeros included.
"""

import csv
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plink import pipeline, sensor
from plink.config import RunConfig, intrinsics_from_config
from plink.errors import InvalidInputError
from tests import simulator_reference as reference
from tests.test_simscene import shipped_file

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
    """Azimuth step a of A fires a / A of the way from the start pose to the end pose."""
    n_az = frame.intrinsics.azimuth_count
    return np.array([a / n_az for a in range(n_az)])


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

    # Pose builds its matrix on Python floats, in matrix_from_quat's order and
    # from the same norm; tobytes() tells -0.0 from 0.0, which
    # assert_array_equal does not.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0), min_size=4,
                    max_size=4),
           st.floats(np.log10(sensor.MIN_QUAT_NORM), 150.0))
    def test_rotation_bytes_equal_matrix_from_quat(self, components, log_norm):
        direction = np.array(components)
        length = np.sqrt(np.sum(direction * direction))
        assume(length > 0.0)
        q = direction * (10.0 ** log_norm / length)
        assume(sensor.MIN_QUAT_NORM <= np.sqrt(np.sum(q * q)) < 1e151)
        pose = sensor.Pose(q, np.zeros(3), 0.0)
        assert pose.rotation.tobytes() == sensor.matrix_from_quat(q).tobytes()

    @pytest.mark.parametrize("q, t", [(np.ones(3), np.zeros(3)), (IDENTITY, np.zeros(4)),
                                      (np.eye(3), np.zeros(3))])
    def test_shapes(self, q, t):
        with pytest.raises(InvalidInputError, match="4-vector quaternion and a 3-vector"):
            sensor.Pose(q, t, 0.0)


@pytest.mark.parametrize("name", ["static_path.csv", "moving_path.csv"])
def test_pose_file_round_trip_keeps_every_line(tmp_path, name):
    # The csv writer ends lines with CRLF and the shipped files with LF, so
    # the files are compared line by line, each line character for character.
    path = shipped_file(name)
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
    intr = sensor.SensorIntrinsics([-0.1, 0.0, 0.07], 16, 20.0)
    q1 = np.array([np.cos(0.3), 0.1, 0.2, np.sin(0.3)])
    start = sensor.Pose(IDENTITY, np.array([0.0, 0.0, 0.0]), 0.0)
    end = sensor.Pose(q1, np.array([1.0, -0.5, 0.2]), 0.5)
    shape = (intr.n_beams, intr.azimuth_count)
    return sensor.ScanFrame(intr, start, end, np.zeros(shape), np.zeros(shape, dtype=bool))


def random_frame(seed, n_beams=4, n_az=64):
    rng = np.random.default_rng(seed)
    intr = sensor.SensorIntrinsics(np.linspace(-0.1, 0.1, n_beams), n_az, 20.0)
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

    @pytest.mark.parametrize("n_frames", [3, 20, 100])
    def test_sweep_spans_its_frame(self, n_frames):
        # However long a frame's pose interval, its revolution runs from the
        # start pose to the end pose: azimuth step a of A is cast from a / A
        # of the way between the boundary translations.
        path = pipeline.resample_path(
            sensor.read_poses(shipped_file("moving_path.csv")), n_frames)
        intr = intrinsics_from_config(RunConfig())
        n_az = intr.azimuth_count
        shape = (intr.n_beams, n_az)
        for start, end in zip(path, path[1:]):
            frame = sensor.ScanFrame(intr, start, end, np.zeros(shape), np.zeros(shape, bool))
            origins, _ = sensor.ray_directions(intr, frame)
            for a in range(n_az):
                f = a / n_az
                np.testing.assert_array_equal(
                    origins[:, a], np.broadcast_to(
                        (1.0 - f) * start.translation + f * end.translation, (intr.n_beams, 3)))

    def test_end_pose_must_be_later(self):
        frame = moving_frame()
        frame.end_pose.timestamp = frame.start_pose.timestamp
        with pytest.raises(InvalidInputError, match="end pose must be later"):
            sensor.ray_directions(frame.intrinsics, frame)

    def test_directions_are_unit(self):
        frame = moving_frame()
        _, dirs = sensor.ray_directions(frame.intrinsics, frame)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=-1), 1.0, atol=1e-12)


def quaternions():
    """Unit and non-unit quaternions, with signed zeros and near-identity ones."""
    component = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1.0, 1.0)
    return st.tuples(st.lists(component, min_size=4, max_size=4),
                     st.floats(-3.0, 3.0)).map(lambda c: np.array(c[0]) * 10.0 ** c[1]).filter(
        lambda q: 1e-150 < np.sqrt(np.sum(q * q)) < 1e150)


def assert_rays_as_reference(frame):
    for got, want in zip(sensor.ray_directions(frame.intrinsics, frame),
                         reference.ray_directions(frame.intrinsics, frame)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(quaternions(), quaternions(), st.sampled_from(["rest", "scaled", "turn", "move"]),
           st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6),
           st.integers(1, 6), st.integers(1, 100), st.integers(0, 2 ** 32 - 1))
    def test_ray_directions_on_random_frames(self, q0, q1, kind, t, n_beams, n_az, seed):
        # At rest both poses agree. The scaled end pose's quaternion is the
        # start's times -2.5, whose matrix may differ in the last bit; a
        # turn keeps the translation, and a move changes both.
        elevations = np.sort(np.random.default_rng(seed).uniform(-1.5, 1.5, n_beams))
        assume(np.all(np.diff(elevations) > 0.0))
        intr = sensor.SensorIntrinsics(elevations, n_az, 20.0)
        start = sensor.Pose(q0, np.array(t[:3]), 0.0)
        end = sensor.Pose({"rest": q0, "scaled": -2.5 * q0}.get(kind, q1),
                          np.array(t[3:] if kind == "move" else t[:3]), 0.25)
        shape = (n_beams, n_az)
        assert_rays_as_reference(sensor.ScanFrame(intr, start, end, np.zeros(shape),
                                                  np.zeros(shape, dtype=bool)))
        assert start.rotation.tobytes() == reference.matrix_from_quat(q0).tobytes()
        fractions = np.arange(n_az) / n_az
        for got, want in zip(sensor.motion_compensate(start, end, fractions),
                             reference.motion_compensate(start, end, fractions)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name, n_frames", [("moving_path.csv", 20), ("static_path.csv", 3)])
    @pytest.mark.parametrize("elevations, n_az", [([0.0], 24), ([-0.09, -0.03, 0.03, 0.09], 64)])
    def test_ray_directions_on_the_shipped_paths(self, name, n_frames, elevations, n_az):
        path = pipeline.resample_path(sensor.read_poses(shipped_file(name)), n_frames)
        intr = sensor.SensorIntrinsics(elevations, n_az, 20.0)
        shape = (intr.n_beams, n_az)
        for start, end in zip(path, path[1:]):
            assert_rays_as_reference(sensor.ScanFrame(intr, start, end, np.zeros(shape),
                                                      np.zeros(shape, dtype=bool)))

    def test_near_identical_rotations_take_the_reference_linear_branch(self):
        start = sensor.Pose(IDENTITY, np.zeros(3), 0.0)
        end = sensor.Pose(np.array([1.0, 1e-7, 0.0, 0.0]), np.ones(3), 1.0)
        intr = sensor.SensorIntrinsics([-0.2, 0.3], 17, 20.0)
        assert_rays_as_reference(sensor.ScanFrame(intr, start, end, np.zeros((2, 17)),
                                                  np.zeros((2, 17), dtype=bool)))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(quaternions(), min_size=1, max_size=40))
    def test_matrix_from_quat_on_stacks(self, qs):
        qs = np.array(qs)
        for q in (qs, qs[0], qs.reshape(1, -1, 4)):
            got, want = sensor.matrix_from_quat(q), reference.matrix_from_quat(q)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


# -- file writers ------------------------------------------------------------------


def oracle_write_poses(path, poses):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(sensor.POSE_HEADER)
        for pose in poses:
            writer.writerow([repr(float(pose.timestamp))]
                            + [repr(float(v)) for v in pose.translation]
                            + [repr(float(v)) for v in pose.quaternion])


# Floats whose shortest repr takes an exponent, the smallest subnormal, a
# negative zero, and a range equal to s_max.
EDGE_FLOATS = [1e-05, 1e+16, 5e-324, -0.0, 20.0, 0.1 + 0.2]


class TestWriters:
    def test_pose_bytes_match_the_csv_writer(self, tmp_path):
        poses = [sensor.Pose([1e-05, 0.0, -0.0, 5e-324], [1e+16, -0.0, 5e-324], -0.0),
                 sensor.Pose(IDENTITY, EDGE_FLOATS[3:], 1e+16),
                 sensor.Pose(random_quats(1, 2)[0], [0.1 + 0.2, 1e-05, 20.0], 5e-324)]
        sensor.write_poses(tmp_path / "new.csv", poses)
        oracle_write_poses(tmp_path / "oracle.csv", poses)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


# -- the scan record -----------------------------------------------------------------

RECORD_INTR = sensor.SensorIntrinsics([-0.1, 0.1], 3, 20.0)
STILL = [sensor.Pose(IDENTITY, np.zeros(3), t) for t in (0.0, 1.0)]
FAR = 2 ** 32 - 1     # the largest uint32 count


def record(*ranges, counts=(1, 2, 3), s_max=20.0, elevations=(-0.1, 0.1),
           magic=sensor.SCANS_MAGIC):
    """A scan record's bytes: the header, then ``elevations`` and ``ranges`` as given."""
    values = (*elevations, *ranges)
    return magic + struct.pack(f"<3Id{len(values)}d", *counts, s_max, *values)


def read_record(tmp_path, data, poses=STILL):
    path = tmp_path / "scans.bin"
    path.write_bytes(data)
    return sensor.read_scans(path, poses)


def ticks(n):
    """n resting poses, a second apart."""
    return [sensor.Pose(IDENTITY, np.zeros(3), float(t)) for t in range(n)]


class TestScanRecord:
    def test_bytes_pin_the_layout(self, tmp_path):
        # The header, the elevations, then beam-major little-endian float64s,
        # a drop as 0.0 whatever range the frame holds there.
        ranges = np.array([[1e-05, 20.0, np.nan], [5e-324, 7.5, 3.0]])
        returned = np.array([[True, True, False], [True, True, False]])
        frame = sensor.ScanFrame(RECORD_INTR, *STILL, ranges, returned)
        sensor.write_scans(tmp_path / "one.bin", [frame])
        one = (tmp_path / "one.bin").read_bytes()
        assert one == bytes.fromhex(
            "504c4e4b53434e32"      # PLNKSCN2
            "01000000"              # 1 frame
            "02000000"              # 2 beams
            "03000000"              # 3 azimuths
            "0000000000003440"      # s_max 20.0
            "9a9999999999b9bf"      # elevation -0.1
            "9a9999999999b93f"      # elevation 0.1
            "f168e388b5f8e43e"      # 1e-05
            "0000000000003440"      # 20.0
            "0000000000000000"      # dropped
            "0100000000000000"      # 5e-324
            "0000000000001e40"      # 7.5
            "0000000000000000")     # dropped
        # A second frame's ranges follow the first's.
        second = sensor.ScanFrame(RECORD_INTR, *STILL, ranges[::-1], returned)
        sensor.write_scans(tmp_path / "two.bin", [frame, second])
        body = np.where(returned, ranges[::-1], 0.0).astype("<f8").tobytes()
        assert (tmp_path / "two.bin").read_bytes() == (
            one[:8] + struct.pack("<I", 2) + one[12:] + body)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_is_bit_identical(self, tmp_path_factory, data):
        n_frames = data.draw(st.integers(1, 3))
        n_beams = data.draw(st.integers(1, 3))
        n_az = data.draw(st.integers(1, 6))
        s_max = data.draw(st.sampled_from([1.0, 20.0, 1e6]))
        intr = sensor.SensorIntrinsics(np.linspace(-0.5, 0.5, n_beams), n_az, s_max)
        returns = st.one_of(st.sampled_from([s_max, 1e-9, 5e-324]),
                            st.floats(1e-9, s_max))
        cells = n_frames * n_beams * n_az
        shape = (n_frames, n_beams, n_az)
        ranges = np.array(data.draw(st.lists(returns, min_size=cells, max_size=cells)))
        returned = np.array(data.draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
        # What a dropped cell holds in memory is never written.
        ranges[~returned] = data.draw(st.sampled_from([np.nan, -1.0, 0.0, 2.0 * s_max]))
        ranges, returned = ranges.reshape(shape), returned.reshape(shape)
        poses = ticks(n_frames + 1)
        frames = [sensor.ScanFrame(intr, *poses[i:i + 2], ranges[i], returned[i])
                  for i in range(n_frames)]
        path = tmp_path_factory.mktemp("scan") / "scans.bin"
        sensor.write_scans(path, frames)
        read = sensor.read_scans(path, poses)
        assert len(read) == n_frames
        for i, got in enumerate(read):
            assert got.intrinsics.elevation_angles.tobytes() == intr.elevation_angles.tobytes()
            assert (got.intrinsics.azimuth_count, got.intrinsics.s_max) == (n_az, s_max)
            assert (got.start_pose, got.end_pose) == (poses[i], poses[i + 1])
            assert got.ranges.tobytes() == np.where(returned[i], ranges[i], 0.0).tobytes()
            assert got.returned.tobytes() == returned[i].tobytes()

    def test_negative_zero_reads_as_a_drop(self, tmp_path):
        [read] = read_record(tmp_path, record(-0.0, 0.0, 20.0, 1e-9, -0.0, 5.0))
        np.testing.assert_array_equal(read.returned, [[False, False, True], [True, False, True]])

    @pytest.mark.parametrize("data, message", [
        (record(*[1.0] * 5), "84 bytes, but a 1 x 2 x 3 scan record takes 92"),
        (record(*[1.0] * 7), "100 bytes, but a 1 x 2 x 3 scan record takes 92"),
        (record(*[1.0] * 6, magic=b"PLNKSCN1"), "not a scan record"),
        (record(*[1.0] * 6)[:27], "27 bytes, shorter than the 28-byte header"),
        (record(counts=(0, 2, 3)),
         "frame, beam and azimuth counts 0, 2, 3: each must be at least 1"),
        (record(counts=(1, 0, 3), elevations=()),
         "frame, beam and azimuth counts 1, 0, 3: each must be at least 1"),
        (record(counts=(1, 2, 0)),
         "frame, beam and azimuth counts 1, 2, 0: each must be at least 1"),
        (record(*[1.0] * 6, elevations=(0.1, 0.1)),
         "elevation angles must be strictly increasing"),
        (record(*[1.0] * 6, elevations=(np.inf, np.inf)),
         "elevation angles must be strictly increasing"),
        (record(*[1.0] * 6, elevations=(0.1, np.pi / 2)),
         "elevations must lie inside (-pi/2, pi/2)"),
        (record(*[1.0] * 6, elevations=(-np.pi / 2, 0.1)),
         "elevations must lie inside (-pi/2, pi/2)"),
        (record(*[1.0] * 6, s_max=np.nan), "s_max must be positive and finite"),
        (record(*[1.0] * 6, s_max=np.inf), "s_max must be positive and finite"),
        (record(*[1.0] * 6, s_max=0.0), "s_max must be positive and finite"),
        (record(1.0, 1.0, 1.0, 1.0, np.nan, 1.0),
         "frame 0, beam 1, azimuth 1: range nan is outside [0, 20.0]"),
        (record(1.0, 1.0, np.inf, 1.0, 1.0, 1.0),
         "frame 0, beam 0, azimuth 2: range inf is outside [0, 20.0]"),
        (record(*[1.0] * 9, -1.0, 1.0, 1.0, counts=(2, 2, 3)),
         "frame 1, beam 1, azimuth 0: range -1.0 is outside [0, 20.0]"),
        (record(1.0, np.nextafter(20.0, np.inf), 1.0, 1.0, 1.0, 1.0),
         "frame 0, beam 0, azimuth 1: range 20.000000000000004 is outside [0, 20.0]"),
    ], ids=["short", "long", "magic", "header_short", "zero_frames", "zero_beams",
            "zero_azimuths", "repeated_elevation", "infinite_elevations", "elevation_up",
            "elevation_down", "s_max_nan", "s_max_inf", "s_max_zero", "nan", "inf", "negative",
            "above_s_max"])
    def test_rejects_naming_the_file(self, tmp_path, data, message):
        n_frames, = struct.unpack_from("<I", data, 8)
        with pytest.raises(InvalidInputError) as info:
            read_record(tmp_path, data, ticks(n_frames + 1))
        assert str(info.value) == f"{tmp_path / 'scans.bin'}: {message}"

    @pytest.mark.parametrize("n_poses", [1, 3])
    def test_the_pose_count_is_the_frame_count_plus_one(self, tmp_path, n_poses):
        with pytest.raises(InvalidInputError) as info:
            read_record(tmp_path, record(*[1.0] * 6), ticks(n_poses))
        assert str(info.value) == (f"{tmp_path / 'scans.bin'}: frame count 1 needs 2 poses, "
                                   f"but the pose file holds {n_poses}")

    def test_size_is_checked_before_anything_is_read(self, tmp_path, monkeypatch):
        # Counts of 2**32 - 1 each would take 2**99 bytes: the six-range
        # record is refused by its size alone, before a read of any range.
        monkeypatch.setattr(np, "fromfile", None)
        size = 28 + 8 * (FAR + FAR ** 3)
        with pytest.raises(InvalidInputError, match=re.escape(
                f"92 bytes, but a {FAR} x {FAR} x {FAR} scan record takes {size}")):
            read_record(tmp_path, record(*[1.0] * 6, counts=(FAR,) * 3))
