"""Pipeline: training rays and ground truth from the shared ray generator,
and reproducible stochastic rendering."""

import numpy as np
import pytest

from plink import pipeline, sensor, simscene
from plink.config import RunConfig

# A direction from the per-ray `local[b, a] @ R.T` product and one from the
# per-azimuth (beams, 3) @ (3, 3) product can round differently: by about
# one unit in the last place for a unit vector, and that times the range
# (at most 20 m here) for a reconstructed point.
DIRECTION_TOL = 1e-15
POINT_TOL = 20.0 * DIRECTION_TOL


def reference_rays(frame):
    """(origin, direction) per ray from a beam x azimuth loop over poses."""
    poses = sensor.motion_compensate(frame)
    local = sensor.sensor_frame_directions(frame.intrinsics)
    return [(poses[a].translation, local[b, a, :] @ poses[a].rotation.T)
            for b in range(frame.intrinsics.n_beams)
            for a in range(frame.intrinsics.azimuth_count)]


def dataset(path_name, n_frames, seed=4):
    scene = simscene.load_scene(simscene.builtin_scene_path("panel_room.txt"))
    path = pipeline.resample_path(
        sensor.read_poses(simscene.builtin_scene_path(path_name)), n_frames)
    intr = sensor.SensorIntrinsics([-0.09, -0.03, 0.03, 0.09], 32, 20.0, 0.1)
    return simscene.generate_dataset(scene, path, intr, seed)


class TestBuildRays:
    def test_static_frames_pool_per_ray(self):
        frames = dataset("static_path.csv", 3)
        rays = pipeline.build_rays(frames)
        ref = reference_rays(frames[0])
        assert len(rays) == len(ref) == frames[0].ranges.size
        for i, (ray, (origin, direction)) in enumerate(zip(rays, ref)):
            b, a = divmod(i, frames[0].intrinsics.azimuth_count)
            values = [f.ranges[b, a] for f in frames if f.returned[b, a]]
            assert ray.ray_id == i
            assert ray.drop_flag == (1 if values else 0)
            np.testing.assert_array_equal(ray.measurements, np.sort(values))
            np.testing.assert_array_equal(ray.origin, origin)
            np.testing.assert_array_equal(ray.direction, direction)

    def test_moving_frames_give_one_ray_per_pulse(self):
        frames = dataset("moving_path.csv", 2)
        rays = pipeline.build_rays(frames)
        ref = [pair for frame in frames for pair in reference_rays(frame)]
        assert [r.ray_id for r in rays] == list(range(len(ref)))
        returned = np.concatenate([f.returned.reshape(-1) for f in frames])
        ranges = np.concatenate([f.ranges.reshape(-1) for f in frames])
        for ray, (origin, direction), ok, r in zip(rays, ref, returned, ranges):
            assert ray.drop_flag == int(ok)
            np.testing.assert_array_equal(ray.measurements, [r] if ok else [])
            np.testing.assert_array_equal(ray.origin, origin)
            np.testing.assert_allclose(ray.direction, direction, rtol=0.0, atol=DIRECTION_TOL)


class TestGroundTruthCloud:
    @pytest.mark.parametrize("path_name", ["static_path.csv", "moving_path.csv"])
    def test_matches_per_ray_reconstruction(self, path_name):
        frame = dataset(path_name, 2)[1]
        want = [origin + r * direction
                for (origin, direction), r, ok in zip(reference_rays(frame),
                                                      frame.ranges.reshape(-1),
                                                      frame.returned.reshape(-1)) if ok]
        got = pipeline.ground_truth_cloud(frame).points
        assert 0 < len(want) < frame.ranges.size
        np.testing.assert_allclose(got, want, rtol=0.0, atol=POINT_TOL)

    def test_points_lie_on_the_simulated_ranges(self):
        frame = dataset("moving_path.csv", 2)[0]
        origins, _ = sensor.ray_directions(frame.intrinsics, frame)
        points = pipeline.ground_truth_cloud(frame).points
        returned = frame.returned.reshape(-1)
        dist = np.linalg.norm(points - origins.reshape(-1, 3)[returned], axis=1)
        np.testing.assert_allclose(dist, frame.ranges.reshape(-1)[returned], atol=1e-12)


class TestRender:
    def test_stochastic_frame_is_reproducible(self):
        config = RunConfig(elevations=[-0.05, 0.05], azimuth_count=8, s_max=4.0,
                           n_bins=8, n_fine=8, hidden_width=8, hidden_layers=1,
                           encoding_levels=2, dir_levels=1, sigma_bias=0.0).validate()
        state = pipeline.models_from_config(config)
        _, scale = sensor.to_unit_cube(np.zeros((1, 3)), ([-5.0] * 3, [5.0] * 3))
        intr = pipeline.intrinsics_from_config(config)
        shape = (intr.n_beams, intr.azimuth_count)
        frame = sensor.ScanFrame(intr, sensor.Pose(np.eye(3), np.zeros(3), 0.0),
                                 sensor.Pose(np.eye(3), np.array([0.5, 0.0, 0.0]), 0.1),
                                 np.zeros(shape), np.zeros(shape, dtype=bool))
        first, second = (pipeline.render_frame_cloud(state, frame, scale, config,
                                                     "stochastic").points
                         for _ in range(2))
        assert len(first) > 0
        assert first.tobytes() == second.tobytes()
