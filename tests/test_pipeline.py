"""Pipeline: training rays and ground truth from the shared ray generator,
and batched rendering against the per-ray path it replaced.

The per-ray render path (`oracle_evaluate_ray`, `RayRender`,
`oracle_render_ray`, `oracle_baseline_ray`) lives here only as the
reference for the batched march and picker.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import expit

from plink import net as nets
from plink import pipeline, sampler, sensor, simscene
from plink.config import RunConfig
from plink.errors import InvalidInputError
from plink.field import (CdfTrace, Ray, SampleGrid, bin_masses, cdf_from_sigma_values,
                         is_drop, trapezoid_deltas)
from tests.test_field import inverse_transform_sample, render_confidence
from tests.test_sensor import frame_fractions, oracle_poses

# A direction from the per-ray `local[b, a] @ R.T` product and one from the
# per-azimuth (beams, 3) @ (3, 3) product can round differently: by about
# one unit in the last place for a unit vector, and that times the range
# (at most 20 m here) for a reconstructed point.
DIRECTION_TOL = 1e-15
POINT_TOL = 20.0 * DIRECTION_TOL


def reference_rays(frame):
    """(origin, direction) per ray from a beam x azimuth loop over poses."""
    poses = oracle_poses(frame.start_pose, frame.end_pose, frame_fractions(frame))
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


@dataclass
class RayRender:
    """Field evaluations along one render ray."""

    trace: CdfTrace
    phi: np.ndarray
    q_hat: float


def oracle_evaluate_ray(state, ray, scale, n_bins, n_fine):
    """Per-ray coarse -> quantile -> fine evaluation: the reference."""
    def field(model, gammas):
        world = ray.origin + gammas[:, None] * ray.direction
        dirs = np.broadcast_to(ray.direction, world.shape) if model.use_direction else None
        feats = nets.encode(scale.apply(world), dirs, model.encoding_levels, model.dir_levels)
        return nets.forward(model, feats)

    edges = sampler.uniform_bin_edges(ray.s_max, n_bins)
    sigmas, _ = field(state.coarse, sampler.uniform_bin_centers(ray.s_max, n_bins))
    hist = sampler.histogram_from_heights(edges, sigmas)
    cdf = np.cumsum(hist.masses)
    cdf[-1] = max(cdf[-1], 1.0)
    bins = np.searchsorted(cdf, (np.arange(n_fine) + 0.5) / n_fine, side="left")
    points = np.sort(edges[bins] + 0.5 * np.diff(edges)[bins])
    gammas = sampler.strictify(np.sort(np.concatenate([points, edges])))
    deltas = trapezoid_deltas(gammas)
    sigma, phi = field(state.fine, gammas)
    cdf, survival = cdf_from_sigma_values(sigma, deltas)
    trace = CdfTrace(SampleGrid(gammas, deltas), cdf, survival)
    return RayRender(trace, phi, float(expit(np.dot(bin_masses(cdf), phi))))


def oracle_render_ray(render, mode, *, draws=3, level=0.5, peak_threshold=0.05, rng=None,
                      drop_gate=True):
    """Ranges (possibly several, possibly none) for one evaluated ray."""
    if drop_gate and render.q_hat < 0.5:
        return []
    trace = render.trace
    if mode == "stochastic":
        out = []
        for _ in range(draws):
            sample = inverse_transform_sample(trace, float(rng.uniform(1e-12, 1.0)))
            if not is_drop(sample):
                out.append(sample)
        return out
    if mode == "confidence":
        sample = render_confidence(trace, level)
        return [] if is_drop(sample) else [sample]
    masses = bin_masses(trace.cdf)
    if mode == "strongest-return":
        if masses.size == 0 or masses.max() < peak_threshold:
            return []
        return [float(trace.grid.gammas[int(np.argmax(masses))])]
    if mode == "first-return":
        above = np.flatnonzero(masses >= peak_threshold)
        if above.size == 0:
            return []
        return [float(trace.grid.gammas[int(above[0])])]
    raise InvalidInputError(f"unknown render mode {mode!r}")


def oracle_baseline_ray(render, drop_gate=True):
    """Deterministic weighted-depth rendering of one ray, for the baseline."""
    if drop_gate and render.q_hat < 0.5:
        return []
    masses = bin_masses(render.trace.cdf)
    total = masses.sum()
    if total <= 1e-6:
        return []
    return [float(np.dot(masses / total, render.trace.grid.gammas))]


def oracle_frame_cloud(state, frame, scale, config, mode, baseline=False):
    """One ray at a time, each on its own render stream."""
    n_fine = config.render_fine or config.n_fine
    origins, dirs = sensor.ray_directions(frame.intrinsics, frame)
    points = []
    for ray_id, (origin, direction) in enumerate(zip(origins.reshape(-1, 3),
                                                     dirs.reshape(-1, 3))):
        ray = Ray(origin, direction, frame.intrinsics.s_max, ray_id=ray_id)
        render = oracle_evaluate_ray(state, ray, scale, config.n_bins, n_fine)
        if baseline:
            ranges = oracle_baseline_ray(render)
        else:
            rng = sampler.ray_rng(config.seed, ray_id, epoch=pipeline.RENDER_STREAM)
            ranges = oracle_render_ray(render, mode, draws=config.render_draws,
                                       level=config.confidence_level,
                                       peak_threshold=config.peak_threshold, rng=rng)
        points += [origin + r * direction for r in ranges]
    return np.asarray(points).reshape(-1, 3)


def render_setup(seed, batch_rays):
    config = RunConfig(elevations=[-0.05, 0.0, 0.05], azimuth_count=8, s_max=4.0,
                       n_bins=8, n_fine=8, render_fine=11, hidden_width=8,
                       hidden_layers=1, encoding_levels=2, dir_levels=1, sigma_bias=0.0,
                       batch_rays=batch_rays, seed=seed).validate()
    state = pipeline.models_from_config(config)
    _, scale = sensor.to_unit_cube(np.zeros((1, 3)), ([-5.0] * 3, [5.0] * 3))
    intr = pipeline.intrinsics_from_config(config)
    shape = (intr.n_beams, intr.azimuth_count)
    frame = sensor.ScanFrame(intr, sensor.Pose(np.eye(3), np.zeros(3), 0.0),
                             sensor.Pose(np.eye(3), np.array([0.5, 0.0, 0.0]), 0.1),
                             np.zeros(shape), np.zeros(shape, dtype=bool))
    return state, frame, scale, config


RENDERS = [("stochastic", False), ("confidence", False), ("first-return", False),
           ("strongest-return", False), ("stochastic", True)]


class TestRender:
    def test_stochastic_frame_is_reproducible(self):
        state, frame, scale, config = render_setup(seed=1, batch_rays=64)
        first, second = (pipeline.render_frame_cloud(state, frame, scale, config,
                                                     "stochastic").points
                         for _ in range(2))
        assert len(first) > 0
        assert first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("mode, baseline", RENDERS)
    def test_batched_frame_matches_per_ray_oracle(self, mode, baseline, seed):
        # 24 rays in chunks of 7: the last chunk is ragged.
        state, frame, scale, config = render_setup(seed, batch_rays=7)
        want = oracle_frame_cloud(state, frame, scale, config, mode, baseline)
        got = pipeline.render_frame_cloud(state, frame, scale, config, mode,
                                          baseline=baseline).points
        assert len(want) > 0
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    def test_evaluates_one_render_per_ray(self):
        state, frame, scale, config = render_setup(seed=1, batch_rays=7)
        origins, dirs = sensor.ray_directions(frame.intrinsics, frame)
        grid, cdf, q_hat = pipeline.evaluate_ray(state, origins.reshape(-1, 3)[:5],
                                                 dirs.reshape(-1, 3)[:5], 4.0, scale, 8, 11)
        assert grid.shape == cdf.shape == (5, 8 + 1 + 11)
        assert q_hat.shape == (5,)
        assert np.all((0.0 < q_hat) & (q_hat < 1.0))
        for i, (origin, direction) in enumerate(zip(origins.reshape(-1, 3)[:5],
                                                    dirs.reshape(-1, 3)[:5])):
            want = oracle_evaluate_ray(state, Ray(origin, direction, 4.0), scale, 8, 11)
            np.testing.assert_array_equal(grid[i], want.trace.grid.gammas)
            np.testing.assert_allclose(cdf[i], want.trace.cdf, rtol=1e-12, atol=1e-15)
            assert q_hat[i] == pytest.approx(want.q_hat, rel=1e-12)


def picker_rows(seed, n_rays=40, n_points=30):
    """Random (grid, cdf, q_hat, uniforms) rows with plateaus and an empty ray."""
    rng = np.random.default_rng(seed)
    grid = sampler.strictify(np.sort(rng.uniform(0.1, 20.0, size=(n_rays, n_points)), axis=1))
    sigma = rng.exponential(0.2, size=grid.shape) * (rng.random(grid.shape) < 0.4)
    sigma[0] = 0.0                          # no mass at all
    sigma[1, 5] = 50.0                      # nearly all mass in one bin
    sigma[2, [3, 9]] = 1.0                  # two peaks
    cdf, _ = cdf_from_sigma_values(sigma, trapezoid_deltas(grid))
    q_hat = rng.uniform(0.3, 0.7, size=n_rays)
    q_hat[3] = 0.5                          # exactly at the gate
    return grid, cdf, q_hat, rng.uniform(1e-12, 1.0, size=(n_rays, 4))


class TestRenderPicker:
    """The batched picker against the per-ray render path, ray by ray."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("mode", ["stochastic", "confidence", "first-return",
                                      "strongest-return", pipeline.WEIGHTED_DEPTH])
    @pytest.mark.parametrize("drop_gate", [True, False])
    def test_matches_per_ray_picks(self, seed, mode, drop_gate):
        grid, cdf, q_hat, uniforms = picker_rows(seed)
        got = pipeline.render_ray(grid, cdf, q_hat, mode, uniforms=uniforms, level=0.3,
                                  peak_threshold=0.04, drop_gate=drop_gate)
        assert got.shape == (len(grid), 4 if mode == "stochastic" else 1)
        for i in range(len(grid)):
            trace = CdfTrace(SampleGrid(grid[i], trapezoid_deltas(grid[i])), cdf[i], 1.0 - cdf[i])
            render = RayRender(trace, np.zeros_like(cdf[i]), float(q_hat[i]))
            if mode == pipeline.WEIGHTED_DEPTH:
                want = oracle_baseline_ray(render, drop_gate=drop_gate)
            else:
                draws = iter(uniforms[i])
                fixed = type("Draws", (), {"uniform": lambda self, lo, hi: next(draws)})()
                want = oracle_render_ray(render, mode, draws=4, level=0.3, peak_threshold=0.04,
                                         rng=fixed, drop_gate=drop_gate)
            row = got[i][~np.isnan(got[i])]
            assert row.tolist() == want, i

    def test_per_ray_draws_equal_one_vector_draw(self):
        scalar = sampler.ray_rng(1, 17, epoch=pipeline.RENDER_STREAM)
        vector = sampler.ray_rng(1, 17, epoch=pipeline.RENDER_STREAM)
        want = [float(scalar.uniform(1e-12, 1.0)) for _ in range(5)]
        assert vector.uniform(1e-12, 1.0, 5).tolist() == want

    def test_unknown_mode_rejected(self):
        grid, cdf, q_hat, _ = picker_rows(3)
        with pytest.raises(InvalidInputError):
            pipeline.render_ray(grid, cdf, q_hat, "brightest")
