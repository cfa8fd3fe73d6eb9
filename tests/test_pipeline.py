"""Pipeline: training rays and ground truth from the shared ray generator,
and batched rendering against the per-ray path it replaced.

The per-ray render path (`oracle_evaluate_ray`, `RayRender`,
`oracle_render_ray`, `oracle_baseline_ray`) lives here only as the
reference for the batched march and picker.
"""

import functools
import hashlib
import re
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from plink import net as nets
from plink import pipeline, sampler, sensor, simscene
from plink.config import RENDER_MODES, WEIGHTED_DEPTH, RunConfig
from plink.errors import InvalidInputError
from plink.field import Ray, RaySet, bin_masses, cdf_from_sigma_values, trapezoid_deltas
from plink.losses import LossBreakdown
from tests.test_field import inverse_transform_sample, render_confidence
from tests.test_sampler import RowDraws, reference_row
from tests.test_sensor import IDENTITY, frame_fractions, oracle_poses
from tests.test_simscene import shipped_file

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
    scene = simscene.load_scene(shipped_file("panel_room.txt"))
    path = pipeline.resample_path(
        sensor.read_poses(shipped_file(path_name)), n_frames)
    intr = sensor.SensorIntrinsics([-0.09, -0.03, 0.03, 0.09], 32, 20.0)
    return simscene.generate_dataset(scene, path, intr, seed)


@functools.lru_cache(maxsize=None)
def fuzz_frames():
    """Two frames of the moving path, simulated once for every fuzzed record."""
    return dataset("moving_path.csv", 2)


def padded(values, width):
    """Ascending ``values`` padded with inf to ``width`` columns."""
    return np.concatenate([np.sort(values), np.full(width - len(values), np.inf)])


class TestBuildRays:
    def test_static_frames_pool_per_ray(self):
        frames = dataset("static_path.csv", 3)
        rays = pipeline.build_rays(frames)
        ref = reference_rays(frames[0])
        assert len(rays) == len(ref) == frames[0].ranges.size
        np.testing.assert_array_equal(rays.ids, np.arange(len(ref)))
        counts = sum(f.returned.reshape(-1).astype(int) for f in frames)
        assert rays.ranges.shape == (len(ref), counts.max())
        assert rays.pulses == 3
        assert counts.min() < counts.max()      # some rows are padded
        for i, (origin, direction) in enumerate(ref):
            b, a = divmod(i, frames[0].intrinsics.azimuth_count)
            values = [f.ranges[b, a] for f in frames if f.returned[b, a]]
            np.testing.assert_array_equal(rays.ranges[i], padded(values, counts.max()))
            np.testing.assert_array_equal(rays.origins[i], origin)
            np.testing.assert_array_equal(rays.dirs[i], direction)

    def test_moving_frames_give_one_ray_per_pulse(self):
        frames = dataset("moving_path.csv", 2)
        rays = pipeline.build_rays(frames)
        ref = [pair for frame in frames for pair in reference_rays(frame)]
        np.testing.assert_array_equal(rays.ids, np.arange(len(ref)))
        returned = np.concatenate([f.returned.reshape(-1) for f in frames])
        ranges = np.concatenate([f.ranges.reshape(-1) for f in frames])
        assert rays.ranges.shape == (len(ref), 1)
        assert rays.pulses == 1
        for i, ((origin, direction), ok, r) in enumerate(zip(ref, returned, ranges)):
            np.testing.assert_array_equal(rays.ranges[i], [r] if ok else [np.inf])
            np.testing.assert_array_equal(rays.origins[i], origin)
            np.testing.assert_allclose(rays.dirs[i], direction, rtol=0.0, atol=DIRECTION_TOL)

    @pytest.mark.parametrize("moved", ["translation", "rotation"])
    def test_one_differing_end_pose_does_not_pool(self, moved):
        # Frame 1 keeps frame 0's start pose; only its end pose moves, by 1 mm
        # or a small turn about z, so each pulse is its own row.
        frames = dataset("static_path.csv", 3)
        end = frames[1].end_pose
        nudge = np.array([0.0, 0.0, 0.0, 1e-3]) if moved == "rotation" else 0.0
        shift = np.array([1e-3, 0.0, 0.0]) if moved == "translation" else 0.0
        frames[1] = replace(frames[1], end_pose=sensor.Pose(
            end.quaternion + nudge, end.translation + shift, end.timestamp))
        assert sensor.same_pose(frames[1].start_pose, frames[0].start_pose)
        assert not sensor.same_pose(frames[1].end_pose, frames[0].end_pose)
        rays = pipeline.build_rays(frames)
        returned = np.concatenate([f.returned.reshape(-1) for f in frames])
        ranges = np.concatenate([f.ranges.reshape(-1) for f in frames])
        assert rays.ranges.shape == (len(returned), 1)
        np.testing.assert_array_equal(rays.ranges[:, 0], np.where(returned, ranges, np.inf))

    def test_a_pooled_ray_trains_on_its_share_of_returns(self, monkeypatch):
        # Over 20 frames at one pose, ray 0 records a range on 5, ray 1 on
        # all and ray 2 on none: the drop channel's targets are 5 / 20, 1, 0.
        intr = sensor.SensorIntrinsics([0.0], 3, 10.0)
        start, end = (sensor.Pose(IDENTITY, np.zeros(3), t) for t in (0.0, 0.1))
        frames = [sensor.ScanFrame(intr, start, end, np.full((1, 3), 4.0),
                                   np.array([[f < 5, True, False]])) for f in range(20)]
        rays = pipeline.build_rays(frames)
        targets, bce = [], sampler.bce_values
        monkeypatch.setattr(sampler, "bce_values",
                            lambda q_true, q_hat: (targets.append(q_true), bce(q_true, q_hat))[1])
        config = RunConfig(n_bins=4, n_fine=4, hidden_width=8, hidden_layers=1,
                           encoding_levels=2, dir_levels=1).validate()
        sampler.train_step(pipeline.models_from_config(config), rays, config,
                           sensor.to_unit_cube(([-5.0] * 3, [5.0] * 3)))
        np.testing.assert_array_equal(targets, [[0.25, 1.0, 0.0]])

    def test_each_row_traces_to_its_recorded_ranges(self):
        # rays[i] is row i's Ray: its exact cdf jumps at every range the row recorded.
        scene = simscene.load_scene(shipped_file("panel_room.txt"))
        rays = pipeline.build_rays(dataset("static_path.csv", 3))
        for i, ray in enumerate(rays):
            trace = simscene.trace_true_cdf(scene, rays[i])
            assert isinstance(ray, Ray) and np.array_equal(ray.direction, rays.dirs[i])
            recorded = rays.ranges[i][rays.ranges[i] < np.inf]
            assert np.all(np.isin(recorded, trace.grid.gammas))


def oracle_first_outside(frames, scale):
    """(frame, beam, azimuth) of the first ray, frame by frame, with a sample
    point outside the encoder's cube, from a loop over rays and 201 points
    along each; None when every ray stays inside."""
    s_max = frames[0].intrinsics.s_max
    for f, frame in enumerate(frames):
        for i, (origin, direction) in enumerate(reference_rays(frame)):
            points = origin + np.linspace(0.0, s_max, 201)[:, None] * direction
            if np.any(np.abs(scale.apply(points)) > pipeline.POSITION_BOUND):
                return (f,) + divmod(i, frame.intrinsics.azimuth_count)
    return None


class TestBoundsCheck:
    # Frame 0 of the moving path sweeps from 1 m behind the origin to it, and
    # frame 1 from it to 1 m ahead. These bounds put the far side of the unit
    # cube 20 m ahead of the origin: no 20 m segment cast from behind the
    # origin reaches it (frame 0's reach 19.55 m), and frame 1's forward rays,
    # cast from ahead of the origin, pass it (up to 20.96 m).
    CUT = ([-24.0, -22.0, -3.0], [20.0, 22.0, 3.0])

    def scene(self, bounds):
        spec = simscene.load_scene(shipped_file("panel_room.txt"))
        return simscene.SceneSpec(spec.surfaces, bounds)

    def test_train_set_names_the_first_ray_outside(self):
        frames = dataset("moving_path.csv", 2)
        scene = self.scene(self.CUT)
        scale = sensor.to_unit_cube(scene.bounds)
        frame, beam, azimuth = oracle_first_outside(frames, scale)
        assert frame == 1
        with pytest.raises(InvalidInputError, match=re.escape(
                f"frame 1, beam {beam}, azimuth {azimuth}: the ray's [0, 20] m segment")):
            pipeline.train_set_from_frames(frames, scene)

    def test_rays_inside_pass(self):
        frames = dataset("moving_path.csv", 2)
        scene = self.scene(simscene.load_scene(
            shipped_file("panel_room.txt")).bounds)
        assert oracle_first_outside(frames, pipeline.train_set_from_frames(
            frames, scene).scale) is None

    def test_render_names_the_frame_it_is_given(self):
        frames = dataset("moving_path.csv", 2)
        scene = self.scene(self.CUT)
        train_set = pipeline.train_set_from_frames(frames[:1], scene)
        _, beam, azimuth = oracle_first_outside(frames[1:], train_set.scale)
        config = RunConfig(n_bins=4, n_fine=4, hidden_width=8, hidden_layers=1,
                           encoding_levels=2, dir_levels=1)
        state = pipeline.models_from_config(config)
        with pytest.raises(InvalidInputError, match=re.escape(
                f"frame 5, beam {beam}, azimuth {azimuth}:")):
            pipeline.render_frame_cloud(state, frames[1], train_set.scale, config,
                                        "stochastic", frame_index=5)


def tree_digest(root) -> str:
    """sha256 over a directory's files in name order: each name, a NUL, its bytes."""
    h = hashlib.sha256()
    for path in sorted(root.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class TestDatasetFiles:
    @pytest.mark.parametrize("path_name, digest", [
        ("moving_path.csv", "3cf54771c0bf7c8ef47c0a89855f5861cc5d2a6fe84fb162aee8ead78d67ea15"),
        ("static_path.csv", "3792b75be2842a1e3d9517e48fa282dc3b3681ee2be20ee77abeee0483f8e4fe"),
    ])
    def test_golden_bytes(self, tmp_path, path_name, digest):
        # Recorded from the csv.writer writers that the one-string writers
        # replaced: intrinsics.txt, poses.csv and three scans. Recorded again
        # once a frame's sweep spanned its two boundary poses: intrinsics.txt
        # lost its scan period line, t_offset_s became a / A of the frame's
        # 0.667 s pose interval, and the moving path's ranges moved with its rays.
        # Recorded again once each scan became one binary record of float64s.
        # Recorded again once one scans.bin held the sensor and every frame,
        # in place of intrinsics.txt and a file per frame. Recorded again once
        # every pulse drew from the counter-based streams.
        config = RunConfig(elevations=[-0.09, 0.0, 0.09], azimuth_count=32,
                           n_frames=3).validate()
        pipeline.generate_to_disk(shipped_file("panel_room.txt"),
                                  shipped_file(path_name), tmp_path, config)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["poses.csv", "scans.bin"]
        assert tree_digest(tmp_path) == digest

    def test_an_earlier_layouts_files_are_removed(self, tmp_path):
        # Datasets held intrinsics.txt and a scan per frame before scans.bin,
        # first as text and then as binary records; a gen into such a
        # directory leaves none of them, and leaves every other file.
        for name in ["intrinsics.txt", "scan_0000.csv", "notes.txt",
                     *(f"scan_{i:04d}.bin" for i in range(4))]:
            (tmp_path / name).write_text("x\n")
        pipeline.write_dataset(tmp_path, dataset("static_path.csv", 2))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "notes.txt", "poses.csv", "scans.bin"]
        assert (tmp_path / "notes.txt").read_text() == "x\n"
        assert len(pipeline.read_dataset(tmp_path)) == 2

    def test_a_directory_without_scans_bin_says_to_regenerate(self, tmp_path):
        # A dataset of the layout before scans.bin, which nothing reads.
        pipeline.write_dataset(tmp_path, dataset("static_path.csv", 2))
        (tmp_path / "scans.bin").unlink()
        for name in ["intrinsics.txt", "scan_0000.bin", "scan_0001.bin"]:
            (tmp_path / name).write_bytes(b"PLNKSCN1")
        with pytest.raises(InvalidInputError) as info:
            pipeline.read_dataset(tmp_path)
        assert str(info.value) == (f"{tmp_path / 'scans.bin'} is missing: regenerate the "
                                   f"dataset with plink gen")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_a_cut_or_flipped_record_reads_or_is_refused(self, tmp_path_factory, data):
        # Whatever a truncation or a flipped byte does to scans.bin, the
        # reader refuses it as bad input or gives frames: never another error.
        out = tmp_path_factory.mktemp("fuzz")
        pipeline.write_dataset(out, fuzz_frames())
        record = (out / "scans.bin").read_bytes()
        if data.draw(st.booleans(), label="cut"):
            record = record[:data.draw(st.integers(0, len(record) - 1), label="length")]
        else:
            # Half the flips land in the header and the elevations.
            at = data.draw(st.one_of(st.integers(0, 59), st.integers(0, len(record) - 1)),
                           label="at")
            flip = data.draw(st.integers(1, 255), label="mask")
            record = record[:at] + bytes([record[at] ^ flip]) + record[at + 1:]
        (out / "scans.bin").write_bytes(record)
        try:
            frames = pipeline.read_dataset(out)
        except InvalidInputError:
            return
        assert frames and all(isinstance(f, sensor.ScanFrame) for f in frames)

    def test_read_back_frames_cast_the_simulated_rays(self, tmp_path):
        # The poses file holds each pose's own quaternion, so a dataset read
        # back casts, bit for bit, the rays the simulator cast.
        config = RunConfig(elevations=[-0.09, 0.0, 0.09], azimuth_count=32,
                           n_frames=3).validate()
        simulated = pipeline.generate_to_disk(shipped_file("panel_room.txt"),
                                              shipped_file("moving_path.csv"),
                                              tmp_path, config)
        read = pipeline.read_dataset(tmp_path)
        assert len(read) == len(simulated) == 3
        for got, want in zip(read, simulated):
            for got_rays, want_rays in zip(sensor.ray_directions(got.intrinsics, got),
                                           sensor.ray_directions(want.intrinsics, want)):
                np.testing.assert_array_equal(got_rays, want_rays)
            np.testing.assert_array_equal(got.returned, want.returned)
            np.testing.assert_array_equal(got.ranges[got.returned], want.ranges[want.returned])


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
class RowTrace:
    """One march row as the per-ray references read it: knots, which may
    repeat, and the cdf on them.

    It reads as a `field.CdfTrace` does (``grid.gammas``, ``cdf``,
    ``total_mass``); that one's `SampleGrid` takes strictly increasing knots
    only, as an exact trace has them.
    """

    gammas: np.ndarray
    cdf: np.ndarray

    @property
    def grid(self):
        return self

    @property
    def total_mass(self) -> float:
        return float(self.cdf[-1])


@dataclass
class RayRender:
    """Field evaluations along one render ray."""

    trace: RowTrace
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
    gammas = np.sort(np.concatenate([points, edges]))
    sigma, phi = field(state.fine, gammas)
    cdf, _ = cdf_from_sigma_values(sigma, trapezoid_deltas(gammas))
    return RayRender(RowTrace(gammas, cdf), phi, float(expit(np.dot(bin_masses(cdf), phi))))


def oracle_render_ray(render, mode, *, draws, level, peak_threshold, rng=None):
    """Ranges (possibly several, possibly none) for one evaluated ray."""
    if render.q_hat < 0.5:
        return []
    trace = render.trace
    if mode == "stochastic":
        out = []
        for _ in range(draws):
            sample = inverse_transform_sample(trace, float(rng.uniform(1e-12, 1.0)))
            if sample is not None:
                out.append(sample)
        return out
    if mode == "confidence":
        sample = render_confidence(trace, level)
        return [] if sample is None else [sample]
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


def oracle_baseline_ray(render):
    """Deterministic weighted-depth rendering of one ray, for the baseline."""
    if render.q_hat < 0.5:
        return []
    masses = bin_masses(render.trace.cdf)
    total = masses.sum()
    if total <= 1e-6:
        return []
    return [float(np.dot(masses / total, render.trace.grid.gammas))]


def oracle_frame_cloud(state, frame, scale, config, mode, frame_index=0):
    """One ray at a time, each on its own render stream: frame ``frame_index``'s
    ray i draws on ray id ``frame_index * n_rays + i``."""
    origins, dirs = sensor.ray_directions(frame.intrinsics, frame)
    first_id = frame_index * frame.ranges.size
    points = []
    for ray_id, (origin, direction) in enumerate(zip(origins.reshape(-1, 3),
                                                     dirs.reshape(-1, 3)), start=first_id):
        ray = Ray(origin, direction, frame.intrinsics.s_max)
        render = oracle_evaluate_ray(state, ray, scale, config.n_bins, config.n_fine)
        if mode == WEIGHTED_DEPTH:
            ranges = oracle_baseline_ray(render)
        else:
            rng = RowDraws(reference_row((config.seed, ray_id, pipeline.RENDER_STREAM),
                                         config.render_draws))
            ranges = oracle_render_ray(render, mode, draws=config.render_draws,
                                       level=config.confidence_level,
                                       peak_threshold=config.peak_threshold, rng=rng)
        points += [origin + r * direction for r in ranges]
    return np.asarray(points).reshape(-1, 3)


def render_setup(seed, batch_rays):
    config = RunConfig(elevations=[-0.05, 0.0, 0.05], azimuth_count=8, s_max=4.0,
                       n_bins=8, n_fine=11, hidden_width=8,
                       hidden_layers=1, encoding_levels=2, dir_levels=1, sigma_bias=0.0,
                       batch_rays=batch_rays, seed=seed).validate()
    state = pipeline.models_from_config(config)
    scale = sensor.to_unit_cube(([-5.0] * 3, [5.0] * 3))
    intr = pipeline.intrinsics_from_config(config)
    shape = (intr.n_beams, intr.azimuth_count)
    frame = sensor.ScanFrame(intr, sensor.Pose(IDENTITY, np.zeros(3), 0.0),
                             sensor.Pose(IDENTITY, np.array([0.5, 0.0, 0.0]), 0.1),
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
        mode = WEIGHTED_DEPTH if baseline else mode
        want = oracle_frame_cloud(state, frame, scale, config, mode)
        got = pipeline.render_frame_cloud(state, frame, scale, config, mode).points
        assert len(want) > 0
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    def test_stochastic_draws_are_keyed_on_the_frame(self):
        # Three frames at one pose: frame 0 keeps the streams keyed on the ray
        # index alone, and the others draw on their own.
        state, frame, scale, config = render_setup(seed=1, batch_rays=7)
        clouds = [pipeline.render_frame_cloud(state, frame, scale, config, "stochastic",
                                              frame_index=k).points for k in range(3)]
        assert len({cloud.tobytes() for cloud in clouds}) == 3
        assert clouds[0].tobytes() == pipeline.render_frame_cloud(
            state, frame, scale, config, "stochastic").points.tobytes()
        for k in (0, 2):
            want = oracle_frame_cloud(state, frame, scale, config, "stochastic", frame_index=k)
            assert clouds[k].shape == want.shape
            np.testing.assert_allclose(clouds[k], want, rtol=0.0, atol=1e-9)

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
    """Random (grid, cdf, q_hat, uniforms) rows with plateaus, repeated knots
    and an empty ray."""
    rng = np.random.default_rng(seed)
    grid = np.sort(rng.uniform(0.1, 20.0, size=(n_rays, n_points)), axis=1)
    grid[3:, 11] = grid[3:, 10]                         # a knot twice
    grid[1:20, 14:18] = grid[1:20, 13:14]               # five times
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
    @pytest.mark.parametrize("mode", RENDER_MODES)
    @pytest.mark.parametrize("gated", [True, False])
    def test_matches_per_ray_picks(self, seed, mode, gated):
        # Ungated, every ray passes the drop gate, so every ray's pick is compared.
        grid, cdf, q_hat, uniforms = picker_rows(seed)
        if not gated:
            q_hat[:] = 1.0
        got = pipeline.render_ray(grid, cdf, q_hat, mode, uniforms=uniforms, level=0.3,
                                  peak_threshold=0.04)
        assert got.shape == (len(grid), 4 if mode == "stochastic" else 1)
        for i in range(len(grid)):
            render = RayRender(RowTrace(grid[i], cdf[i]), np.zeros_like(cdf[i]), float(q_hat[i]))
            if mode == WEIGHTED_DEPTH:
                want = oracle_baseline_ray(render)
            else:
                draws = iter(uniforms[i])
                fixed = type("Draws", (), {"uniform": lambda self, lo, hi: next(draws)})()
                want = oracle_render_ray(render, mode, draws=4, level=0.3, peak_threshold=0.04,
                                         rng=fixed)
            row = got[i][~np.isnan(got[i])]
            assert row.tolist() == want, i

    def test_per_ray_draws_equal_one_vector_draw(self):
        # Render maps a draw u to 1e-12 + (1 - 1e-12) u, as the per-ray
        # oracle's uniform(1e-12, 1) does.
        scalar = RowDraws(reference_row((1, 17, pipeline.RENDER_STREAM), 5))
        vector = sampler.ray_rng(1, 17, pipeline.RENDER_STREAM, 5)
        want = [float(scalar.uniform(1e-12, 1.0)) for _ in range(5)]
        assert (1e-12 + (1.0 - 1e-12) * vector).tolist() == want

    def test_unknown_mode_rejected(self):
        grid, cdf, q_hat, _ = picker_rows(3)
        with pytest.raises(InvalidInputError):
            pipeline.render_ray(grid, cdf, q_hat, "brightest", level=0.5, peak_threshold=0.05)


class TestStreams:
    """Every random stream the pipeline draws from, pinned to its key."""

    @staticmethod
    def oracle_params(model, rng, sigma_bias):
        """He init per layer in layout order: zero biases but the sigma head's."""
        parts = []
        for i, (w_shape, b_shape) in enumerate(model.layer_shapes()):
            parts.append(rng.normal(0.0, np.sqrt(2.0 / w_shape[0]), size=w_shape).ravel())
            parts.append(np.full(b_shape, sigma_bias if i == model.hidden_layers else 0.0))
        return np.concatenate(parts).astype(np.float32)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 5])
    def test_weights_come_from_the_init_stream_coarse_first(self, seed):
        config = RunConfig(seed=seed, encoding_levels=2, dir_levels=1, hidden_layers=2,
                           hidden_width=8, sigma_bias=-1.5).validate()
        state = pipeline.models_from_config(config)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0A23E)))
        for model in (state.coarse, state.fine):
            want = self.oracle_params(model, rng, config.sigma_bias)
            assert model.params.dtype == np.float32
            np.testing.assert_array_equal(model.params, want)

    @pytest.mark.parametrize("seed", [0, 3, 2**40 + 1])
    def test_batch_order_comes_from_the_order_stream(self, seed, monkeypatch):
        n_rays, epochs = 11, 4
        dirs = np.tile([1.0, 0.0, 0.0], (n_rays, 1))
        rays = RaySet(np.zeros((n_rays, 3)), dirs, np.full((n_rays, 1), 2.0), 5.0)
        seen = []

        def step(state, batch, config, scale, epoch, depth_l2):
            seen.append((epoch, batch.ids.tolist()))
            return LossBreakdown(0.0, 0.0, 0.0, config.alpha)

        monkeypatch.setattr(sampler, "train_step", step)
        config = RunConfig(seed=seed, epochs=epochs, batch_rays=4).validate()
        pipeline.train(pipeline.TrainSet(rays, None), config, state=None)
        for epoch in range(epochs):
            draws = reference_row((seed, 0x0BDE4, epoch), n_rays)
            order = sorted(range(n_rays), key=lambda i: draws[i])    # a stable sort
            assert seen[3 * epoch:3 * epoch + 3] == [
                (epoch, order[0:4]), (epoch, order[4:8]), (epoch, order[8:])]
        assert len(seen) == 3 * epochs
