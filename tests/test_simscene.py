"""Scene simulator: the batched ray x surface kernel against a scalar oracle,
exact cdfs, pulse draws, dataset generation and the shipped scene."""

import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest

from plink import sensor, simscene
from plink.errors import InvalidInputError
from plink.field import Ray
from plink.pipeline import resample_path

SCENE = "panel_room.txt"
PATHS = ("static_path.csv", "moving_path.csv")
ELEVATIONS = [-0.09, -0.03, 0.03, 0.09]


def shipped_scene():
    return simscene.load_scene(simscene.builtin_scene_path(SCENE))


def shipped_path(name, n_frames):
    return resample_path(sensor.read_poses(simscene.builtin_scene_path(name)), n_frames)


def intrinsics():
    return sensor.SensorIntrinsics(ELEVATIONS, 64, 20.0, 0.1)


def oracle_intersect(surface, origin, direction):
    """Scalar rectangle test built on np.cross and np.dot: the reference."""
    helper = np.array([0.0, 0.0, 1.0])
    if abs(surface.normal[2]) > 0.9:
        helper = np.array([1.0, 0.0, 0.0])
    u = np.cross(surface.normal, helper)
    u /= np.linalg.norm(u)
    v = np.cross(surface.normal, u)
    denom = float(np.dot(direction, surface.normal))
    if abs(denom) < 1e-12:
        return None
    s = float(np.dot(surface.origin - origin, surface.normal)) / denom
    if s <= 1e-9:
        return None
    local = origin + s * direction - surface.origin
    if abs(float(np.dot(local, u))) > surface.extent[0] + 1e-12:
        return None
    if abs(float(np.dot(local, v))) > surface.extent[1] + 1e-12:
        return None
    return s


def unit(rows):
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def random_scene(rng, normals):
    surfaces = [simscene.SceneSurface(rng.uniform(-4.0, 4.0, 3), n,
                                      rng.uniform(0.5, 3.0, 2))
                for n in normals]
    return simscene.SceneSpec(surfaces, ([-10.0] * 3, [10.0] * 3))


def random_rays(rng, scene, n):
    """Rays aimed near surface centres (mostly hits) and in random directions."""
    origins = rng.uniform(-6.0, 6.0, (n, 3))
    centres = np.array([s.origin for s in scene.surfaces])
    targets = centres[rng.integers(len(scene.surfaces), size=n)]
    aimed = unit(targets + rng.normal(0.0, 1.5, (n, 3)) - origins)
    dirs = np.where(rng.random((n, 1)) < 0.8, aimed, unit(rng.normal(size=(n, 3))))
    return origins, dirs


def oracle_table(scene, origins, dirs):
    return np.array([[np.inf if (s := oracle_intersect(surf, o, d)) is None else s
                      for surf in scene.surfaces] for o, d in zip(origins, dirs)])


class TestRayDistances:
    def test_oblique_rects_agree_with_scalar_oracle(self):
        rng = np.random.default_rng(11)
        scene = random_scene(rng, unit(rng.normal(size=(12, 3))))
        origins, dirs = random_rays(rng, scene, 400)
        got = simscene.ray_distances(scene, origins, dirs)
        want = oracle_table(scene, origins, dirs)
        assert got.shape == (400, 12)
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        hit = np.isfinite(want)
        assert hit.sum() > 200
        np.testing.assert_allclose(got[hit], want[hit], rtol=0.0, atol=1e-12)

    def test_axis_aligned_rects_are_bit_identical(self):
        rng = np.random.default_rng(12)
        normals = np.repeat(np.vstack([np.eye(3), -np.eye(3)]), 2, axis=0)
        scene = random_scene(rng, normals)
        origins, dirs = random_rays(rng, scene, 400)
        got = simscene.ray_distances(scene, origins, dirs)
        want = oracle_table(scene, origins, dirs)
        assert np.isfinite(want).sum() > 200
        np.testing.assert_array_equal(got, want)

    def test_intersect_goes_through_the_kernel(self):
        rng = np.random.default_rng(13)
        scene = random_scene(rng, unit(rng.normal(size=(5, 3))))
        origins, dirs = random_rays(rng, scene, 50)
        table = simscene.ray_distances(scene, origins, dirs)
        for r, (o, d) in enumerate(zip(origins, dirs)):
            for k, surface in enumerate(scene.surfaces):
                s = surface.intersect(o, d)
                assert (s is None and table[r, k] == np.inf) or s == table[r, k]

    def test_misses_are_inf_and_raise_no_warning(self):
        scene = simscene.SceneSpec(
            [simscene.SceneSurface([2.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 1.0])],
            ([-5.0] * 3, [5.0] * 3))
        origins = np.array([[0.0, 0, 0], [0, 0, 0], [3, 0, 0], [0, 1 + 1e-9, 0],
                            [0, 0, 0], [0, 1 + 1e-13, 0]])
        dirs = np.array([[0.0, 1, 0],   # parallel to the plane
                         [-1, 0, 0],    # plane behind the origin
                         [1, 0, 0],     # starts past the plane
                         [1, 0, 0],     # just outside the extent
                         [1, 0, 0],     # hit
                         [1, 0, 0]])    # on the edge, within 1e-12 m
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = simscene.ray_distances(scene, origins, dirs)
        np.testing.assert_array_equal(got[:, 0], [np.inf] * 4 + [2.0, 2.0])

    def test_ray_hits_sorts_stably_by_distance(self):
        near = simscene.SceneSurface([2.0, 0, 0], [-1.0, 0, 0], [1.0, 1.0], 0.5)
        far = simscene.SceneSurface([5.0, 0, 0], [-1.0, 0, 0], [1.0, 1.0])
        twin = simscene.SceneSurface([5.0, 0, 0], [1.0, 0, 0], [2.0, 2.0], 0.25)
        bounds = ([-6.0] * 3, [6.0] * 3)
        for surfaces in ([far, near, twin], [twin, far, near]):
            hits = simscene.ray_hits(simscene.SceneSpec(surfaces, bounds),
                                     np.zeros(3), np.array([1.0, 0, 0]), 10.0)
            tied = [s for s in surfaces if s is not near]
            assert [s for _, s in hits] == [near] + tied
            assert [d for d, _ in hits] == [2.0, 5.0, 5.0]

    def test_many_coincident_surfaces_keep_scene_order(self):
        rng = np.random.default_rng(14)
        surfaces = [simscene.SceneSurface([x, 0, 0], [rng.choice([-1.0, 1.0]), 0, 0],
                                          rng.uniform(1.0, 2.0, 2), rng.uniform(0.1, 1.0))
                    for x in rng.choice([3.0, 5.0, 7.0], size=40)]
        hits = simscene.ray_hits(simscene.SceneSpec(surfaces, ([-8.0] * 3, [8.0] * 3)),
                                 np.zeros(3), np.array([1.0, 0, 0]), 10.0)
        assert [s for _, s in hits] == sorted(surfaces, key=lambda s: s.origin[0])

    def test_ray_hits_stops_at_s_max(self):
        hits = simscene.ray_hits(shipped_scene(), np.zeros(3), np.array([1.0, 0, 0]), 5.0)
        assert [d for d, _ in hits] == [4.0]


class TestBounds:
    def test_rect_poking_out_of_bounds_is_rejected(self):
        # The centre is inside; the tangent axis of a +x normal is -y, so the
        # rect reaches y = 5.5.
        rect = simscene.SceneSurface([0.0, 4.5, 0.0], [1.0, 0.0, 0.0], [1.0, 0.5])
        with pytest.raises(InvalidInputError):
            simscene.SceneSpec([rect], ([-5.0] * 3, [5.0] * 3))

    def test_rect_touching_bounds_is_accepted(self):
        rect = simscene.SceneSurface([0.0, 4.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.5])
        simscene.SceneSpec([rect], ([-5.0] * 3, [5.0] * 3))

    def test_scene_file_with_protruding_rect_is_rejected(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("bounds = -5 -5 -5 5 5 5\n[surface]\nkind = rect\n"
                        "origin = 4.5 0 0\nnormal = 0 0 1\nextent = 1 1\n")
        with pytest.raises(InvalidInputError, match="scene.txt line 1: all surface corners"):
            simscene.load_scene(path)


def frame_rays(frame):
    origins, dirs = sensor.ray_directions(frame.intrinsics, frame)
    return [Ray(o, d, frame.intrinsics.s_max)
            for o, d in zip(origins.reshape(-1, 3), dirs.reshape(-1, 3))]


def drop_probability(scene, ray):
    """P(no return), counted from the drop side of the hit list."""
    reach, drop = 1.0, 0.0
    for _, surface in simscene.ray_hits(scene, ray.origin, ray.direction, ray.s_max):
        if surface.incidence_angle(ray.direction) > surface.oblique_drop_angle:
            drop += reach * surface.return_prob
        reach *= 1.0 - surface.return_prob
    return drop + reach


def tilted_scene_and_rays(rng, n):
    """Randomly tilted rects with random return probabilities and oblique
    limits, the first one doubled in place (its jumps merge), and n rays."""
    surfaces = [simscene.SceneSurface(rng.uniform(-4.0, 4.0, 3), normal,
                                      rng.uniform(0.5, 3.0, 2), rng.uniform(0.2, 1.0),
                                      rng.uniform(0.5, np.pi / 2))
                for normal in unit(rng.normal(size=(12, 3)))]
    first = surfaces[0]
    surfaces.append(simscene.SceneSurface(first.origin, first.normal, first.extent, 0.5))
    scene = simscene.SceneSpec(surfaces, ([-10.0] * 3, [10.0] * 3))
    return (scene, *random_rays(rng, scene, n))


def trace_digest(traces) -> str:
    h = hashlib.sha256()
    for t in traces:
        for values in (t.grid.gammas, t.grid.deltas, t.cdf, t.survival):
            h.update(np.int64(values.size).tobytes() + values.tobytes())
    return h.hexdigest()


class TestExactCdf:
    def test_mass_plus_drop_is_one(self):
        scene = shipped_scene()
        frame = simscene.generate_dataset(scene, shipped_path("moving_path.csv", 4)[:2],
                                          intrinsics(), seed=3)[0]
        rays = frame_rays(frame)
        traces = [simscene.trace_true_cdf(scene, r) for r in rays]
        drops = [drop_probability(scene, r) for r in rays]
        masses = [t.total_mass for t in traces]
        np.testing.assert_allclose(np.add(masses, drops), 1.0, rtol=0.0, atol=1e-12)
        assert 0 < sum(d == 1.0 for d in drops) < len(rays)   # some rays always drop
        assert any(len(t.grid) == 2 for t in traces)          # through the p = 0.5 panel

    def test_golden_digest(self):
        # Recorded before the kernel took its component-first layout and the
        # trace checks were rewritten: the traces of every ray of a
        # moving-path frame and of a tilted scene with drops and a merged
        # jump must keep their bytes.
        scene, rays = shipped_scene(), []
        frame = simscene.generate_dataset(scene, shipped_path("moving_path.csv", 4)[:2],
                                          intrinsics(), seed=3)[0]
        tilted, origins, dirs = tilted_scene_and_rays(np.random.default_rng(21), 400)
        traces = ([simscene.trace_true_cdf(scene, r) for r in frame_rays(frame)]
                  + [simscene.trace_true_cdf(tilted, Ray(o, d, 20.0))
                     for o, d in zip(origins, dirs)])
        assert sum(len(t.grid) > 1 for t in traces) > 50
        assert trace_digest(traces) == (
            "b67b48bd2f3f37df8d3b46c5d182abdd649324d66bcdf9316b6cc5a4d8a750b1")

    def test_one_row_sorted_hits_equal_the_batched_rows(self):
        scene = shipped_scene()
        frame = simscene.generate_dataset(scene, shipped_path("moving_path.csv", 4)[:2],
                                          intrinsics(), seed=3)[0]
        frame_origins, frame_dirs = sensor.ray_directions(frame.intrinsics, frame)
        cases = [(scene, frame_origins.reshape(-1, 3), frame_dirs.reshape(-1, 3)),
                 tilted_scene_and_rays(np.random.default_rng(22), 300)]
        for scene, origins, dirs in cases:
            batched = simscene._sorted_hits(scene, origins, dirs, 20.0)
            for i, (o, d) in enumerate(zip(origins, dirs)):
                row = simscene._sorted_hits(scene, o, d, 20.0)
                for one, many in zip(row, batched):
                    assert one.shape == (1, len(scene.surfaces))
                    assert one[0].tobytes() == many[i].tobytes()

    def test_bimodal_ray_behind_the_panel(self):
        trace = simscene.trace_true_cdf(shipped_scene(), Ray(np.zeros(3), [1.0, 0, 0], 20.0))
        np.testing.assert_array_equal(trace.grid.gammas, [4.0, 9.0])
        np.testing.assert_array_equal(trace.cdf, [0.5, 1.0])

    def test_sample_return_frequencies_match_the_jumps(self):
        scene = shipped_scene()
        draws = 3000
        # panel then wall; panel off-centre; box -y face; box -x face past
        # its oblique limit (always drops); room wall
        rays = [Ray(np.zeros(3), unit(np.array(d)), 20.0)
                for d in ([1.0, 0, 0], [1.0, 0.2, 0.05], [0.8, 1.0, 0], [2.0, 5.0, 0],
                          [-1.0, 0.3, 0])]
        for k, ray in enumerate(rays):
            trace = simscene.trace_true_cdf(scene, ray)
            rng = np.random.default_rng(k)
            outcomes = [simscene.sample_return(scene, ray, rng) for _ in range(draws)]
            ranges = np.array([o for o in outcomes if o is not None])
            assert np.all(np.isin(ranges, trace.grid.gammas))
            jumps = np.diff(trace.cdf, prepend=0.0)
            freq = np.array([(ranges == g).sum() for g in trace.grid.gammas]) / draws
            tol = 4.0 * np.sqrt(0.25 / draws)
            np.testing.assert_allclose(freq, jumps, rtol=0.0, atol=tol)
            drop_freq = 1.0 - ranges.size / draws
            assert abs(drop_freq - (1.0 - trace.total_mass)) <= tol


def dataset_digest(frames) -> str:
    h = hashlib.sha256()
    for frame in frames:
        h.update(frame.ranges.tobytes())
        h.update(frame.returned.tobytes())
    return h.hexdigest()


class TestGenerateDataset:
    def test_golden_digest(self):
        # Recorded from the per-surface scalar simulator this kernel replaced,
        # and again once poses kept their quaternions: that moved the moving
        # path's ranges by round-off (at most 3.6e-15 m), with the same masks.
        scene = shipped_scene()
        frames = (simscene.generate_dataset(scene, shipped_path("moving_path.csv", 3),
                                            intrinsics(), seed=7)
                  + simscene.generate_dataset(scene, shipped_path("static_path.csv", 2),
                                              intrinsics(), seed=7))
        assert dataset_digest(frames) == (
            "4584ead6f3597eee8a7054b51f94ad5525af8bcb77f1d57611c4f7334c06944a")

    def test_each_pulse_matches_sample_return_on_its_stream(self):
        scene, seed = shipped_scene(), 5
        path = shipped_path("moving_path.csv", 4)
        frame = simscene.generate_dataset(scene, path[1:3], intrinsics(), seed)[0]
        n_az = frame.intrinsics.azimuth_count
        for i, ray in enumerate(frame_rays(frame)):
            b, a = divmod(i, n_az)
            rng = np.random.default_rng(np.random.SeedSequence((seed, 0, b, a)))
            want = simscene.sample_return(scene, ray, rng)
            if want is None:
                assert not frame.returned[b, a]
            else:
                assert frame.returned[b, a] and frame.ranges[b, a] == want
        assert 0 < frame.returned.sum() < frame.returned.size

    def test_empty_scene_drops_every_pulse(self):
        scene = simscene.SceneSpec([], ([-1.0] * 3, [1.0] * 3))
        frames = simscene.generate_dataset(scene, shipped_path("static_path.csv", 2),
                                           intrinsics(), seed=1)
        assert len(frames) == 2 and not any(f.returned.any() for f in frames)


class TestShippedScene:
    @pytest.mark.parametrize("name", (SCENE,) + PATHS)
    def test_builtin_files_resolve(self, name):
        assert simscene.builtin_scene_path(name).is_file()

    def test_scene_parses(self):
        scene = shipped_scene()
        assert len(scene.surfaces) == 1 + 6 + 6
        np.testing.assert_array_equal(scene.return_probs[:2], [0.5, 1.0])
        assert np.min(scene.oblique_limits) == pytest.approx(np.deg2rad(60.0))

    def test_benchmark_scene_parses(self):
        # perfbench keeps its own scene file: one the strict parser rejects
        # should fail here, not in a benchmark run.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "scene" / "scene.txt"
        assert simscene.load_scene(path).surfaces

    @pytest.mark.parametrize("name", PATHS)
    def test_paths_parse(self, name):
        poses = sensor.read_poses(simscene.builtin_scene_path(name))
        assert len(poses) == 2 and poses[1].timestamp > poses[0].timestamp

    def test_unknown_name_is_rejected(self):
        with pytest.raises(InvalidInputError):
            simscene.builtin_scene_path("no_such_scene.txt")
