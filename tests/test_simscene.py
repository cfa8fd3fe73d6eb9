"""Scene simulator: the batched ray x surface kernel against a scalar oracle,
the single-ray walk against the kernel, exact cdfs, pulse draws, dataset
generation and the shipped scene; scene packing and frame tracing byte for
byte against their reference forms (`tests.simulator_reference`)."""

import hashlib
import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plink import sensor, simscene
from plink.config import fill, read_sections
from plink.errors import InvalidInputError
from plink.field import Ray
from plink.pipeline import resample_path
from tests import simulator_reference as reference
from tests.test_sampler import numpy_stream

SCENE = "panel_room.txt"
PATHS = ("static_path.csv", "moving_path.csv")
ELEVATIONS = [-0.09, -0.03, 0.03, 0.09]


def shipped_file(name):
    """A scene or pose path file shipped in the package, where the CLI's users find it."""
    return files("plink") / "scenes" / name


def shipped_scene():
    return simscene.load_scene(shipped_file(SCENE))


def shipped_path(name, n_frames):
    return resample_path(sensor.read_poses(shipped_file(name)), n_frames)


def intrinsics():
    return sensor.SensorIntrinsics(ELEVATIONS, 64, 20.0)


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


def assert_walk_equals_batch(scene, origins, dirs, s_max):
    """Each ray's ``_walk`` equals its ``_sorted_hits`` row: distances byte for
    byte, surface order, return probabilities and drop flags. Returns the
    walks as (distance, surface, drops) lists."""
    dist, order, drops = simscene._sorted_hits(scene, origins, dirs, s_max)
    walks = []
    for i, (o, d) in enumerate(zip(origins.tolist(), dirs.tolist())):
        hits = simscene._walk(scene.rows, o, d, s_max)
        k = len(hits)
        assert np.isinf(dist[i, k:]).all()
        assert np.array([h[0] for h in hits], dtype=float).tobytes() == dist[i, :k].tobytes()
        assert [h[1] for h in hits] == order[i, :k].tolist()
        assert [h[2] for h in hits] == scene.return_probs[order[i, :k]].tolist()
        assert [h[3] for h in hits] == drops[i, :k].tolist()
        walks.append([(s, j, dropped) for s, j, _, dropped in hits])
    return walks


def oblique_limit(rng):
    """A right angle, which no hit exceeds, or a random angle below it."""
    return np.pi / 2 if rng.random() < 0.5 else rng.uniform(0.3, np.pi / 2)


def mixed_parameters(rng, n_rects, n_boxes):
    """Tilted rects and axis-aligned boxes with random extents, return
    probabilities and oblique limits, half of them right angles, so that a
    ray's hits may all be on surfaces that never drop: (kind, arguments)
    pairs for `build`."""
    parts = [("rect", (rng.uniform(-4.0, 4.0, 3), normal, rng.uniform(0.3, 3.0, 2),
                       rng.uniform(0.05, 1.0), oblique_limit(rng)))
             for normal in unit(rng.normal(size=(n_rects, 3)))]
    return parts + [("box", (rng.uniform(-4.0, 1.0, 3), rng.uniform(0.5, 3.0, 3),
                             rng.uniform(0.05, 1.0), oblique_limit(rng)))
                    for _ in range(n_boxes)]


def build(parts, surface=simscene.SceneSurface, box_faces=simscene.box_faces) -> list:
    """The surfaces of `mixed_parameters`' pairs, by the package or by the
    reference's constructors."""
    return [s for kind, args in parts
            for s in ([surface(*args)] if kind == "rect" else box_faces(*args))]


def mixed_scene(rng, n_rects, n_boxes):
    """`mixed_parameters`' scene, its first surface doubled in place."""
    surfaces = build(mixed_parameters(rng, n_rects, n_boxes))
    if surfaces:
        first = surfaces[0]
        surfaces.append(simscene.SceneSurface(first.origin, -first.normal, first.extent,
                                              rng.uniform(0.05, 1.0)))
    return simscene.SceneSpec(surfaces, ([-10.0] * 3, [10.0] * 3))


def edge_seeking_rays(rng, scene, n):
    """Random rays, rays aimed at surface points and at the edges of the
    extent or of the 1e-12 m reach beyond it, rays with a zero direction
    component (parallel to box faces), and origins on surfaces."""
    origins = rng.uniform(-6.0, 6.0, (n, 3))
    dirs = unit(rng.normal(size=(n, 3)))
    for i in range(n):
        surface = scene.surfaces[rng.integers(len(scene.surfaces))]
        u, v = surface.axes
        a, b = rng.choice([-1.0, 1.0, rng.uniform(-1.0, 1.0)], size=2)
        half = surface.extent + rng.choice([0.0, 1e-12])
        point = surface.origin + a * half[0] * u + b * half[1] * v
        kind = rng.integers(4)
        if kind == 0:      # aimed at a point of the surface, often at an edge
            dirs[i] = unit(point - origins[i])
        elif kind == 1:    # parallel to the axis planes of one component
            dirs[i, rng.integers(3)] = 0.0
            dirs[i] = unit(dirs[i])
        elif kind == 2:    # starting on the surface, or 1e-10 m in front of it
            origins[i] = point - rng.choice([0.0, 1e-10]) * surface.normal
    return origins, dirs


class TestWalk:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=2))
    def test_walk_equals_the_batched_rows(self, seed, n_rects, n_boxes):
        rng = np.random.default_rng(seed)
        scene = mixed_scene(rng, n_rects, n_boxes)
        if not scene.surfaces:
            assert simscene._walk(scene.rows, [0.0] * 3, [1.0, 0.0, 0.0], 20.0) == []
            return
        origins, dirs = edge_seeking_rays(rng, scene, 48)
        finite = simscene.ray_distances(scene, origins, dirs)
        finite = finite[np.isfinite(finite)]
        # A hit at exactly s_max is kept, and a NaN s_max keeps none.
        for s_max in (20.0, rng.choice(finite) if finite.size else 1.0, np.nan):
            walks = assert_walk_equals_batch(scene, origins, dirs, s_max)
            if np.isnan(s_max):
                assert not any(walks)
            else:
                assert sum(map(len, walks)) == np.count_nonzero(finite <= s_max)

    # A p = 0.5 panel at x = 2 facing the origin, a coincident p = 0.25 panel
    # facing away, and a wall at x = 5; the panel drops reflections past 60
    # degrees, and the others, whose limit is a right angle, none. The
    # panels' u axis is +y or -y, their v axis -z or +z.
    @pytest.mark.parametrize("origin, direction, s_max, want", [
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 20.0,
         [(2.0, 0, False), (2.0, 1, False), (5.0, 2, False)]),
        ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), 20.0, []),
        ((0.0, 1.0 + 1e-13, 0.0), (1.0, 0.0, 0.0), 20.0,
         [(2.0, 0, False), (2.0, 1, False), (5.0, 2, False)]),
        ((0.0, 1.0 + 1e-12, 0.0), (1.0, 0.0, 0.0), 20.0,
         [(2.0, 0, False), (2.0, 1, False), (5.0, 2, False)]),
        ((0.0, 0.0, -1.0 - 1e-12), (1.0, 0.0, 0.0), 20.0,
         [(2.0, 0, False), (2.0, 1, False), (5.0, 2, False)]),
        ((0.0, 1.0 + 1e-9, 0.0), (1.0, 0.0, 0.0), 20.0, [(2.0, 1, False), (5.0, 2, False)]),
        ((2.0 - 2.5e-13, 0.0, 0.0), (5e-13, 1.0, 0.0), 20.0, []),
        ((2.0, 0.0, 0.0), (1.0, 0.0, 0.0), 20.0, [(3.0, 2, False)]),
        ((2.0 - 1e-10, 0.0, 0.0), (1.0, 0.0, 0.0), 20.0, [(5.0 - (2.0 - 1e-10), 2, False)]),
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 5.0,
         [(2.0, 0, False), (2.0, 1, False), (5.0, 2, False)]),
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), np.nextafter(5.0, 0.0),
         [(2.0, 0, False), (2.0, 1, False)]),
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), np.nan, []),
        ((1.5, 0.0, -1.2), (0.28, 0.0, 0.96), 20.0,
         [(0.5 / 0.28, 0, True), (0.5 / 0.28, 1, False)]),
        ((4.5, 0.0, -1.2), (0.28, 0.0, 0.96), 20.0, [(0.5 / 0.28, 2, False)]),
    ], ids=["coincident", "parallel", "on-edge", "at-reach-u", "at-reach-v", "past-edge",
            "nearly-parallel", "origin-on-surface",
            "origin-1e-10-in-front", "at-s_max", "past-s_max", "nan-s_max", "oblique-drop",
            "oblique-on-a-right-angle-limit"])
    def test_edge_cases_equal_the_batched_rows(self, origin, direction, s_max, want):
        panel = simscene.SceneSurface([2.0, 0, 0], [-1.0, 0, 0], [1.0, 1.0], 0.5,
                                      np.deg2rad(60.0))
        twin = simscene.SceneSurface([2.0, 0, 0], [1.0, 0, 0], [2.0, 2.0], 0.25)
        wall = simscene.SceneSurface([5.0, 0, 0], [-1.0, 0, 0], [3.0, 3.0])
        scene = simscene.SceneSpec([panel, twin, wall], ([-6.0] * 3, [6.0] * 3))
        walks = assert_walk_equals_batch(scene, np.array([origin]), np.array([direction]), s_max)
        assert walks == [want]


def numpy_frame(normal):
    """The unit normal and its tangent axes by numpy formulas: the normal
    over ``np.linalg.norm``, and u and v by ``np.cross``, u over the square
    root of its summed squares."""
    normal = normal / np.linalg.norm(normal)
    helper = np.array([1.0, 0.0, 0.0] if abs(normal[2]) > 0.9 else [0.0, 0.0, 1.0])
    u = np.cross(normal, helper)
    u = u / np.sqrt(np.sum(u * u))
    return normal, np.stack([u, np.cross(normal, u)])


def test_no_incidence_angle_exceeds_a_right_angle():
    # _walk skips np.arccos when every hit's oblique limit is RIGHT_ANGLE,
    # as no |d . n| in [0, 1] gives a larger angle: here on signed zeros,
    # subnormals, the values next to 0 and 1 and a spread between.
    rng = np.random.default_rng(8)
    tiny = np.nextafter(0.0, 1.0)
    cosines = np.concatenate([[0.0, -0.0, 1.0, np.nextafter(1.0, 0.0)],
                              tiny * np.arange(1, 4096), np.logspace(-320.0, 0.0, 4096),
                              rng.random(1 << 16)])
    assert simscene.RIGHT_ANGLE == np.pi / 2
    assert np.arccos(cosines).max() == simscene.RIGHT_ANGLE
    sample = np.concatenate([cosines[:64], cosines[64::32]])
    for width in (1, 2, 3, 5):      # the short lists _walk passes, one call each
        assert all(np.arccos(sample[i:i + width].tolist()).max() <= simscene.RIGHT_ANGLE
                   for i in range(0, len(sample), width))


class TestSceneSurface:
    # SceneSurface builds its normal and axes on Python floats; tobytes()
    # tells -0.0 from 0.0, which assert_array_equal does not.
    def test_normal_and_axes_bytes_equal_the_numpy_formulas(self):
        rng = np.random.default_rng(5)
        normals = np.concatenate([
            rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (2000, 1)),
            np.eye(3), -np.eye(3), [[-0.0, 0.0, 2.0], [0.0, -0.0, -3.0], [-0.0, 1.0, -0.0]],
            [[0.0, 0.1, 0.9], [0.0, 0.1, -0.9]] + rng.normal(0.0, 1e-3, (2, 3))])
        for n in normals:
            surface = simscene.SceneSurface(np.zeros(3), n, [1.0, 1.0])
            normal, axes = numpy_frame(n)
            assert surface.normal.tobytes() == normal.tobytes()
            assert surface.axes.tobytes() == axes.tobytes()

    def test_box_faces_are_the_faces_of_the_box(self):
        lo, size = np.array([-1.5, 0.25, 2.0]), np.array([3.0, 0.7, 1.1])
        faces = simscene.box_faces(lo, size, 0.5, 1.0)
        for k, face in enumerate(faces):
            axis, sign = divmod(k, 2)
            normal = np.zeros(3)
            normal[axis] = 1.0 if sign else -1.0
            normal, axes = numpy_frame(normal)
            assert face.normal.tobytes() == normal.tobytes()
            assert face.axes.tobytes() == axes.tobytes()
            origin = lo + 0.5 * size
            origin[axis] = (lo + size)[axis] if sign else lo[axis]
            assert face.origin.tobytes() == origin.tobytes()
            # each half-extent is half the box's size along that tangent axis
            assert face.extent.tobytes() == (np.abs(axes) @ (0.5 * size)).tobytes()
            assert (face.return_prob, face.oblique_drop_angle) == (0.5, 1.0)

    @pytest.mark.parametrize("angle", [-0.5, np.nextafter(np.pi / 2, 2.0), np.nan],
                             ids=["negative", "past-a-right-angle", "nan"])
    def test_rejects_an_oblique_limit_outside_a_right_angle(self, angle):
        with pytest.raises(InvalidInputError, match=r"oblique drop angle must lie in \[0, pi/2\]"):
            simscene.SceneSurface(np.zeros(3), [1.0, 0, 0], [1.0, 1.0], 0.5, angle)

    @pytest.mark.parametrize("angle", [0.0, np.pi / 2], ids=["zero", "right-angle"])
    def test_accepts_either_end_of_the_oblique_range(self, angle):
        surface = simscene.SceneSurface(np.zeros(3), [1.0, 0, 0], [1.0, 1.0], 0.5, angle)
        assert surface.oblique_drop_angle == angle


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


def traced_rays():
    """(ray, exact trace) for every ray of a shipped moving-path frame, then
    for 400 rays of a tilted scene with drops and a merged jump."""
    scene = shipped_scene()
    frame = simscene.generate_dataset(scene, shipped_path("moving_path.csv", 4)[:2],
                                      intrinsics(), seed=3)[0]
    tilted, origins, dirs = tilted_scene_and_rays(np.random.default_rng(21), 400)
    rays = ([(scene, r) for r in frame_rays(frame)]
            + [(tilted, Ray(o, d, 20.0)) for o, d in zip(origins, dirs)])
    return [(ray, simscene.trace_true_cdf(s, ray)) for s, ray in rays]


def trace_digest(traces) -> str:
    h = hashlib.sha256()
    for t in traces:
        for values in (t.grid.gammas, t.cdf):
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
        assert any(t.cdf.tolist() == [0.5, 1.0] for t in traces)   # panel, then wall

    def test_golden_digest(self):
        # Recorded before the kernel took its component-first layout, before
        # the trace checks were rewritten twice and before traces walked one
        # ray on Python floats: the traces of every ray of a moving-path
        # frame and of a tilted scene with drops and a merged jump must keep
        # their bytes. Recorded again once a frame's sweep spanned its two
        # boundary poses: the moving frame's rays now cover its whole 0.5 s
        # pose interval, where a 0.1 s scan period covered its first fifth.
        # Hashed again over the jump lists alone once traces dropped their
        # trapezoid elements and survival column: this hash was taken of the
        # traces before that change, so the jump lists kept their bytes.
        traces = [trace for _, trace in traced_rays()]
        assert sum(len(t.grid) > 1 for t in traces) > 50
        assert trace_digest(traces) == (
            "7691faeba95dc70d5f8b455d6184aa267a3949614f6d33bf06be7c92958896e4")

    def test_traces_are_jump_lists(self):
        # Knots more than 1e-9 m apart (coincident surfaces merge) in
        # (1e-9, s_max]; after each, a cdf in [0, 1] that never steps down,
        # to 1e-12; the total mass is the last value. `SampleGrid` and
        # `CdfTrace` do not check this: their one producer guarantees it.
        for ray, trace in traced_rays():
            gammas, cdf = trace.grid.gammas, trace.cdf
            assert gammas.ndim == 1 and cdf.shape == gammas.shape
            assert np.all(np.diff(gammas) > 1e-9)
            assert np.all((gammas > 1e-9) & (gammas <= ray.s_max))
            assert np.all(np.diff(cdf) >= -1e-12)
            assert np.all((cdf >= -1e-12) & (cdf <= 1.0 + 1e-12))
            assert trace.total_mass == (cdf[-1] if cdf.size else 0.0)

    # Panel then wall: a bimodal ray; the opaque wall alone: one knot; the
    # box's -x face past its oblique limit, the range ending before its far
    # face: no knot.
    @pytest.mark.parametrize("direction, s_max, gammas, cdf", [
        ([1.0, 0.0, 0.0], 20.0, [4.0, 9.0], [0.5, 1.0]),
        ([-1.0, 0.0, 0.0], 20.0, [10.0], [1.0]),
        ([2.0, 5.0, 0.0], 6.0, [], []),
    ], ids=["behind-the-panel", "opaque-wall-only", "past-the-oblique-limit"])
    def test_jump_lists(self, direction, s_max, gammas, cdf):
        ray = Ray(np.zeros(3), unit(np.array(direction)), s_max)
        trace = simscene.trace_true_cdf(shipped_scene(), ray)
        np.testing.assert_array_equal(trace.grid.gammas, gammas)
        np.testing.assert_array_equal(trace.cdf, cdf)
        assert trace.total_mass == (cdf[-1] if cdf else 0.0)

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


def rest_move_rest_path():
    """Eight poses 0.1 s apart: frames rest, rest, move, rest, move back,
    rest and rest, between the last poses of the shipped paths."""
    here, there = (sensor.read_poses(shipped_file(name))[-1] for name in PATHS)
    return [sensor.Pose(pose.quaternion, pose.translation, 0.1 * t)
            for t, pose in enumerate([here, here, here, there, there, here, here, here])]


class TestGenerateDataset:
    def test_golden_digest(self):
        # Recorded from the per-surface scalar simulator this kernel replaced,
        # again once poses kept their quaternions: that moved the moving
        # path's ranges by round-off (at most 3.6e-15 m), with the same masks,
        # and again once a frame's sweep spanned its two boundary poses: the
        # moving frames' rays cover their whole 0.667 s pose intervals, where a
        # 0.1 s scan period covered their first 15%. The static frames' bytes
        # did not move.
        scene = shipped_scene()
        frames = (simscene.generate_dataset(scene, shipped_path("moving_path.csv", 3),
                                            intrinsics(), seed=7)
                  + simscene.generate_dataset(scene, shipped_path("static_path.csv", 2),
                                              intrinsics(), seed=7))
        assert dataset_digest(frames) == (
            "fbe0a83b918c09eff40cbfca8e3cfd5ffebab9b336dd2741a2278da7308a8362")

    def test_each_pulse_matches_sample_return_on_its_stream(self):
        # Every pulse of every frame of a path that rests, moves and rests
        # again: frames that reuse the hits of the frame before are checked,
        # and so are the streams of frames past the first.
        scene, seed = shipped_scene(), 5
        frames = simscene.generate_dataset(scene, rest_move_rest_path(), intrinsics(), seed)
        n_az = intrinsics().azimuth_count
        for f, frame in enumerate(frames):
            for i, ray in enumerate(frame_rays(frame)):
                b, a = divmod(i, n_az)
                rng = numpy_stream(seed, f, b, a)
                want = simscene.sample_return(scene, ray, rng)
                if want is None:
                    assert not frame.returned[b, a] and frame.ranges[b, a] == 0.0
                else:
                    assert frame.returned[b, a] and frame.ranges[b, a] == want
            assert 0 < frame.returned.sum() < frame.returned.size

    @pytest.mark.parametrize("chunk", [1, 7, 60])
    def test_draw_chunks_do_not_change_a_pulse(self, monkeypatch, chunk):
        # The default draws the path's 216 uncertain pulses in one flush.
        # Thresholds of 1 and 7 flush after every frame (each has 20-44 of
        # them), and 60 after frames 3, 5 and 7: each flush draws its own
        # set of pulses, at its own width.
        scene, path = shipped_scene(), rest_move_rest_path()
        want = simscene.generate_dataset(scene, path, intrinsics(), seed=2)
        monkeypatch.setattr(simscene, "DRAW_CHUNK", chunk)
        assert dataset_digest(simscene.generate_dataset(scene, path, intrinsics(), seed=2)) == (
            dataset_digest(want))

    @pytest.fixture
    def calls(self, monkeypatch):
        """The `_sorted_hits` (traces) and `ray_directions` calls made since
        the test began."""
        counts = {"_sorted_hits": 0, "ray_directions": 0}
        for name in counts:
            def counted(*args, _name=name, _real=getattr(simscene, name)):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(simscene, name, counted)
        return counts

    @pytest.mark.parametrize("name, n_frames, n_traces", [
        ("static_path.csv", 20, 1), ("moving_path.csv", 5, 5)])
    def test_a_frame_is_traced_when_its_rays_change(self, calls, name, n_frames, n_traces):
        # A frame is traced, and its rays computed, unless its boundary poses
        # agree with the frame before's: at rest at the same pose, it casts
        # that frame's rays.
        frames = simscene.generate_dataset(shipped_scene(), shipped_path(name, n_frames),
                                           intrinsics(), seed=3)
        assert len(frames) == n_frames
        assert calls == {"_sorted_hits": n_traces, "ray_directions": n_traces}

    def test_a_return_to_an_earlier_pose_is_traced_again(self, calls):
        path = rest_move_rest_path()
        frames = simscene.generate_dataset(shipped_scene(), path, intrinsics(), seed=3)
        # Rest, rest, move, rest, move back, rest, rest: only the second and
        # the last frame rest where the frame before rested.
        assert len(frames) == 7
        assert calls == {"_sorted_hits": 5, "ray_directions": 5}
        # Frames 0 and 5 cast the same rays, on different streams.
        rays = [sensor.ray_directions(frame.intrinsics, frame) for frame in (frames[0], frames[5])]
        for first, last in zip(*rays):
            np.testing.assert_array_equal(first, last)
        assert not np.array_equal(frames[0].ranges, frames[5].ranges)

    def test_a_resting_frame_still_checks_its_time_order(self):
        path = rest_move_rest_path()
        path[2] = sensor.Pose(path[2].quaternion, path[2].translation, path[1].timestamp)
        with pytest.raises(InvalidInputError, match="end pose must be later"):
            simscene.generate_dataset(shipped_scene(), path, intrinsics(), seed=3)

    def test_a_scene_of_opaque_first_surfaces_draws_nothing(self, monkeypatch):
        # Without the p = 0.5 panel every pulse's first surface is opaque, so
        # each outcome is traced (a return, or a drop at an oblique face),
        # and no flush has a pulse to draw.
        shipped = shipped_scene()
        scene = simscene.SceneSpec([s for s in shipped.surfaces if s.return_prob == 1.0],
                                   shipped.bounds)
        assert len(scene.surfaces) == len(shipped.surfaces) - 1
        calls = []
        monkeypatch.setattr(simscene, "stream_uniforms", lambda *args: calls.append(args))
        frames = simscene.generate_dataset(scene, rest_move_rest_path(), intrinsics(), seed=4)
        assert not calls
        n_az = intrinsics().azimuth_count
        for f, frame in enumerate(frames):
            for i, ray in enumerate(frame_rays(frame)):
                b, a = divmod(i, n_az)
                want = simscene.sample_return(scene, ray, numpy_stream(4, f, b, a))
                assert frame.returned[b, a] == (want is not None)
                assert frame.ranges[b, a] == (0.0 if want is None else want)
            assert 0 < frame.returned.sum() < frame.returned.size

    def test_empty_scene_drops_every_pulse(self):
        scene = simscene.SceneSpec([], ([-1.0] * 3, [1.0] * 3))
        frames = simscene.generate_dataset(scene, shipped_path("static_path.csv", 2),
                                           intrinsics(), seed=1)
        assert len(frames) == 2 and not any(f.returned.any() for f in frames)

    def test_empty_scene_still_rejects_a_path_that_runs_backwards(self):
        scene = simscene.SceneSpec([], ([-1.0] * 3, [1.0] * 3))
        path = shipped_path("static_path.csv", 2)[::-1]
        with pytest.raises(InvalidInputError, match="end pose must be later"):
            simscene.generate_dataset(scene, path, intrinsics(), seed=1)


def same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def reference_scene(path):
    """The reference surfaces of a scene file's sections, and their packing."""
    top, *sections = read_sections(path, ("surface",), InvalidInputError)
    surfaces = []
    for section in sections:
        kind = section.rows.pop("kind", (0, "rect"))[1]
        spec = fill(simscene._KINDS[kind][0](), section)
        oblique = np.deg2rad(spec.oblique_drop_deg)
        surfaces += ([reference.surface(spec.origin, spec.normal, spec.extent,
                                        spec.return_prob, oblique)] if kind == "rect" else
                     reference.box_faces(spec.origin, spec.extent, spec.return_prob, oblique))
    return surfaces, reference.pack(surfaces)


def assert_packed_as_reference(scene, surfaces, packed):
    """Every surface's arrays and every packed array of ``scene`` equal the
    reference's byte for byte; -0.0 is not 0.0 here."""
    assert len(scene.surfaces) == len(surfaces)
    for got, want in zip(scene.surfaces, surfaces):
        for name in ("origin", "normal", "extent", "axes"):
            assert same_bytes(getattr(got, name), want[name]), name
        assert (got.return_prob, got.oblique_drop_angle) == (want["return_prob"],
                                                              want["oblique_drop_angle"])
    origin, normal, axes, reach = packed["rects"]    # (3 or 2, ..., 1, S)
    assert same_bytes(scene.rects[0:3], origin[:, 0])
    assert same_bytes(scene.rects[3:6], normal[:, 0])
    assert same_bytes(scene.rects[6:12].reshape(2, 3, -1), axes[:, :, 0].transpose(1, 0, 2))
    assert same_bytes(scene.rects[12:14], reach[:, 0])
    assert same_bytes(np.array(scene.rows).reshape(-1, 16),
                      np.array(packed["rows"]).reshape(-1, 16))
    assert same_bytes(scene.return_probs, packed["return_probs"])
    assert same_bytes(scene.oblique_limits, packed["oblique_limits"])


# Tilted rects, one with a signed zero in its normal and one near z, and a
# box, with oblique limits below a right angle.
TILTED_SCENE = """bounds = -10 -10 -10 10 10 10
[surface]
origin = 2 1 0.5
normal = 1 0.4 -0.3
extent = 1.2 0.8
return_prob = 0.3
oblique_drop_deg = 45
[surface]
origin = -3 2 1
normal = 0.1 0.2 1
extent = 0.7 1.9
return_prob = 0.8
oblique_drop_deg = 80
[surface]
origin = 0 -4 -1
normal = -0 3 -2
extent = 2.5 0.4
[surface]
kind = box
origin = -5 -5 -2
extent = 3 4 2.5
return_prob = 0.6
oblique_drop_deg = 30
"""


class TestAgainstReference:
    @pytest.mark.parametrize("name", ["shipped", "tilted"])
    def test_load_scene_packs_as_the_reference(self, tmp_path, name):
        path = shipped_file(SCENE)
        if name == "tilted":
            path = tmp_path / "tilted.txt"
            path.write_text(TILTED_SCENE)
        surfaces, packed = reference_scene(path)
        scene = simscene.load_scene(path)
        assert_packed_as_reference(scene, surfaces, packed)
        assert np.min(scene.oblique_limits) < simscene.RIGHT_ANGLE

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=3))
    def test_scene_spec_packs_as_the_reference(self, seed, n_rects, n_boxes):
        parts = mixed_parameters(np.random.default_rng(seed), n_rects, n_boxes)
        references = build(parts, reference.surface, reference.box_faces)
        scene = simscene.SceneSpec(build(parts), ([-10.0] * 3, [10.0] * 3))
        assert_packed_as_reference(scene, references, reference.pack(references))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_bounds_check_agrees_with_every_reference_corner(self, seed):
        # Bounds within a few ulps of 1e-9 m from a tilted rect's extreme
        # corners, on each side: the package checks two corners per surface,
        # the reference all four.
        rng = np.random.default_rng(seed)
        args = (rng.uniform(-3.0, 3.0, 3), unit(rng.normal(size=3)), rng.uniform(0.1, 2.0, 2))
        corners = reference.pack([reference.surface(*args)])["corners"]
        lo, hi = corners.min(axis=0) + 1e-9, corners.max(axis=0) - 1e-9
        for _ in range(rng.integers(0, 3)):
            lo, hi = np.nextafter(lo, rng.choice([-1.0, 1.0]) * 9.0), np.nextafter(hi, 0.0)
        inside = not (np.any(corners < lo - 1e-9) or np.any(corners > hi + 1e-9))
        try:
            simscene.SceneSpec([simscene.SceneSurface(*args)], (lo, hi))
        except InvalidInputError as exc:
            assert not inside and "corners" in str(exc)
        else:
            assert inside

    @pytest.mark.parametrize("path, n_frames", [("moving_path.csv", 4), ("static_path.csv", 2)])
    def test_trace_frame_is_the_reference(self, path, n_frames):
        scene = shipped_scene()
        _, packed = reference_scene(shipped_file(SCENE))
        poses = shipped_path(path, n_frames)
        for start, end in zip(poses, poses[1:]):
            frame = sensor.ScanFrame(intrinsics(), start, end, np.zeros((4, 64)),
                                     np.zeros((4, 64), dtype=bool))
            rays = sensor.ray_directions(frame.intrinsics, frame)
            for s_max in (20.0, 6.0, np.nan):
                assert_traced_as_reference(simscene._trace_frame(scene, rays, s_max),
                                           reference.trace_frame(packed, rays, s_max))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=3))
    def test_trace_frame_is_the_reference_on_mixed_scenes(self, seed, n_rects, n_boxes):
        rng = np.random.default_rng(seed)
        parts = mixed_parameters(rng, n_rects, n_boxes)
        scene = simscene.SceneSpec(build(parts), ([-10.0] * 3, [10.0] * 3))
        packed = reference.pack(build(parts, reference.surface, reference.box_faces))
        rays = edge_seeking_rays(rng, scene, 64)
        for s_max in (20.0, rng.uniform(0.5, 8.0)):
            assert_traced_as_reference(simscene._trace_frame(scene, rays, s_max),
                                       reference.trace_frame(packed, rays, s_max))


def assert_traced_as_reference(got, want):
    got = [got[0], got[1], *got[2]]
    want = [want[0], want[1], *want[2]]
    for name, g, w in zip(["ranges", "returned", "index", "distances", "return_probs",
                           "drops", "hit_counts"], got, want):
        assert same_bytes(g, w), name


class TestShippedScene:
    @pytest.mark.parametrize("name", (SCENE,) + PATHS)
    def test_builtin_files_resolve(self, name):
        assert shipped_file(name).is_file()

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
        poses = sensor.read_poses(shipped_file(name))
        assert len(poses) == 2 and poses[1].timestamp > poses[0].timestamp
