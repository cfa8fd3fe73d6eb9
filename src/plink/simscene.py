"""Analytic scenes and the stochastic return generator.

Surfaces are infinitesimally thin rectangles (or axis-aligned boxes, which
expand to their six faces). Each carries a return probability p: a pulse
reaching the surface reflects with probability p and is transmitted
otherwise, so the exact cumulative return distribution along any ray is a
jump list - the discrete analogue of the exponential field integral. A
surface also carries an incidence-angle limit beyond which a reflection is
recorded as a ray drop instead of a return.

Intersection is batched over rays and surfaces. A ``SceneSpec`` packs its
surfaces into arrays when it is built, components first: origins and unit
normals (3, S), tangent axes ``u`` and ``v`` (3, 2, S) and half-extents
along them, widened by the 1e-12 m edge tolerance (2, S), plus return
probabilities and oblique limits (S,). Tangent frames are computed once
per surface, at construction. ``ray_distances`` tests N rays against all
S surfaces at once and returns an (N, S) array of path distances in
surface order, ``inf`` where a ray misses a surface: it runs parallel to
it, meets its plane at or behind the origin, or passes outside its extent.
``ray_hits`` orders one ray's hits by a stable sort on distance, so
surfaces at equal distance keep scene order. Generation, exact cdfs,
single-pulse draws and ``SceneSurface.intersect`` all go through that one
kernel, whether for one ray or a frame of them. Its dot products are
explicit products summed in component order, each term one contiguous
(N, S) block: for axis-aligned normals two of the three products are zero,
so distances are bit-identical to any other evaluation order (``np.dot``
included), and they agree with such evaluations within 1e-12 m otherwise.
A single ray costs numpy's fixed per-call overhead on (1, S) arrays, not
arithmetic, so the kernel keeps its array operations few and contiguous.

A scene file is a key = value file (``plink.config``): a ``bounds`` line,
then one ``[surface]`` section per surface. Unknown keys are rejected, a
vector must have the length shown, and a box takes no ``normal``;
``return_prob`` defaults to 1 and ``oblique_drop_deg`` to 90.

    bounds = xmin ymin zmin xmax ymax zmax
    [surface]
    kind = rect | box       # rect by default
    origin = x y z          # rect center, or box min corner
    normal = x y z          # rect only
    extent = hu hv          # rect half-widths, or box full sizes sx sy sz
    return_prob = 0.5
    oblique_drop_deg = 90
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import fill, read_sections, stream
from .errors import InvalidInputError
from .field import CdfTrace, Ray, SampleGrid
# motion_compensate is not called here; perfbench/layers.py probes this name.
from .sensor import ScanFrame, SensorIntrinsics, motion_compensate, ray_directions


def _tangent_frame(normal) -> tuple:
    """Deterministic in-plane axes (u, v) for a unit normal.

    u = normal x helper, normalized, and v = normal x u, where the helper is
    the z axis, or the x axis for a normal within about 25 degrees of z. The
    cross products are written out in ``np.cross``'s component order.
    """
    nx, ny, nz = (float(c) for c in normal)
    hx, hy, hz = (1.0, 0.0, 0.0) if abs(nz) > 0.9 else (0.0, 0.0, 1.0)
    ux, uy, uz = ny * hz - nz * hy, nz * hx - nx * hz, nx * hy - ny * hx
    norm = math.sqrt(ux * ux + uy * uy + uz * uz)
    ux, uy, uz = ux / norm, uy / norm, uz / norm
    u = np.array([ux, uy, uz])
    v = np.array([ny * uz - nz * uy, nz * ux - nx * uz, nx * uy - ny * ux])
    return u, v


def _kernel_layout(origins, normals, axes, extents) -> tuple:
    """S rectangles in the layout ``_distances`` reads, components first.

    From (S, 3) origins and normals, (S, 2, 3) tangent axes u and v and
    (S, 2) half-extents along them, returns contiguous copies shaped
    (3, 1, S), (3, 1, S), (3, 2, 1, S) and (2, 1, S); the last holds the
    half-extents plus the 1e-12 m edge tolerance.
    """
    def first(a, order):
        return np.ascontiguousarray(np.transpose(a, order))

    return (first(origins, (1, 0))[:, None], first(normals, (1, 0))[:, None],
            first(axes, (2, 1, 0))[:, :, None], first(extents + 1e-12, (1, 0))[:, None])


def _distances(o, d, rects) -> tuple:
    """Path distances from N rays to S rectangles, inf on a miss, and d . n.

    ``o`` and ``d`` are (N, 3); ``rects`` is ``_kernel_layout``'s tuple.
    Returns two (N, S) arrays. Every dot product sums its products in
    x, y, z order, and each x, y or z term is one contiguous (N, S) block.
    A ray parallel to a plane divides by inf instead of ~0, which gives a
    distance of 0 and so a miss: nothing warns.
    """
    origin, normal, axes, reach = rects
    o = np.ascontiguousarray(o.T)[:, :, None]   # (3, N, 1)
    d = np.ascontiguousarray(d.T)[:, :, None]
    dn = d * normal
    denom = dn[0] + dn[1] + dn[2]
    rn = (origin - o) * normal
    s = (rn[0] + rn[1] + rn[2]) / np.where(np.abs(denom) >= 1e-12, denom, np.inf)
    point = s * d
    point += o
    point -= origin
    local = point[:, None] * axes   # (3, 2, N, S)
    inside = np.abs(local[0] + local[1] + local[2]) <= reach
    hit = (s > 1e-9) & inside[0] & inside[1]
    return np.where(hit, s, np.inf), denom


@dataclass
class SceneSurface:
    """A thin rectangle with a reflection probability and an oblique limit."""

    origin: np.ndarray
    normal: np.ndarray
    extent: np.ndarray          # half-widths along the two in-plane axes
    return_prob: float = 1.0
    oblique_drop_angle: float = np.pi / 2
    axes: np.ndarray = field(init=False, repr=False)  # rows u, v: axes of extent

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.normal = np.asarray(self.normal, dtype=float)
        self.extent = np.asarray(self.extent, dtype=float)
        norm = np.linalg.norm(self.normal)
        if not (0.0 < norm < np.inf):
            raise InvalidInputError("surface normal must be nonzero and finite")
        self.normal = self.normal / norm
        if not (0.0 < self.return_prob <= 1.0):
            raise InvalidInputError("return probability must lie in (0, 1]")
        if np.any(self.extent <= 0.0):
            raise InvalidInputError("extent must be positive")
        self.axes = np.stack(_tangent_frame(self.normal))

    def intersect(self, origin: np.ndarray, direction: np.ndarray):
        """Path distance to the rectangle, or None when the ray misses it."""
        rect = _kernel_layout(self.origin[None], self.normal[None], self.axes[None],
                              self.extent[None])
        s = _distances(np.asarray(origin, dtype=float).reshape(1, 3),
                       np.asarray(direction, dtype=float).reshape(1, 3), rect)[0][0, 0]
        return None if s == np.inf else float(s)

    def incidence_angle(self, direction: np.ndarray) -> float:
        """Angle from the surface normal, in [0, pi/2]."""
        cos_i = abs(float(np.dot(direction, self.normal)))
        return float(np.arccos(np.clip(cos_i, 0.0, 1.0)))


def box_faces(min_corner, size, return_prob=1.0, oblique_drop_angle=np.pi / 2) -> list:
    """Six rectangle faces of an axis-aligned box."""
    lo = np.asarray(min_corner, dtype=float)
    size = np.asarray(size, dtype=float)
    hi = lo + size
    center = 0.5 * (lo + hi)
    half = 0.5 * size
    faces = []
    for axis in range(3):
        for sign in (-1.0, 1.0):
            normal = np.zeros(3)
            normal[axis] = sign
            others = [i for i in range(3) if i != axis]
            # extent order must match the deterministic tangent frame of `normal`
            u, v = _tangent_frame(normal)
            ext = np.array([
                sum(abs(u[i]) * half[i] for i in others),
                sum(abs(v[i]) * half[i] for i in others),
            ])
            origin = center.copy()
            origin[axis] = lo[axis] if sign < 0 else hi[axis]
            faces.append(SceneSurface(origin, normal, ext,
                                      return_prob, oblique_drop_angle))
    return faces


@dataclass
class SceneSpec:
    """Surface list plus the axis-aligned bounds of the sensing volume.

    The surfaces are packed into arrays, one entry per surface in list
    order, when the spec is built; build a new spec instead of editing
    ``surfaces`` in place.
    """

    surfaces: list
    bounds: tuple
    rects: tuple = field(init=False, repr=False)              # _kernel_layout's arrays
    return_probs: np.ndarray = field(init=False, repr=False)  # (S,)
    oblique_limits: np.ndarray = field(init=False, repr=False)  # (S,)

    def __post_init__(self):
        lo, hi = (np.asarray(b, dtype=float) for b in self.bounds)
        self.bounds = (lo, hi)
        if np.any(hi <= lo):
            raise InvalidInputError("bounds must have positive extent")

        def pack(name, width):
            return np.array([getattr(s, name) for s in self.surfaces],
                            dtype=float).reshape(-1, width)

        origins, axes = pack("origin", 3), pack("axes", 6).reshape(-1, 2, 3)
        extents = pack("extent", 2)
        self.rects = _kernel_layout(origins, pack("normal", 3), axes, extents)
        self.return_probs = pack("return_prob", 1)[:, 0]
        self.oblique_limits = pack("oblique_drop_angle", 1)[:, 0]
        half_u, half_v = (extents[..., None] * axes).transpose(1, 0, 2)
        corners = np.concatenate([origins + su * half_u + sv * half_v
                                  for su in (-1.0, 1.0) for sv in (-1.0, 1.0)])
        if np.any(corners < lo - 1e-9) or np.any(corners > hi + 1e-9):
            raise InvalidInputError("all surface corners must lie inside the bounds")


def ray_distances(scene: SceneSpec, origins, dirs) -> np.ndarray:
    """Path distance from each of N rays to each of the scene's S surfaces.

    ``origins`` and ``dirs`` hold N 3-vectors (shape (N, 3), or (3,) for one
    ray). Returns (N, S) in surface order, with ``inf`` where a ray misses a
    surface: |d . n| < 1e-12, a distance of at most 1e-9 m, or a hit point
    more than 1e-12 m outside the extent. Distances are not clipped to any
    sensor range.
    """
    o = np.asarray(origins, dtype=float).reshape(-1, 3)
    d = np.asarray(dirs, dtype=float).reshape(-1, 3)
    return _distances(o, d, scene.rects)[0]


def _sorted_hits(scene: SceneSpec, origins, dirs, s_max: float) -> tuple:
    """Each ray's hits within ``s_max``, nearest first, as three (N, S) arrays.

    Returns distances (``inf`` past a ray's last hit), surface indices, and
    drop flags: True where the incidence angle exceeds the surface's oblique
    limit, so that a reflection there is a ray drop. The sort is stable, so
    surfaces at equal distance keep scene order.
    """
    o = np.asarray(origins, dtype=float).reshape(-1, 3)
    d = np.asarray(dirs, dtype=float).reshape(-1, 3)
    dist, denom = _distances(o, d, scene.rects)
    dist[~(dist <= s_max)] = np.inf   # a NaN s_max keeps no hit
    order = dist.argsort(axis=1, kind="stable")
    drops = np.arccos(np.minimum(np.abs(denom), 1.0)) > scene.oblique_limits
    rows = np.arange(len(order))[:, None]
    return dist[rows, order], order, drops[rows, order]


def ray_hits(scene: SceneSpec, origin, direction, s_max: float) -> list:
    """(distance, surface) pairs within range, sorted by distance.

    The sort is stable: surfaces at equal distance keep scene order.
    """
    dist, order, _ = _sorted_hits(scene, origin, direction, s_max)
    k = np.count_nonzero(dist[0] < np.inf)
    return [(s, scene.surfaces[i]) for s, i in zip(dist[0, :k].tolist(), order[0, :k])]


def trace_true_cdf(scene: SceneSpec, ray: Ray) -> CdfTrace:
    """Exact cumulative return distribution along a ray, as a jump list.

    Walking the surfaces in distance order, surface m contributes a jump of
    height P_reach * p_m (zero when its incidence exceeds the oblique limit,
    since such reflections drop) and multiplies P_reach by (1 - p_m) either
    way. The returned trace holds the jump locations and post-jump values;
    total mass plus drop probability is exactly 1.
    """
    dist, order, drops = _sorted_hits(scene, ray.origin, ray.direction, ray.s_max)
    distances, values = [], []
    reach = 1.0
    total = 0.0
    for s, prob, dropped in zip(dist[0].tolist(), scene.return_probs[order[0]].tolist(),
                                drops[0].tolist()):
        if s == math.inf:
            break  # past the last hit
        if not dropped:
            total += reach * prob
            if distances and s - distances[-1] <= 1e-9:
                values[-1] = total  # coincident surfaces merge into one jump
            else:
                distances.append(s)
                values.append(total)
        reach *= 1.0 - prob
    gammas, cdf = np.array(distances), np.array(values)
    # A lone knot's element covers the path from the sensor to it.
    grid = (SampleGrid.from_gammas(gammas) if len(distances) > 1
            else SampleGrid(gammas, gammas.copy()))
    return CdfTrace(grid, cdf, 1.0 - cdf)


def _first_reflection(hits, rng):
    """Outcome of one pulse walking (distance, return_prob, drops) hits in
    distance order: one uniform draw per surface reached, until one reflects.
    None is a ray drop."""
    for s, prob, drops in hits:
        if rng.random() < prob:
            return None if drops else float(s)
    return None


def sample_return(scene: SceneSpec, ray: Ray, rng):
    """One stochastic pulse outcome: a range in meters, or None for a drop."""
    dist, order, drops = _sorted_hits(scene, ray.origin, ray.direction, ray.s_max)
    k = np.count_nonzero(dist[0] < np.inf)
    return _first_reflection(zip(dist[0, :k], scene.return_probs[order[0, :k]], drops[0, :k]),
                             rng)


def generate_dataset(scene: SceneSpec, sensor_path: list, intrinsics: SensorIntrinsics,
                     seed: int) -> list:
    """Simulated scan frames along a pose path, reproducible from the seed.

    ``sensor_path`` needs n_frames + 1 timestamped poses; frame i spans
    poses i and i + 1. Every (frame, beam, azimuth) pulse draws from its own
    substream, one uniform per surface it reaches in distance order (as
    ``sample_return`` does), so frame order never changes the outcome. A
    pulse whose first surface is opaque (p = 1) reflects there whatever it
    would draw, so its outcome is set without a draw. A frame that casts the
    rays of the frame before it (``np.array_equal``), as every frame of a
    static path does, reuses that frame's sorted hits instead of tracing.
    """
    if len(sensor_path) < 2:
        raise InvalidInputError("need at least two path poses")
    shape = (intrinsics.n_beams, intrinsics.azimuth_count)
    frames = []
    last_rays = None
    for f in range(len(sensor_path) - 1):
        frame = ScanFrame(intrinsics, sensor_path[f], sensor_path[f + 1],
                          np.zeros(shape), np.zeros(shape, dtype=bool))
        frames.append(frame)
        rays = ray_directions(intrinsics, frame)   # checks the frame's poses
        if not scene.surfaces:
            continue  # every pulse drops
        if last_rays is None or not all(map(np.array_equal, rays, last_rays)):
            dist, order, drops = _sorted_hits(scene, *rays, intrinsics.s_max)
            probs = scene.return_probs[order]
            n_hits = np.count_nonzero(dist < np.inf, axis=1)
            certain = (n_hits > 0) & (probs[:, 0] == 1.0)
        last_rays = rays
        ranges, returned = frame.ranges.reshape(-1), frame.returned.reshape(-1)  # views
        returned[certain] = ~drops[certain, 0]
        ranges[returned] = dist[returned, 0]
        for i in np.flatnonzero((n_hits > 0) & ~certain):
            b, a = divmod(int(i), intrinsics.azimuth_count)
            k = n_hits[i]
            outcome = _first_reflection(zip(dist[i, :k], probs[i, :k], drops[i, :k]),
                                        stream(seed, f, b, a))
            if outcome is not None:
                ranges[i] = outcome
                returned[i] = True
    return frames


# -- scene file IO ---------------------------------------------------------------


# The keys of the top section and of each kind of [surface] besides
# ``kind``; a vector's default fixes its length.
@dataclass
class _Bounds:
    bounds: tuple = (0.0,) * 6


@dataclass
class _Rect:
    origin: tuple = (0.0,) * 3
    normal: tuple = (0.0,) * 3
    extent: tuple = (0.0,) * 2
    return_prob: float = 1.0
    oblique_drop_deg: float = 90.0


@dataclass
class _Box:
    origin: tuple = (0.0,) * 3
    extent: tuple = (0.0,) * 3
    return_prob: float = 1.0
    oblique_drop_deg: float = 90.0


# Each kind's keys, and those of them that a section must hold.
_KINDS = {"rect": (_Rect, ("origin", "normal", "extent")), "box": (_Box, ("origin", "extent"))}


def load_scene(path) -> SceneSpec:
    """The scene in a scene file (module docstring); errors name the file and line."""
    top, *sections = read_sections(path, ("surface",), InvalidInputError)
    bounds = fill(_Bounds(), top, required=("bounds",)).bounds
    surfaces = []
    for section in sections:
        line, kind = section.rows.pop("kind", (section.line, "rect"))
        if kind not in _KINDS:
            raise section.fail(f"unknown surface kind {kind!r}", line)
        keys, required = _KINDS[kind]
        spec = fill(keys(), section, required=required)
        oblique = np.deg2rad(spec.oblique_drop_deg)
        try:
            if kind == "rect":
                surfaces.append(SceneSurface(spec.origin, spec.normal, spec.extent,
                                             spec.return_prob, oblique))
            else:
                surfaces.extend(box_faces(spec.origin, spec.extent, spec.return_prob, oblique))
        except InvalidInputError as exc:
            raise section.fail(str(exc)) from None
    try:
        return SceneSpec(surfaces, (bounds[:3], bounds[3:]))
    except InvalidInputError as exc:
        raise top.fail(str(exc), top.rows["bounds"][0]) from None


def builtin_scene_path(name: str):
    """Path of a scene (or pose path) file shipped with the package."""
    from importlib.resources import files

    resource = files("plink").joinpath("scenes", name)
    if not resource.is_file():
        raise InvalidInputError(f"no builtin scene file named {name!r}")
    return resource
