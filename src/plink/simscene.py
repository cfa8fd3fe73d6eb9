"""Analytic scenes and the stochastic return generator.

Surfaces are infinitesimally thin rectangles (or axis-aligned boxes, which
expand to their six faces). Each carries a return probability p: a pulse
reaching the surface reflects with probability p and is transmitted
otherwise, so the exact cumulative return distribution along any ray is a
jump list - the discrete analogue of the exponential field integral.
``trace_true_cdf`` returns just the jump locations and the cdf after each
jump, with no elements of integration: quadrature lives only in the batched
kernels of `plink.field` (`trapezoid_deltas`, `cdf_from_sigma_values`) that
learned fields run through. A surface also carries an incidence-angle
limit in [0, pi/2] beyond which a reflection is recorded as a ray drop
instead of a return.

Intersection is batched over rays and surfaces. A ``SceneSpec`` packs its
surfaces once, when it is built, into one (S, 16) table in surface order
(`_surface_table`): origin, unit normal, tangent axes ``u`` and ``v``,
half-extents widened by the 1e-12 m edge tolerance, return probability and
oblique limit. Its columns, one contiguous row of S values each, are what
frames are traced against (``rects``); its rows, as Python floats, are what
single rays walk, each in one of two forms (``walk``, `_walk_forms`).
``ray_distances`` tests N rays against all S surfaces at once and returns
an (N, S) array of path distances in surface order, ``inf`` where a ray
misses a surface: it runs parallel to it, meets its plane at or behind the
origin, or passes outside its extent. Frames go through that kernel
(``_distances``): the plane distances of every (ray, surface) pair, the
rays along the inner axis, then the in-plane test on the pairs whose
distance lies in (1e-9, s_max] alone.
``_sorted_hits`` orders each ray's hits by a stable sort on distance, so
surfaces at equal distance keep scene order. The kernel's dot products are
explicit products summed in component order: for axis-aligned normals two
of the three products are zero, so distances are bit-identical to any
other evaluation order (``np.dot`` included), and they agree with such
evaluations within 1e-12 m otherwise.

Numpy's fixed per-call cost outweighs the arithmetic on one ray, one
surface or one scene of a few dozen surfaces, so these run on Python
floats or on one array per scene, each with its numpy reference's
operations in its order, and a test pins each to that reference byte for
byte:

- single-ray queries (``ray_hits``, exact cdfs, single-pulse draws and
  ``SceneSurface.intersect``) walk each surface in one of two forms
  (``_walk``), pinned to ``_sorted_hits``' rows by ``TestWalk``. An aligned
  surface, whose normal, u and v are unit axes (every box face, and every
  rect with an axis normal), takes its distance in one division and each
  in-plane test on one component, and the aligned surfaces facing one axis
  share its parallel test; any other surface runs the kernel's arithmetic
  in full. For finite geometry, which ``SceneSurface`` and ``box_faces``
  insist on, the two forms agree bit for bit: the products an aligned
  surface drops are +-0, adding +-0 leaves a nonzero sum unchanged, and
  the +-1 factors are exact, their signs cancelling in the division. The
  walk calls ``np.arccos`` only when some hit's oblique limit is below
  `RIGHT_ANGLE`, an angle no incidence exceeds
  (``test_no_incidence_angle_exceeds_a_right_angle``);
- a ``SceneSurface`` divides its normal by ``np.linalg.norm``'s
  ``sqrt(dot)`` and builds its tangent frame (``_tangent_frame``) from
  the quotients; ``TestSceneSurface`` pins them to the ``np.cross``
  formulas. ``box_faces`` checks a box once and builds its six faces from
  its floats, with the unit-axis normals and frames `_BOX_NORMALS` and
  `_BOX_FRAMES`, as rows of one array per box;
- a ``SceneSpec`` packs every surface with two ``np.concatenate`` calls,
  and checks its bounds on the two extreme corners of each surface, which
  monotone rounding makes the least and the largest of the four;
- ``TestAgainstReference`` pins the packing and the frame tracer to their
  field-by-field, every-pair forms in ``tests/simulator_reference.py``.

A scene file is a key = value file (``plink.config``): a ``bounds`` line,
then one ``[surface]`` section per surface. Unknown keys are rejected, a
vector must have the length shown, and a box takes no ``normal``;
``return_prob`` defaults to 1 and ``oblique_drop_deg``, which lies in
[0, 90], to 90.

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

from .config import fill, read_sections, stream_uniforms
from .errors import InvalidInputError
from .field import CdfTrace, Ray, SampleGrid
# motion_compensate is not called here; perfbench/layers.py probes this name.
from .sensor import (ScanFrame, SensorIntrinsics, check_pose_order, motion_compensate,
                     ray_directions, same_pose)

# The largest incidence angle np.arccos gives for |d . n| in [0, 1]: a hit on
# a surface whose oblique limit is this angle never drops.
RIGHT_ANGLE = float(np.arccos(0.0))


def _tangent_frame(nx: float, ny: float, nz: float) -> tuple:
    """Deterministic in-plane axes (u, v) of a unit normal, as two 3-tuples.

    u = normal x helper, normalized, and v = normal x u, where the helper is
    the z axis, or the x axis for a normal within about 25 degrees of z. The
    cross products are written out in ``np.cross``'s component order.
    """
    hx, hy, hz = (1.0, 0.0, 0.0) if abs(nz) > 0.9 else (0.0, 0.0, 1.0)
    ux, uy, uz = ny * hz - nz * hy, nz * hx - nx * hz, nx * hy - ny * hx
    norm = math.sqrt(ux * ux + uy * uy + uz * uz)
    ux, uy, uz = ux / norm, uy / norm, uz / norm
    return (ux, uy, uz), (ny * uz - nz * uy, nz * ux - nx * uz, nx * uy - ny * ux)


def _surface_table(surfaces) -> np.ndarray:
    """S surfaces as an (S, 16) table, one row each in ``_walk``'s general
    layout: the origin, the unit normal, u, v, the two half-extents, the
    return probability and the oblique limit. The half-extents are the
    surfaces' own; `_add_reach` adds the edge tolerance."""
    geometry = np.concatenate([part for s in surfaces for part in (
        s.origin, s.normal, s.axes.reshape(6), s.extent)] + [()]).reshape(-1, 14)
    reflection = np.array([(s.return_prob, s.oblique_drop_angle) for s in surfaces],
                          dtype=float).reshape(-1, 2)
    return np.concatenate([geometry, reflection], axis=1)


def _add_reach(table: np.ndarray) -> np.ndarray:
    """``table`` with the 1e-12 m edge tolerance added to its half-extents."""
    table[:, 12:14] += 1e-12
    return table


def _distances(o, d, rects, s_max: float = math.inf) -> tuple:
    """Path distances from N rays to S rectangles, inf on a miss or past
    ``s_max``, and d . n.

    ``o`` and ``d`` are (N, 3); ``rects`` is `SceneSpec.rects`, one
    contiguous row of S values per column of the surface table. Returns two
    (N, S) arrays. Every dot product sums its products in x, y, z order. The
    plane distances are taken over every pair, with the rays along the inner
    axis; the in-plane test then runs on the pairs whose distance lies in
    (1e-9, s_max] alone, so a NaN ``s_max`` keeps no hit. A ray parallel to a
    plane divides by inf instead of ~0, which gives a distance of 0 and so a
    miss: nothing warns.
    """
    o = np.ascontiguousarray(o.T)   # (3, N)
    d = np.ascontiguousarray(d.T)
    origin, normal = rects[0:3, :, None], rects[3:6, :, None]   # (3, S, 1)
    denom = d[0] * normal[0]    # (S, N)
    denom += d[1] * normal[1]
    denom += d[2] * normal[2]
    num = origin[0] - o[0]
    num *= normal[0]
    for c in (1, 2):
        term = origin[c] - o[c]
        term *= normal[c]
        num += term
    s = num / np.where(np.abs(denom) >= 1e-12, denom, np.inf)
    candidate = s > 1e-9
    candidate &= s <= s_max
    pair = np.flatnonzero(candidate)
    surface = pair // o.shape[1]
    ray = pair - surface * o.shape[1]
    s = s.take(pair)
    point = s * d.take(ray, axis=1)     # (3, K)
    point += o.take(ray, axis=1)
    point -= rects[0:3].take(surface, axis=1)
    local = point * rects[6:12].reshape(2, 3, rects.shape[1]).take(surface, axis=2)   # (2, 3, K)
    inside = np.abs(local[:, 0] + local[:, 1] + local[:, 2]) <= rects[12:14].take(surface, axis=1)
    hit = inside[0] & inside[1]
    dist = np.full((o.shape[1], rects.shape[1]), np.inf)
    dist[ray[hit], surface[hit]] = s[hit]
    return dist, denom.T


def _vector(v) -> list:
    """One 3-vector (shape (3,) or (1, 3)) as three Python floats."""
    return np.asarray(v, dtype=float).reshape(3).tolist()


# |normal|, |u| and |v| of a surface whose three are unit axes, indexed by
# their axes: `_walk_forms` compares each surface's to them.
_UNIT_AXES = np.eye(3)


def _walk_forms(table: np.ndarray) -> tuple:
    """The forms in which ``_walk`` takes the surfaces of ``table``, a
    `_surface_table` with its reach added: (aligned, general).

    A surface is aligned when its normal, u and v each have exactly one
    nonzero component, equal to +-1.0: every box face, and every rect with
    an axis normal. ``aligned[a]`` lists, in surface order, the aligned
    surfaces whose normal lies on axis a, each as (k, b, c, origin[a],
    origin[b], origin[c], reach_u, reach_v, return probability, oblique
    limit), where k is its index and b and c are the axes of its u and v.
    ``general`` lists every other surface as (k, row), its table row as 16
    floats.
    """
    size = np.abs(table[:, 3:12].reshape(-1, 3, 3))    # |normal|, |u|, |v|
    axes = size.argmax(axis=2)
    flags = (size == _UNIT_AXES.take(axes, axis=0)).reshape(-1, 9).all(axis=1).tolist()
    aligned, general = ([], [], []), []
    for k, row, flag, (a, b, c) in zip(range(len(flags)), table.tolist(), flags, axes.tolist()):
        if flag:
            aligned[a].append((k, b, c, row[a], row[b], row[c], row[12], row[13], row[14],
                               row[15]))
        else:
            general.append((k, row))
    return aligned, general


def _walk(forms, origin, direction, s_max: float) -> list:
    """One ray's hits within ``s_max``, nearest first, as (distance, surface
    index, return probability, drops) tuples.

    ``forms`` is `SceneSpec.walk` (`_walk_forms`), and ``origin`` and
    ``direction`` are three floats each. Each distance and in-plane test is
    ``_distances``'s arithmetic on Python floats, so the hits equal a row of
    ``_sorted_hits`` bit for bit without numpy's fixed per-call cost. A
    surface is taken in one of two forms:

    - aligned: its normal is the unit axis a, and its u and v the unit axes
      b and c. The walk skips the axis when -1e-12 < d_a < 1e-12, takes
      s = (c_a - o_a) / d_a, and tests |(s d_b + o_b) - c_b| <= reach_u and
      the same on axis c. For finite geometry this is the general
      arithmetic bit for bit: each product the general form adds has a
      zero factor, so it is +-0, and adding +-0 leaves a nonzero sum
      unchanged. A zero numerator or in-plane term is a miss in both forms,
      or has abs 0 in both. The +-1 factors are exact, and their signs
      cancel in the division, so d . n is +-d_a and the drop angle uses
      |d_a|;
    - general: ``_distances``'s operations in their order.

    Hits sort on (distance, index), so surfaces at equal distance keep scene
    order across the two forms, and a NaN ``s_max`` keeps no hit. The drop
    flags come from one ``np.arccos`` call, as ``math.acos`` may differ from
    numpy's in the last bit, and only when some hit's oblique limit is below
    `RIGHT_ANGLE`; otherwise every flag is False, as that call would give.
    """
    aligned, general = forms
    hits = []
    for a, faces in enumerate(aligned):
        da = direction[a]
        if -1e-12 < da < 1e-12:
            continue
        oa = origin[a]
        for k, b, c, ca, cb, cc, reach_u, reach_v, prob, limit in faces:
            s = (ca - oa) / da
            if (1e-9 < s <= s_max and abs((s * direction[b] + origin[b]) - cb) <= reach_u
                    and abs((s * direction[c] + origin[c]) - cc) <= reach_v):
                hits.append((s, k, prob, da, limit))
    ox, oy, oz = origin
    dx, dy, dz = direction
    for k, (cx, cy, cz, nx, ny, nz, ux, uy, uz, vx, vy, vz, reach_u, reach_v, prob,
            limit) in general:
        denom = (dx * nx + dy * ny) + dz * nz
        s = (((cx - ox) * nx + (cy - oy) * ny) + (cz - oz) * nz) / (
            denom if abs(denom) >= 1e-12 else math.inf)
        if not 1e-9 < s <= s_max:
            continue
        px, py, pz = (s * dx + ox) - cx, (s * dy + oy) - cy, (s * dz + oz) - cz
        if (abs((px * ux + py * uy) + pz * uz) <= reach_u
                and abs((px * vx + py * vy) + pz * vz) <= reach_v):
            hits.append((s, k, prob, denom, limit))
    hits.sort()
    if all(hit[4] >= RIGHT_ANGLE for hit in hits):   # no hit can drop
        return [(s, k, prob, False) for s, k, prob, _, _ in hits]
    angles = np.arccos([min(abs(hit[3]), 1.0) for hit in hits]).tolist()
    return [(s, k, prob, angle > limit)
            for (s, k, prob, _, limit), angle in zip(hits, angles)]


def _check_reflection(return_prob, oblique_drop_angle) -> None:
    """Reject a return probability outside (0, 1] or an oblique limit outside
    [0, pi/2], NaN included."""
    if not (0.0 < return_prob <= 1.0):
        raise InvalidInputError("return probability must lie in (0, 1]")
    if not (0.0 <= oblique_drop_angle <= math.pi / 2):
        raise InvalidInputError("oblique drop angle must lie in [0, pi/2]")


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
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)   # (3,) or (1, 3) given
        normal = np.asarray(self.normal, dtype=float)
        self.extent = np.asarray(self.extent, dtype=float)
        if not all(map(math.isfinite, self.origin.tolist())):
            raise InvalidInputError("origin must be finite")
        norm = math.sqrt(normal.dot(normal))     # np.linalg.norm's sqrt(dot)
        if not (0.0 < norm < math.inf):
            raise InvalidInputError("surface normal must be nonzero and finite")
        unit = [c / norm for c in normal.tolist()]
        self.normal = np.array(unit)
        _check_reflection(self.return_prob, self.oblique_drop_angle)
        if not all(0.0 < e < math.inf for e in self.extent.tolist()):
            raise InvalidInputError("extent must be positive and finite")
        self.axes = np.array(_tangent_frame(*unit))

    def intersect(self, origin: np.ndarray, direction: np.ndarray):
        """Path distance to the rectangle, or None when the ray misses it."""
        forms = _walk_forms(_add_reach(_surface_table([self])))
        hits = _walk(forms, _vector(origin), _vector(direction), math.inf)
        return hits[0][0] if hits else None

    def incidence_angle(self, direction: np.ndarray) -> float:
        """Angle from the surface normal, in [0, pi/2]."""
        cos_i = abs(float(np.dot(direction, self.normal)))
        return float(np.arccos(np.clip(cos_i, 0.0, 1.0)))


# A box's faces in order, -x, +x, -y, +y, -z, +z: their unit normals, the
# tangent frames `_tangent_frame` gives them, and for each face its axis and
# the axes that its u and its v run along.
_BOX_NORMALS = np.array([[sign if i == axis else 0.0 for i in range(3)]
                        for axis in range(3) for sign in (-1.0, 1.0)])
_BOX_FRAMES = np.array([_tangent_frame(*normal) for normal in _BOX_NORMALS.tolist()])
_BOX_AXES = [(k // 2, *np.abs(frame).argmax(axis=1).tolist())
             for k, frame in enumerate(_BOX_FRAMES)]


def box_faces(min_corner, size, return_prob=1.0, oblique_drop_angle=np.pi / 2) -> list:
    """Six rectangle faces of an axis-aligned box, -x, +x, -y, +y, -z, +z.

    The box is checked once, as `SceneSurface` checks a rect: its half-sizes
    positive and finite, and its two corners and its centre finite, so that
    no face holds an inf or a NaN. Its faces are built from its floats: a
    face's normal is a unit axis and its tangent frame is the axis's, so no
    face is normalised or checked again. A face's extent is the box's
    half-sizes along its u and v axes. The faces' arrays are rows of one
    array per box and kind.
    """
    lo = [float(c) for c in min_corner]
    size = [float(c) for c in size]
    hi = [a + b for a, b in zip(lo, size)]
    center = [0.5 * (a + b) for a, b in zip(lo, hi)]
    half = [0.5 * b for b in size]
    _check_reflection(return_prob, oblique_drop_angle)
    if not all(0.0 < e < math.inf for e in half):
        raise InvalidInputError("extent must be positive and finite")
    if not all(map(math.isfinite, lo + hi + center)):
        raise InvalidInputError("box corners must be finite")
    origins, extents = [], []
    for k, (axis, u, v) in enumerate(_BOX_AXES):
        origin = list(center)
        origin[axis] = (lo, hi)[k % 2][axis]
        origins += origin
        extents += (half[u], half[v])
    faces = []
    for origin, normal, extent, axes in zip(np.array(origins).reshape(6, 3), _BOX_NORMALS.copy(),
                                            np.array(extents).reshape(6, 2), _BOX_FRAMES.copy()):
        face = object.__new__(SceneSurface)
        face.origin, face.normal, face.extent, face.axes = origin, normal, extent, axes
        face.return_prob, face.oblique_drop_angle = return_prob, oblique_drop_angle
        faces.append(face)
    return faces


@dataclass
class SceneSpec:
    """Surface list plus the axis-aligned bounds of the sensing volume.

    The surfaces are packed when the spec is built, one entry per surface in
    list order, into one (S, 16) table (`_surface_table`, its half-extents
    widened by the 1e-12 m edge tolerance): its rows in the aligned and
    general forms that single rays walk (``walk``, `_walk_forms`), and its
    columns as contiguous rows of S values, which frames are traced against
    (``rects``). Build a new spec instead of editing ``surfaces`` in
    place.
    """

    surfaces: list
    bounds: tuple
    rects: np.ndarray = field(init=False, repr=False)         # (16, S): the table's columns
    walk: tuple = field(init=False, repr=False)               # `_walk_forms`' two forms
    return_probs: np.ndarray = field(init=False, repr=False)  # (S,)
    oblique_limits: np.ndarray = field(init=False, repr=False)  # (S,)

    def __post_init__(self):
        lo, hi = (np.asarray(b, dtype=float) for b in self.bounds)
        self.bounds = (lo, hi)
        if np.count_nonzero(hi <= lo):      # count_nonzero: `any` at a third of its cost
            raise InvalidInputError("bounds must have positive extent")
        table = _surface_table(self.surfaces)
        # A corner is origin +- e_u u +- e_v v, summed in that order; rounding
        # is monotone, so the least and the largest of the four corners are
        # these two.
        origin, half_u, half_v = (table[:, 0:3], np.abs(table[:, 12:13] * table[:, 6:9]),
                                  np.abs(table[:, 13:14] * table[:, 9:12]))
        if (np.count_nonzero((origin - half_u) - half_v < lo - 1e-9)
                or np.count_nonzero((origin + half_u) + half_v > hi + 1e-9)):
            raise InvalidInputError("all surface corners must lie inside the bounds")
        self.walk = _walk_forms(_add_reach(table))
        self.rects = np.ascontiguousarray(table.T)
        self.return_probs, self.oblique_limits = self.rects[14], self.rects[15]


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
    dist, denom = _distances(o, d, scene.rects, s_max)
    order = dist.argsort(axis=1, kind="stable")
    drops = np.arccos(np.minimum(np.abs(denom), 1.0)) > scene.oblique_limits
    pick = np.arange(len(dist))[:, None] * dist.shape[1] + order   # flat indices
    return dist.take(pick), order, drops.take(pick)


def ray_hits(scene: SceneSpec, origin, direction, s_max: float) -> list:
    """(distance, surface) pairs within range, sorted by distance.

    The sort is stable: surfaces at equal distance keep scene order.
    """
    return [(s, scene.surfaces[k])
            for s, k, _, _ in _walk(scene.walk, _vector(origin), _vector(direction), s_max)]


def trace_true_cdf(scene: SceneSpec, ray: Ray) -> CdfTrace:
    """Exact cumulative return distribution along a ray, as a jump list.

    Walking the surfaces in distance order, surface m contributes a jump of
    height P_reach * p_m (zero when its incidence exceeds the oblique limit,
    since such reflections drop) and multiplies P_reach by (1 - p_m) either
    way. The returned trace holds the jump locations and post-jump values,
    and nothing to integrate; total mass plus drop probability is exactly 1.
    """
    distances, values = [], []
    reach = 1.0
    total = 0.0
    for s, _, prob, dropped in _walk(scene.walk, ray.origin.tolist(),
                                     ray.direction.tolist(), ray.s_max):
        if not dropped:
            total += reach * prob
            if distances and s - distances[-1] <= 1e-9:
                values[-1] = total  # coincident surfaces merge into one jump
            else:
                distances.append(s)
                values.append(total)
        reach *= 1.0 - prob
    return CdfTrace(SampleGrid(np.array(distances)), np.array(values))


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
    hits = _walk(scene.walk, ray.origin.tolist(), ray.direction.tolist(), ray.s_max)
    return _first_reflection([(s, prob, dropped) for s, _, prob, dropped in hits], rng)


def _trace_frame(scene: SceneSpec, rays, s_max: float) -> tuple:
    """One frame's pulses traced: the outcomes that need no draw, and the hits
    of the pulses whose outcome does.

    Returns flat (ranges, returned) with 0.0 and False for every pulse but
    those whose first surface is opaque (p = 1), which reflect there
    whatever they would draw; and the uncertain pulses (a hit, not opaque
    first) as (flat indices, then their rows of `_sorted_hits`' distances,
    return probabilities and drop flags, and their hit counts).
    """
    dist, order, drops = _sorted_hits(scene, *rays, s_max)
    probs = scene.return_probs.take(order)
    n_hits = np.count_nonzero(dist < np.inf, axis=1)
    hit = dist[:, 0] < np.inf
    certain = hit & (probs[:, 0] == 1.0)
    returned = certain & ~drops[:, 0]
    ranges = np.where(returned, dist[:, 0], 0.0)
    index = np.flatnonzero(hit ^ certain)
    return ranges, returned, (index, dist[index], probs[index], drops[index], n_hits[index])


# `generate_dataset` draws its pending uncertain pulses once this many are
# gathered: it holds fewer than this plus one frame's hits and draws at once.
DRAW_CHUNK = 4096


def _draw_first_reflections(frames: list, pending: list, seed: int) -> None:
    """Draw the outcomes of ``pending``'s pulses into ``frames``.

    ``pending`` holds (frame index, uncertain pulses) pairs, the pulses as
    `_trace_frame` gives them. Pulse (f, b, a) draws the first uniforms of
    its (seed, f, b, a) stream, one per surface it reaches in distance
    order; it reflects at the first surface whose draw falls below its
    return probability, as a range or, where that hit drops, a drop
    (`_first_reflection`'s walk, on every pulse at once). One
    `stream_uniforms` call draws all, as wide as the most hits: a prefix of
    each pulse's stream, so the width changes no outcome.
    """
    if not sum(len(hits[0]) for _, hits in pending):
        return
    azimuth_count = frames[0].intrinsics.azimuth_count
    index, dist, probs, drops, n_hits = (np.concatenate([hits[k] for _, hits in pending])
                                         for k in range(5))
    beam, azimuth = np.divmod(index, azimuth_count)
    frame = np.repeat([f for f, _ in pending], [len(hits[0]) for _, hits in pending])
    keys = list(zip([seed] * len(index), frame.tolist(), beam.tolist(), azimuth.tolist()))
    width = int(n_hits.max())
    reflects = ((stream_uniforms(keys, width) < probs[:, :width])
                & (np.arange(width) < n_hits[:, None]))
    first = reflects.argmax(axis=1)
    rows = np.arange(len(first))
    returned = reflects[rows, first] & ~drops[rows, first]
    ranges = np.where(returned, dist[rows, first], 0.0)
    start = 0
    for f, hits in pending:
        stop = start + len(hits[0])
        frames[f].ranges.reshape(-1)[hits[0]] = ranges[start:stop]     # views
        frames[f].returned.reshape(-1)[hits[0]] = returned[start:stop]
        start = stop


def generate_dataset(scene: SceneSpec, sensor_path: list, intrinsics: SensorIntrinsics,
                     seed: int) -> list:
    """Simulated scan frames along a pose path, reproducible from the seed.

    ``sensor_path`` holds n_frames + 1 >= 2 timestamped poses; frame i spans
    poses i and i + 1. Every (frame, beam, azimuth) pulse draws from its own
    (seed, frame, beam, azimuth) stream, one uniform per surface it reaches
    in distance order (as ``sample_return`` does), so frame order never
    changes the outcome. A pulse whose first surface is opaque (p = 1)
    reflects there whatever it would draw, so its outcome is set without a
    draw.

    Tracing comes first and drawing after: the uncertain pulses are
    gathered across frames and drawn by one `stream_uniforms` call each
    time `DRAW_CHUNK` are gathered, and at the end. A frame whose two
    boundary poses agree (`same_pose`) with the frame before's reuses that
    frame's hits without computing its rays: both frames rest at one pose,
    and a resting frame's rays depend only on that pose's rotation and
    translation. Every frame's poses are checked for time order.
    """
    shape = (intrinsics.n_beams, intrinsics.azimuth_count)
    frames, pending, n_pending = [], [], 0
    for f, (start, end) in enumerate(zip(sensor_path[:-1], sensor_path[1:])):
        frame = ScanFrame(intrinsics, start, end, np.zeros(shape), np.zeros(shape, dtype=bool))
        frames.append(frame)
        if f and same_pose(sensor_path[f - 1], start) and same_pose(start, end):
            check_pose_order(start, end)   # reuses the hits of the frame before
        else:
            rays = ray_directions(intrinsics, frame)   # checks the frame's poses
            traced = _trace_frame(scene, rays, intrinsics.s_max) if scene.surfaces else None
        if traced is None:
            continue  # every pulse drops
        ranges, returned, uncertain = traced
        frame.ranges.reshape(-1)[:] = ranges    # views
        frame.returned.reshape(-1)[:] = returned
        pending.append((f, uncertain))
        n_pending += len(uncertain[0])
        if n_pending >= DRAW_CHUNK:
            _draw_first_reflections(frames, pending, seed)
            pending, n_pending = [], 0
    _draw_first_reflections(frames, pending, seed)
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

