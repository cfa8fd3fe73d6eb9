"""Reference: the scene packer, the ray generator and the frame tracer as
they were first written, one numpy array operation per formula.

The package builds a scene from Python floats and one surface table, makes
a frame's rays with each rotation product computed once, and tests the
in-plane extent on the candidate pairs alone (`simscene`, `sensor`). These
are the same computations in their earlier, plainer form: every surface
normalised and framed on its own (`surface`), the packed arrays made field
by field (`pack`), the rotation matrix entry by entry (`matrix_from_quat`),
and every ray tested against every surface (`distances`). Each reference
performs each float operation of the package in the same order, so the two
must agree byte for byte.
"""

import math

import numpy as np


# -- scene ------------------------------------------------------------------------


def tangent_frame(nx, ny, nz):
    """In-plane axes (u, v) of a unit normal: u = normal x helper,
    normalised, and v = normal x u; the helper is z, or x near z."""
    hx, hy, hz = (1.0, 0.0, 0.0) if abs(nz) > 0.9 else (0.0, 0.0, 1.0)
    ux, uy, uz = ny * hz - nz * hy, nz * hx - nx * hz, nx * hy - ny * hx
    norm = math.sqrt(ux * ux + uy * uy + uz * uz)
    ux, uy, uz = ux / norm, uy / norm, uz / norm
    return (ux, uy, uz), (ny * uz - nz * uy, nz * ux - nx * uz, nx * uy - ny * ux)


def surface(origin, normal, extent, return_prob=1.0, oblique_drop_angle=np.pi / 2) -> dict:
    """A rect's arrays: the normal over ``np.linalg.norm``'s sqrt(dot)."""
    normal = np.asarray(normal, dtype=float)
    norm = math.sqrt(normal.dot(normal))
    unit = [c / norm for c in normal.tolist()]
    return {"origin": np.asarray(origin, dtype=float), "normal": np.array(unit),
            "extent": np.asarray(extent, dtype=float), "axes": np.array(tangent_frame(*unit)),
            "return_prob": return_prob, "oblique_drop_angle": oblique_drop_angle}


def box_faces(min_corner, size, return_prob=1.0, oblique_drop_angle=np.pi / 2) -> list:
    """The six faces of a box, -x, +x, -y, +y, -z, +z, each a `surface`."""
    lo = [float(c) for c in min_corner]
    size = [float(c) for c in size]
    hi = [a + b for a, b in zip(lo, size)]
    center = [0.5 * (a + b) for a, b in zip(lo, hi)]
    half = [0.5 * b for b in size]
    faces = []
    for axis in range(3):
        others = [i for i in range(3) if i != axis]
        for sign in (-1.0, 1.0):
            normal = [0.0, 0.0, 0.0]
            normal[axis] = sign
            ext = [sum(abs(w[i]) * half[i] for i in others) for w in tangent_frame(*normal)]
            origin = list(center)
            origin[axis] = lo[axis] if sign < 0 else hi[axis]
            faces.append(surface(origin, normal, ext, return_prob, oblique_drop_angle))
    return faces


def pack(surfaces) -> dict:
    """A scene's packed arrays, field by field: the kernel's (origins and
    normals (3, 1, S), axes (3, 2, 1, S), half-extents plus the 1e-12 m
    tolerance (2, 1, S)), the walk's rows, return probabilities and oblique
    limits; and each corner of each surface, (4 S, 3)."""
    def field(name, width):
        return np.array([s[name] for s in surfaces], dtype=float).reshape(-1, width)

    def first(a, order):
        return np.ascontiguousarray(np.transpose(a, order))

    origins, normals = field("origin", 3), field("normal", 3)
    axes, extents = field("axes", 6).reshape(-1, 2, 3), field("extent", 2)
    return_probs = field("return_prob", 1)[:, 0]
    oblique_limits = field("oblique_drop_angle", 1)[:, 0]
    half_u, half_v = (extents[..., None] * axes).transpose(1, 0, 2)
    return {
        "rects": (first(origins, (1, 0))[:, None], first(normals, (1, 0))[:, None],
                  first(axes, (2, 1, 0))[:, :, None], first(extents + 1e-12, (1, 0))[:, None]),
        "rows": np.concatenate([origins, normals, axes.reshape(-1, 6), extents + 1e-12,
                                return_probs[:, None], oblique_limits[:, None]], axis=1).tolist(),
        "return_probs": return_probs, "oblique_limits": oblique_limits,
        "corners": np.concatenate([origins + su * half_u + sv * half_v
                                   for su in (-1.0, 1.0) for sv in (-1.0, 1.0)])}


# -- frame tracer -------------------------------------------------------------------


def distances(o, d, rects) -> tuple:
    """(N, S) path distances from N rays to S rects, inf on a miss, and d . n,
    every (ray, surface) pair through every step."""
    origin, normal, axes, reach = rects
    o = np.ascontiguousarray(o.T)[:, :, None]
    d = np.ascontiguousarray(d.T)[:, :, None]
    dn = d * normal
    denom = dn[0] + dn[1] + dn[2]
    rn = (origin - o) * normal
    s = (rn[0] + rn[1] + rn[2]) / np.where(np.abs(denom) >= 1e-12, denom, np.inf)
    point = s * d
    point += o
    point -= origin
    local = point[:, None] * axes
    inside = np.abs(local[0] + local[1] + local[2]) <= reach
    hit = (s > 1e-9) & inside[0] & inside[1]
    return np.where(hit, s, np.inf), denom


def sorted_hits(packed, origins, dirs, s_max) -> tuple:
    """Each ray's hits within ``s_max`` nearest first: distances, surface
    indices and drop flags, (N, S) each."""
    o = np.asarray(origins, dtype=float).reshape(-1, 3)
    d = np.asarray(dirs, dtype=float).reshape(-1, 3)
    dist, denom = distances(o, d, packed["rects"])
    dist[~(dist <= s_max)] = np.inf
    order = dist.argsort(axis=1, kind="stable")
    drops = np.arccos(np.minimum(np.abs(denom), 1.0)) > packed["oblique_limits"]
    rows = np.arange(len(order))[:, None]
    return dist[rows, order], order, drops[rows, order]


def trace_frame(packed, rays, s_max) -> tuple:
    """`simscene._trace_frame`'s outputs: the certain pulses' (ranges,
    returned), then the uncertain pulses' indices, hit rows and hit counts."""
    dist, order, drops = sorted_hits(packed, *rays, s_max)
    probs = packed["return_probs"][order]
    n_hits = np.count_nonzero(dist < np.inf, axis=1)
    certain = (n_hits > 0) & (probs[:, 0] == 1.0)
    returned = np.zeros(len(dist), dtype=bool)
    returned[certain] = ~drops[certain, 0]
    ranges = np.where(returned, dist[:, 0], 0.0)
    index = np.flatnonzero((n_hits > 0) & ~certain)
    return ranges, returned, (index, dist[index], probs[index], drops[index], n_hits[index])


# -- ray generator ------------------------------------------------------------------


def norms(q):
    return np.sqrt(np.matmul(q[..., None, :], q[..., :, None]))[..., 0]


def matrix_from_quat(q):
    """Rotation matrices (..., 3, 3): eighteen products, nine entries stacked."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = np.moveaxis(q / norms(q), -1, 0)
    entries = (1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w),
               2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w),
               2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y))
    return np.stack(entries, -1).reshape(q.shape[:-1] + (3, 3))


def quat_slerp(q0, q1, fractions):
    q0 = q0 / np.linalg.norm(q0)
    q1 = q1 / np.linalg.norm(q1)
    dot = float(np.dot(q0, q1))
    if dot < 0.0:
        q1, dot = -q1, -dot
    f = np.asarray(fractions, dtype=float)[..., None]
    if dot > 1.0 - 1e-12:
        out = (1.0 - f) * q0 + f * q1
        return out / norms(out)
    angle = np.arccos(np.clip(dot, -1.0, 1.0))
    return (np.sin((1.0 - f) * angle) * q0 + np.sin(f * angle) * q1) / np.sin(angle)


def same_pose(a, b):
    return np.array_equal(a.rotation, b.rotation) and np.array_equal(a.translation, b.translation)


def motion_compensate(start, end, fractions):
    fractions = np.asarray(fractions, dtype=float)
    if same_pose(start, end):
        return (np.broadcast_to(start.quaternion, fractions.shape + (4,)),
                np.broadcast_to(start.translation, fractions.shape + (3,)))
    f = fractions[..., None]
    return (quat_slerp(start.quaternion, end.quaternion, fractions),
            (1.0 - f) * start.translation + f * end.translation)


def sensor_frame_directions(intrinsics):
    theta = 2.0 * np.pi * np.arange(intrinsics.azimuth_count) / intrinsics.azimuth_count
    elev = intrinsics.elevation_angles[:, None]
    return np.stack([
        np.cos(elev) * np.cos(theta),
        np.cos(elev) * np.sin(theta),
        np.broadcast_to(np.sin(elev), (intrinsics.n_beams, theta.size)),
    ], axis=-1)


def ray_directions(intrinsics, frame):
    """(origins, directions), each (n_beams, azimuth_count, 3): the poses
    interpolated per azimuth step, one stacked (n_beams, 3) @ (3, 3) product
    per step, copied to beam-major order."""
    start, end = frame.start_pose, frame.end_pose
    fractions = np.arange(intrinsics.azimuth_count) / intrinsics.azimuth_count
    quaternions, translations = motion_compensate(start, end, fractions)
    rotations = (np.broadcast_to(start.rotation, quaternions.shape[:-1] + (3, 3))
                 if same_pose(start, end) else matrix_from_quat(quaternions))
    local = sensor_frame_directions(intrinsics)
    directions = np.matmul(local.transpose(1, 0, 2), rotations.transpose(0, 2, 1))
    origins = np.broadcast_to(translations, local.shape)
    return origins.copy(), np.ascontiguousarray(directions.transpose(1, 0, 2))
