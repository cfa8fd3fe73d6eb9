"""LiDAR geometry: spherical ray generation, motion compensation, scaling.

A mechanically spinning sensor samples a spherical projection surface: one
elevation angle per beam, azimuth advancing with the rotor. The projection
model is natively spherical; no planar reprojection is ever performed.

A frame is one revolution, and its two boundary poses are its only clock:
the revolution starts at the start pose and ends at the end pose, and
azimuth step a of A fires a/A of the way between them
(`ScanFrame.sample_fractions`). The scan record holds no times: the poses
determine them.

On-disk formats:
  scan record one binary file of every frame of a dataset: the 8-byte magic
              ``PLNKSCN2``; uint32 frame, beam and azimuth counts; float64
              ``s_max``; the beams' float64 elevations; then each frame's
              beam x azimuth float64 ranges, beam-major, with 0.0 for a
              dropped pulse. All numbers are little-endian, so the file is
              exactly 28 + 8 * (beams + frames * beams * azimuths) bytes; a
              range in (0, s_max] is a return, and one of 0.0 (or -0.0) a drop
  pose file   CSV with columns t_s, tx, ty, tz, qw, qx, qy, qz, each t_s later
              than the row before's: a pose writes back the quaternion it was
              read with, not one rebuilt from a matrix. A dataset's pose file
              holds one pose more than its scan record has frames

The pose writer gives these exact bytes: the header row (the column names
above), then one row per pose, fields joined by commas with no quoting and
every line ended by CRLF, each float written as its shortest round-trip
``repr`` (``1e-05``, ``-0.0``). Both formats store their floats exactly, so
a dataset read back gives the frames that were written.

Two poses agree (`same_pose`) when their rotation matrices and translations
are equal: a frame whose boundary poses agree holds its start pose, and
training pools the frames whose boundary poses agree with frame 0's. Every
producer of a `ScanFrame` sizes its grid from the frame's intrinsics, so the
frame does not check it again.

A `Pose` is a record of a few numbers, and numpy's fixed per-call cost
outweighs their arithmetic: it checks its translation and timestamp on
Python floats and builds its rotation from the quaternion's floats, each
divided by the one norm `_norms` gives, through `_rotation_entries`, the
formula `matrix_from_quat` applies to arrays.
``TestPose.test_rotation_bytes_equal_matrix_from_quat`` pins the two byte
for byte. Stacked poses (`motion_compensate`, `ray_directions`) stay on
numpy, in few calls: two poses agree on lists of floats (`same_pose`), a
frame at rest skips the interpolation and multiplies by its start pose's
matrix, and a moving frame's matrices come from nine products per
quaternion, taken component by component (`matrix_from_quat`). The
stacked matmul makes one BLAS product per azimuth step, whose rounding can
depend on its operands' memory layout, so the matrices stay C-ordered.
``TestAgainstReference`` in ``tests/test_sensor.py`` pins the generator to
its first, entry-by-entry form byte for byte.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

# 2**-511: below it the squared norm is subnormal, and normalising loses precision.
MIN_QUAT_NORM = float(np.sqrt(np.finfo(float).tiny))


@dataclass
class SensorIntrinsics:
    """Beam layout and range of one spinning LiDAR unit; each check fails NaN."""

    elevation_angles: np.ndarray
    azimuth_count: int
    s_max: float

    def __post_init__(self):
        self.elevation_angles = np.asarray(self.elevation_angles, dtype=float)
        if self.elevation_angles.ndim != 1 or self.elevation_angles.size == 0:
            raise InvalidInputError("need at least one beam elevation")
        # Neighbours compared, not differenced: inf - inf would warn.
        if not np.all(self.elevation_angles[1:] > self.elevation_angles[:-1]):
            raise InvalidInputError("elevation angles must be strictly increasing")
        if not np.all(np.abs(self.elevation_angles) < np.pi / 2):
            raise InvalidInputError("elevations must lie inside (-pi/2, pi/2)")
        if self.azimuth_count < 1:
            raise InvalidInputError("azimuth_count must be at least 1")
        if not 0.0 < self.s_max < np.inf:
            raise InvalidInputError("s_max must be positive and finite")

    @property
    def n_beams(self) -> int:
        return self.elevation_angles.size


@dataclass
class Pose:
    """Rigid transform (sensor to world) at a timestamp: ``rotation`` is the
    matrix of ``quaternion`` (w, x, y, z), which is kept as given; any
    finite norm of at least `MIN_QUAT_NORM` makes a proper rotation."""

    quaternion: np.ndarray
    translation: np.ndarray
    timestamp: float
    rotation: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.quaternion = np.asarray(self.quaternion, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float)
        if self.quaternion.shape != (4,) or self.translation.shape != (3,):
            raise InvalidInputError("pose needs a 4-vector quaternion and a 3-vector")
        if not (all(map(math.isfinite, self.translation.tolist()))
                and math.isfinite(self.timestamp)):
            raise InvalidInputError("pose translation and timestamp must be finite")
        with np.errstate(over="ignore"):    # an overflowing norm is inf, and rejected
            norm = float(_norms(self.quaternion)[0])
        if not MIN_QUAT_NORM <= norm < math.inf:
            raise InvalidInputError(
                f"quaternion norm {norm!r} is outside [{MIN_QUAT_NORM:.3g}, inf)")
        self.rotation = np.array(
            _rotation_entries(*(c / norm for c in self.quaternion.tolist()))).reshape(3, 3)


@dataclass
class ScanFrame:
    """One full revolution of measurements between two boundary poses: the
    sweep starts at ``start_pose`` and ends at ``end_pose``, and they alone
    time it (`sample_fractions`)."""

    intrinsics: SensorIntrinsics
    start_pose: Pose
    end_pose: Pose
    ranges: np.ndarray      # (n_beams, azimuth_count), value where returned
    returned: np.ndarray    # bool mask, False marks ray drop

    def __post_init__(self):
        self.ranges = np.asarray(self.ranges, dtype=float)
        self.returned = np.asarray(self.returned, dtype=bool)

    def sample_fractions(self) -> np.ndarray:
        """Where each azimuth step a fires: a / azimuth_count of the way from
        the start pose to the end pose."""
        return np.arange(self.intrinsics.azimuth_count) / self.intrinsics.azimuth_count


def sensor_frame_directions(intrinsics: SensorIntrinsics) -> np.ndarray:
    """Unit beam directions in the sensor frame, shape (n_beams, n_az, 3)."""
    theta = 2.0 * np.pi * np.arange(intrinsics.azimuth_count) / intrinsics.azimuth_count
    elev = intrinsics.elevation_angles[:, None]
    cos_elev = np.cos(elev)
    out = np.empty((intrinsics.n_beams, theta.size, 3))
    np.multiply(cos_elev, np.cos(theta), out=out[..., 0])
    np.multiply(cos_elev, np.sin(theta), out=out[..., 1])
    out[..., 2] = np.sin(elev)
    return out


def motion_compensate(start: Pose, end: Pose, fractions) -> tuple:
    """Poses at fractions of the way from ``start`` to ``end``, stacked.

    Returns ``(quaternions (A, 4), translations (A, 3))`` for A fractions:
    linear translation, spherical-linear rotation. Boundary poses that
    agree (`same_pose`) give the start pose at every fraction.
    """
    fractions = np.asarray(fractions, dtype=float)
    if same_pose(start, end):
        return (np.broadcast_to(start.quaternion, fractions.shape + (4,)),
                np.broadcast_to(start.translation, fractions.shape + (3,)))
    f = fractions[..., None]
    return (quat_slerp(start.quaternion, end.quaternion, fractions),
            (1.0 - f) * start.translation + f * end.translation)


def same_pose(a: Pose, b: Pose) -> bool:
    """Whether two poses agree: equal rotation matrices and equal translations.

    Compared as lists of floats, as ``np.array_equal`` compares them: -0.0
    equals 0.0, and a pose holds no NaN.
    """
    return (a.rotation.tolist() == b.rotation.tolist()
            and a.translation.tolist() == b.translation.tolist())


def check_pose_order(start: Pose, end: Pose) -> None:
    """Reject a frame whose end pose is not later than its start pose."""
    if end.timestamp <= start.timestamp:
        raise InvalidInputError("end pose must be later than the start pose")


def ray_directions(intrinsics: SensorIntrinsics, frame: ScanFrame):
    """World-frame origins and directions for every (beam, azimuth) sample.

    Returns (origins, directions), each (n_beams, azimuth_count, 3), with
    the boundary poses interpolated at each azimuth step's fraction of the
    revolution (`ScanFrame.sample_fractions`).
    """
    start, end = frame.start_pose, frame.end_pose
    check_pose_order(start, end)
    local = sensor_frame_directions(intrinsics)
    if same_pose(start, end):
        # Every step has the start pose, whose matrix is already built.
        translations, rotations = start.translation, start.rotation[None]
    else:
        quaternions, translations = motion_compensate(start, end, frame.sample_fractions())
        rotations = matrix_from_quat(quaternions)
    origins = np.empty_like(local)
    origins[...] = translations
    # One (n_beams, 3) @ (3, 3) product per azimuth step, as a stacked matmul
    # that writes the (n_beams, azimuth_count, 3) result in place.
    directions = np.empty_like(local)
    np.matmul(local.transpose(1, 0, 2), rotations.transpose(0, 2, 1),
              out=directions.transpose(1, 0, 2))
    return origins, directions


# -- unit-cube scaling ---------------------------------------------------------


@dataclass
class UnitCubeScale:
    """Invertible uniform scale + translation taking world bounds to [-1, 1]^3."""

    center: np.ndarray
    scale: float

    def apply(self, points):
        return (np.asarray(points, dtype=float) - self.center) * self.scale


def to_unit_cube(bounds) -> UnitCubeScale:
    """The transform taking axis-aligned world bounds into the unit cube.

    The scale is uniform (largest bound extent wins), so geometry is
    preserved; the bounds are a `simscene.SceneSpec`'s, checked positive there.
    """
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    extent = hi - lo
    scale = 2.0 / float(extent.max())
    return UnitCubeScale(center=0.5 * (lo + hi), scale=scale)


# -- quaternion helpers (w, x, y, z convention, scalar first) -------------------


def _norms(q: np.ndarray) -> np.ndarray:
    """Norm (..., 1) of each row of q, as one dot product like ``np.linalg.norm``."""
    return np.sqrt(np.matmul(q[..., None, :], q[..., :, None]))[..., 0]


def _rotation_entries(w, x, y, z) -> tuple:
    """The nine entries, row by row, of a unit quaternion's rotation matrix,
    on Python floats (`Pose`); `matrix_from_quat` computes each entry of
    arrays by the same operations."""
    xx, yy, zz, xy, xz, yz = x * x, y * y, z * z, x * y, x * z, y * z
    xw, yw, zw = x * w, y * w, z * w
    return (1 - 2 * (yy + zz), 2 * (xy - zw), 2 * (xz + yw),
            2 * (xy + zw), 1 - 2 * (xx + zz), 2 * (yz - xw),
            2 * (xz - yw), 2 * (yz + xw), 1 - 2 * (xx + yy))


# The rotation matrix of a unit quaternion (w, x, y, z) from its nine
# distinct products yy, zz, xx, xy, zw, xz, yw, yz, xw, each of components
# _FACTORS[0] and _FACTORS[1]: entry k, row by row, is 2 * (a + s * b) for
# the products a = _TERMS[0, k] and b = _TERMS[1, k] and the sign
# s = _SIGNS[k], and a diagonal entry is 1 minus that.
_FACTORS = np.array([[2, 3, 1, 1, 3, 1, 2, 2, 1], [2, 3, 1, 2, 0, 3, 0, 3, 0]])
_TERMS = np.array([[0, 3, 5, 3, 2, 7, 5, 7, 2], [1, 4, 6, 4, 1, 8, 6, 8, 0]])
_SIGNS = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])[:, None]


def matrix_from_quat(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) from quaternions (..., 4), in C order.

    Each entry is `_rotation_entries`' formula: a product reused is the same
    float operation, and a - b is a + (-1 * b). The work runs components
    first, one row of M values per component, product or entry. The stacked
    matmul of `ray_directions` reads the matrices, and matrices of another
    memory layout may round differently there.
    """
    q = np.asarray(q, dtype=float)
    rows = q.reshape(-1, 4)
    unit = rows.T / _norms(rows).T      # (4, M)
    products = unit.take(_FACTORS[0], axis=0) * unit.take(_FACTORS[1], axis=0)
    entries = products.take(_TERMS[1], axis=0) * _SIGNS     # (9, M)
    entries += products.take(_TERMS[0], axis=0)
    entries *= 2
    np.subtract(1, entries[::4], out=entries[::4])
    return np.ascontiguousarray(entries.T).reshape(q.shape[:-1] + (3, 3))


def quat_slerp(q0: np.ndarray, q1: np.ndarray, fractions) -> np.ndarray:
    """Shortest-path spherical interpolation: one (4,) quaternion per fraction."""
    q0 = q0 / math.sqrt(q0.dot(q0))     # np.linalg.norm's sqrt(dot)
    q1 = q1 / math.sqrt(q1.dot(q1))
    dot = float(np.dot(q0, q1))
    if dot < 0.0:
        q1, dot = -q1, -dot
    f = np.asarray(fractions, dtype=float)[..., None]
    if dot > 1.0 - 1e-12:
        out = (1.0 - f) * q0 + f * q1
        return out / _norms(out)
    angle = np.arccos(dot)      # dot lies in [0, 1 - 1e-12] here
    return (np.sin((1.0 - f) * angle) * q0 + np.sin(f * angle) * q1) / np.sin(angle)


# -- file IO ---------------------------------------------------------------------

SCANS_MAGIC = b"PLNKSCN2"
# The scan record's header: magic, frame, beam and azimuth counts, s_max.
SCANS_HEADER = struct.Struct("<8s3Id")
POSE_HEADER = ["t_s", "tx", "ty", "tz", "qw", "qx", "qy", "qz"]
LINE_END = "\r\n"


def write_scans(path, frames: list) -> None:
    """The scan record of ``frames``, which share frame 0's intrinsics (module
    docstring)."""
    intr = frames[0].intrinsics
    ranges = np.where(np.stack([f.returned for f in frames]),
                      np.stack([f.ranges for f in frames]), 0.0)
    with open(path, "wb") as fh:
        fh.write(SCANS_HEADER.pack(SCANS_MAGIC, len(frames), intr.n_beams,
                                   intr.azimuth_count, intr.s_max)
                 + intr.elevation_angles.astype("<f8").tobytes()
                 + ranges.astype("<f8", copy=False).tobytes())


def read_scans(path, poses: list) -> list:
    """The frames of a scan record, frame i timed by ``poses[i]`` and
    ``poses[i + 1]``. The file's size, computed from its header, and its
    magic are checked before anything of the frames' shape is read or made;
    then the header's intrinsics, the pose count (one more than the frames)
    and every range, which must lie in [0, s_max]. A range above 0 is a
    return."""
    with open(path, "rb") as fh:
        found = os.fstat(fh.fileno()).st_size
        head = fh.read(SCANS_HEADER.size)
        if head[:len(SCANS_MAGIC)] != SCANS_MAGIC:
            raise InvalidInputError(f"{path}: not a scan record")
        if len(head) < SCANS_HEADER.size:
            raise InvalidInputError(f"{path}: {found} bytes, shorter than the "
                                    f"{SCANS_HEADER.size}-byte header")
        _, n_frames, n_beams, n_az, s_max = SCANS_HEADER.unpack(head)
        if not n_frames * n_beams * n_az:
            raise InvalidInputError(f"{path}: frame, beam and azimuth counts {n_frames}, "
                                    f"{n_beams}, {n_az}: each must be at least 1")
        cells = n_beams * n_az
        size = SCANS_HEADER.size + 8 * (n_beams + n_frames * cells)
        if found != size:
            raise InvalidInputError(f"{path}: {found} bytes, but a {n_frames} x {n_beams} x "
                                    f"{n_az} scan record takes {size}")
        try:
            intr = SensorIntrinsics(np.fromfile(fh, "<f8", n_beams), n_az, s_max)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{path}: {exc}") from None
        if len(poses) != n_frames + 1:
            raise InvalidInputError(f"{path}: frame count {n_frames} needs {n_frames + 1} "
                                    f"poses, but the pose file holds {len(poses)}")
        ranges = np.fromfile(fh, "<f8", n_frames * cells).reshape(n_frames, n_beams, n_az)
    bad = ~((ranges >= 0.0) & (ranges <= s_max))    # NaN too
    if bad.any():
        f, b, a = np.argwhere(bad)[0].tolist()
        raise InvalidInputError(f"{path}: frame {f}, beam {b}, azimuth {a}: range "
                                f"{float(ranges[f, b, a])!r} is outside [0, {s_max!r}]")
    returned = ranges > 0.0
    return [ScanFrame(intr, poses[i], poses[i + 1], ranges[i], returned[i])
            for i in range(n_frames)]


def _csv_rows(path, header: list, parse):
    """``parse(fields)`` of each data row; text that is not UTF-8 or not CSV, a
    row with the wrong column count, or one that ``parse`` rejects with
    ValueError raises InvalidInputError naming the file."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidInputError(f"{path}: cannot read: {exc}") from None
    if not rows or [h.strip() for h in rows[0]] != header:
        raise InvalidInputError(f"unexpected header in {path}")
    for n, row in enumerate(rows[1:], start=2):
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} columns, got {len(row)}")
            yield parse(row)
        except ValueError as exc:
            raise InvalidInputError(f"{path} row {n}: {exc}") from None


def write_poses(path, poses: list) -> None:
    """The pose file of ``poses`` (module docstring), written as one string."""
    rows = [[float(p.timestamp), *p.translation.tolist(), *p.quaternion.tolist()] for p in poses]
    with open(path, "w", newline="") as fh:   # newline="": the rows' CRLFs stay as they are
        fh.write(",".join(POSE_HEADER) + LINE_END
                 + "".join([",".join(map(repr, row)) + LINE_END for row in rows]))


def read_poses(path) -> list:
    """A pose file's poses, at least two, each later than the row before."""
    poses = []

    def parse(row):  # a bad number, a pose that Pose rejects or one out of time order
        t, *values = (float(v) for v in row)
        pose = Pose(np.array(values[3:]), np.array(values[:3]), t)
        if poses and t <= poses[-1].timestamp:
            raise ValueError(f"time {t!r} is not later than the previous row's "
                             f"{poses[-1].timestamp!r}")
        return pose

    for pose in _csv_rows(path, POSE_HEADER, parse):
        poses.append(pose)
    if len(poses) < 2:
        raise InvalidInputError(f"{path}: need at least two poses, found {len(poses)}")
    return poses
