"""LiDAR geometry: spherical ray generation, motion compensation, scaling.

A mechanically spinning sensor samples a spherical projection surface: one
elevation angle per beam, azimuth advancing with the rotor. The projection
model is natively spherical; no planar reprojection is ever performed.

On-disk formats:
  scan file   CSV with columns beam_idx, azimuth_idx, range_m, drop_flag,
              t_offset_s (range_m is meaningless where drop_flag == 0)
  pose file   CSV with columns t_s, tx, ty, tz, qw, qx, qy, qz: a pose writes
              back the quaternion it was read with, not one rebuilt from a matrix
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidFrameError, InvalidInputError

# 2**-511: below it the squared norm is subnormal, and normalising loses precision.
MIN_QUAT_NORM = float(np.sqrt(np.finfo(float).tiny))


@dataclass
class SensorIntrinsics:
    """Beam layout and timing of one spinning LiDAR unit; each check fails NaN."""

    elevation_angles: np.ndarray
    azimuth_count: int
    s_max: float
    scan_period: float

    def __post_init__(self):
        self.elevation_angles = np.asarray(self.elevation_angles, dtype=float)
        if self.elevation_angles.ndim != 1 or self.elevation_angles.size == 0:
            raise InvalidInputError("need at least one beam elevation")
        if not np.all(np.diff(self.elevation_angles) > 0.0):
            raise InvalidInputError("elevation angles must be strictly increasing")
        if not np.all(np.abs(self.elevation_angles) < np.pi / 2):
            raise InvalidInputError("elevations must lie inside (-pi/2, pi/2)")
        if self.azimuth_count < 1:
            raise InvalidInputError("azimuth_count must be at least 1")
        if not (0.0 < self.s_max < np.inf and 0.0 < self.scan_period < np.inf):
            raise InvalidInputError("s_max and scan_period must be positive and finite")

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
        if not (np.all(np.isfinite(self.translation)) and np.isfinite(self.timestamp)):
            raise InvalidInputError("pose translation and timestamp must be finite")
        with np.errstate(over="ignore"):    # an overflowing norm is inf, and rejected
            norm = float(_norms(self.quaternion)[0])
        if not MIN_QUAT_NORM <= norm < np.inf:
            raise InvalidInputError(
                f"quaternion norm {norm!r} is outside [{MIN_QUAT_NORM:.3g}, inf)")
        self.rotation = matrix_from_quat(self.quaternion)


@dataclass
class ScanFrame:
    """One full revolution of measurements between two boundary poses."""

    intrinsics: SensorIntrinsics
    start_pose: Pose
    end_pose: Pose
    ranges: np.ndarray      # (n_beams, azimuth_count), value where returned
    returned: np.ndarray    # bool mask, False marks ray drop

    def __post_init__(self):
        shape = (self.intrinsics.n_beams, self.intrinsics.azimuth_count)
        self.ranges = np.asarray(self.ranges, dtype=float)
        self.returned = np.asarray(self.returned, dtype=bool)
        if self.ranges.shape != shape or self.returned.shape != shape:
            raise InvalidInputError("measurement grid must match the intrinsics")

    def sample_times(self) -> np.ndarray:
        """Per-azimuth-step sample times, offset from the frame start."""
        az = np.arange(self.intrinsics.azimuth_count)
        return self.start_pose.timestamp + (az / self.intrinsics.azimuth_count) \
            * self.intrinsics.scan_period


def sensor_frame_directions(intrinsics: SensorIntrinsics) -> np.ndarray:
    """Unit beam directions in the sensor frame, shape (n_beams, n_az, 3)."""
    theta = 2.0 * np.pi * np.arange(intrinsics.azimuth_count) / intrinsics.azimuth_count
    elev = intrinsics.elevation_angles[:, None]
    return np.stack([
        np.cos(elev) * np.cos(theta),
        np.cos(elev) * np.sin(theta),
        np.broadcast_to(np.sin(elev), (intrinsics.n_beams, theta.size)),
    ], axis=-1)


def motion_compensate(start: Pose, end: Pose, fractions) -> tuple:
    """Poses at fractions of the way from ``start`` to ``end``, stacked.

    Returns ``(quaternions (A, 4), translations (A, 3))`` for A fractions:
    linear translation, spherical-linear rotation. Boundary poses with
    equal rotations and translations give the start pose at every fraction.
    """
    fractions = np.asarray(fractions, dtype=float)
    if _at_rest(start, end):
        return (np.broadcast_to(start.quaternion, fractions.shape + (4,)),
                np.broadcast_to(start.translation, fractions.shape + (3,)))
    f = fractions[..., None]
    return (quat_slerp(start.quaternion, end.quaternion, fractions),
            (1.0 - f) * start.translation + f * end.translation)


def _at_rest(start: Pose, end: Pose) -> bool:
    """Whether two poses have equal rotations and translations."""
    return (np.array_equal(start.rotation, end.rotation)
            and np.array_equal(start.translation, end.translation))


def ray_directions(intrinsics: SensorIntrinsics, frame: ScanFrame):
    """World-frame origins and directions for every (beam, azimuth) sample.

    Returns (origins, directions), each (n_beams, azimuth_count, 3), with
    the pose interpolated at each azimuth step's time.
    """
    start, end = frame.start_pose, frame.end_pose
    if end.timestamp <= start.timestamp:
        raise InvalidFrameError("end pose must be later than the start pose")
    fractions = (frame.sample_times() - start.timestamp) / (end.timestamp - start.timestamp)
    quaternions, translations = motion_compensate(start, end, fractions)
    # At rest every step has the start pose, whose matrix is already built.
    rotations = (np.broadcast_to(start.rotation, quaternions.shape[:-1] + (3, 3))
                 if _at_rest(start, end) else matrix_from_quat(quaternions))
    local = sensor_frame_directions(intrinsics)
    # One (n_beams, 3) @ (3, 3) product per azimuth step, as a stacked matmul.
    directions = np.matmul(local.transpose(1, 0, 2), rotations.transpose(0, 2, 1))
    origins = np.broadcast_to(translations, local.shape)
    return origins.copy(), np.ascontiguousarray(directions.transpose(1, 0, 2))


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
    preserved.
    """
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    extent = hi - lo
    if np.any(extent <= 0.0):
        raise InvalidInputError("bounds must have positive extent")
    scale = 2.0 / float(extent.max())
    return UnitCubeScale(center=0.5 * (lo + hi), scale=scale)


# -- quaternion helpers (w, x, y, z convention, scalar first) -------------------


def _norms(q: np.ndarray) -> np.ndarray:
    """Norm (..., 1) of each row of q, as one dot product like ``np.linalg.norm``."""
    return np.sqrt(np.matmul(q[..., None, :], q[..., :, None]))[..., 0]


def matrix_from_quat(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) from quaternions (..., 4)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = np.moveaxis(q / _norms(q), -1, 0)
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w),
        2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w),
        2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y),
    ], -1).reshape(q.shape[:-1] + (3, 3))


def quat_slerp(q0: np.ndarray, q1: np.ndarray, fractions) -> np.ndarray:
    """Shortest-path spherical interpolation: one (4,) quaternion per fraction."""
    q0 = q0 / np.linalg.norm(q0)
    q1 = q1 / np.linalg.norm(q1)
    dot = float(np.dot(q0, q1))
    if dot < 0.0:
        q1, dot = -q1, -dot
    f = np.asarray(fractions, dtype=float)[..., None]
    if dot > 1.0 - 1e-12:
        out = (1.0 - f) * q0 + f * q1
        return out / _norms(out)
    angle = np.arccos(np.clip(dot, -1.0, 1.0))
    return (np.sin((1.0 - f) * angle) * q0 + np.sin(f * angle) * q1) / np.sin(angle)


# -- file IO ---------------------------------------------------------------------

SCAN_HEADER = ["beam_idx", "azimuth_idx", "range_m", "drop_flag", "t_offset_s"]
POSE_HEADER = ["t_s", "tx", "ty", "tz", "qw", "qx", "qy", "qz"]


def write_scan(path, frame: ScanFrame) -> None:
    times = frame.sample_times() - frame.start_pose.timestamp
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCAN_HEADER)
        for b in range(frame.intrinsics.n_beams):
            for a in range(frame.intrinsics.azimuth_count):
                returned = bool(frame.returned[b, a])
                writer.writerow([
                    b, a,
                    repr(float(frame.ranges[b, a])) if returned else "0.0",
                    int(returned),
                    repr(float(times[a])),
                ])


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


def read_scan(path, intrinsics: SensorIntrinsics, start_pose: Pose, end_pose: Pose) -> ScanFrame:
    """A scan file that names every (beam, azimuth) cell once, with drop flag
    0 or 1 and, where the pulse returned, a range in (0, s_max]."""
    shape = (intrinsics.n_beams, intrinsics.azimuth_count)
    ranges = np.zeros(shape)
    returned = np.zeros(shape, dtype=bool)
    seen = np.zeros(shape, dtype=bool)

    def parse(row):
        b, a, flag, value = int(row[0]), int(row[1]), int(row[3]), float(row[2])
        if not (0 <= b < shape[0] and 0 <= a < shape[1]):
            raise ValueError(f"beam {b}, azimuth {a} is outside the {shape[0]} x {shape[1]} scan")
        if seen[b, a]:
            raise ValueError(f"beam {b}, azimuth {a} is named twice")
        if flag not in (0, 1):
            raise ValueError(f"drop flag {flag} is not 0 or 1")
        if flag and not 0.0 < value <= intrinsics.s_max:
            raise ValueError(f"range {value!r} is outside (0, {intrinsics.s_max!r}]")
        seen[b, a] = True
        return b, a, bool(flag), value

    for b, a, flag, value in _csv_rows(path, SCAN_HEADER, parse):
        returned[b, a] = flag
        ranges[b, a] = value
    if not seen.all():
        b, a = np.argwhere(~seen)[0]
        raise InvalidInputError(f"{path}: no row for beam {b}, azimuth {a}")
    return ScanFrame(intrinsics, start_pose, end_pose, ranges, returned)


def write_poses(path, poses: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(POSE_HEADER)
        for pose in poses:
            writer.writerow([repr(float(pose.timestamp))]
                            + [repr(float(v)) for v in pose.translation]
                            + [repr(float(v)) for v in pose.quaternion])


def read_poses(path) -> list:
    def parse(row):  # a bad number, or a pose that Pose rejects, is a ValueError
        t, *values = (float(v) for v in row)
        return Pose(np.array(values[3:]), np.array(values[:3]), t)

    return list(_csv_rows(path, POSE_HEADER, parse))
