"""Point-cloud reconstruction metrics.

Completion is the mean distance from ground-truth points to their nearest
synthetic neighbors; accuracy is the reverse direction; their mean is the
L1 Chamfer distance. The F-score is the harmonic mean of precision and
recall at a threshold distance. Distances are reported in centimeters.

Nearest neighbors run through a k-d tree with exact queries, so the values
match an O(n^2) scan to round-off. Clouds are written as ASCII PLY (one
string, ``repr`` coordinates) and read from PLY or plain ``x y z`` text.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidInputError

METERS_TO_CM = 100.0


@dataclass
class PointCloud:
    """A bag of finite 3-d points in meters."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise InvalidInputError("cloud points must be finite")

    def __len__(self):
        return self.points.shape[0]


@dataclass
class MetricsReport:
    """Metric suite for one ground-truth / synthetic cloud pair."""

    completion_cm: float
    accuracy_cm: float
    chamfer_l1_cm: float
    f_score_pct: float
    threshold_cm: float

    def __post_init__(self):
        expected = 0.5 * (self.completion_cm + self.accuracy_cm)
        if abs(self.chamfer_l1_cm - expected) > 1e-9:
            raise InvalidInputError("chamfer must be the completion/accuracy mean")
        if not (0.0 <= self.f_score_pct <= 100.0):
            raise InvalidInputError("f-score is a percentage")

    def as_row(self) -> list:
        return [self.completion_cm, self.accuracy_cm, self.chamfer_l1_cm,
                self.f_score_pct, self.threshold_cm]


def _nn_distances(queries: PointCloud, targets: PointCloud) -> np.ndarray:
    if len(queries) == 0 or len(targets) == 0:
        raise InvalidInputError("metric clouds must be nonempty")
    tree = cKDTree(targets.points)
    distances, _ = tree.query(queries.points, k=1)
    return np.asarray(distances)


def evaluate(gt: PointCloud, synth: PointCloud, threshold_cm: float) -> MetricsReport:
    """The metric suite, from one nearest-neighbor query in each direction."""
    to_synth = _nn_distances(gt, synth)     # completion, recall
    to_gt = _nn_distances(synth, gt)        # accuracy, precision
    comp = float(np.mean(to_synth)) * METERS_TO_CM
    acc = float(np.mean(to_gt)) * METERS_TO_CM
    threshold_m = threshold_cm / METERS_TO_CM
    precision = float(np.mean(to_gt <= threshold_m)) * 100.0
    recall = float(np.mean(to_synth <= threshold_m)) * 100.0
    f_score = 0.0 if precision + recall == 0.0 else \
        2.0 * precision * recall / (precision + recall)
    return MetricsReport(
        completion_cm=comp,
        accuracy_cm=acc,
        chamfer_l1_cm=0.5 * (comp + acc),
        f_score_pct=f_score,
        threshold_cm=threshold_cm,
    )


# -- cloud file IO -----------------------------------------------------------------


def write_ply(path, cloud: PointCloud) -> None:
    header = (f"ply\nformat ascii 1.0\nelement vertex {len(cloud)}\n"
              "property float x\nproperty float y\nproperty float z\nend_header\n")
    with open(path, "w") as fh:
        fh.write(header + "".join([f"{x!r} {y!r} {z!r}\n" for x, y, z in cloud.points.tolist()]))


def _read_points(path, numbered_lines) -> PointCloud:
    """The first three numbers of each nonblank ``(line number, text)`` pair."""
    rows = []
    for n, line in numbered_lines:
        fields = line.replace(",", " ").split()
        if not fields:
            continue
        try:
            if len(fields) < 3:
                raise ValueError(f"expected x y z, got {len(fields)} values")
            row = [float(v) for v in fields[:3]]
            if not all(map(math.isfinite, row)):
                raise ValueError(f"point {' '.join(fields[:3])} is not finite")
            rows.append(row)
        except ValueError as exc:
            raise InvalidInputError(f"{path} line {n}: {exc}") from None
    return PointCloud(np.asarray(rows) if rows else np.empty((0, 3)))


def read_ply(path) -> PointCloud:
    """An ASCII 1.0 PLY file's vertices."""
    with open(path) as fh:
        if fh.readline().strip() != "ply":
            raise InvalidInputError(f"{path} is not a PLY file")
        lines = enumerate(fh, start=2)
        n_vertices = None
        for n, line in lines:
            line = line.strip()
            if line.startswith("format") and line.split()[1:] != ["ascii", "1.0"]:
                raise InvalidInputError(f"{path} line {n}: unsupported {line!r}; "
                                        "only 'format ascii 1.0' is read")
            if line.startswith("element vertex"):
                try:
                    n_vertices = int(line.split()[-1])
                    if n_vertices < 0:
                        raise ValueError
                except ValueError:
                    raise InvalidInputError(f"{path} line {n}: bad vertex count") from None
            if line == "end_header":
                break
        else:
            raise InvalidInputError(f"{path}: PLY header has no end_header")
        if n_vertices is None:
            raise InvalidInputError(f"{path}: PLY header declares no vertices")
        cloud = _read_points(path, itertools.islice(lines, n_vertices))
    if len(cloud) != n_vertices:
        raise InvalidInputError(f"{path}: header declares {n_vertices} vertices, "
                                f"found {len(cloud)}")
    return cloud


def read_xyz(path) -> PointCloud:
    with open(path) as fh:
        return _read_points(path, enumerate(fh, start=1))


def read_cloud(path) -> PointCloud:
    """Dispatch on extension: .ply or plain x-y-z text, which must be UTF-8."""
    try:
        return read_ply(path) if str(path).endswith(".ply") else read_xyz(path)
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: cannot read: {exc}") from None
