"""Point-cloud reconstruction metrics.

Completion is the mean distance from ground-truth points to their nearest
synthetic neighbors; accuracy is the reverse direction; their mean is the
L1 Chamfer distance. The F-score is the harmonic mean of precision and
recall at a threshold distance. Distances are reported in centimeters.

Nearest neighbors run through a k-d tree with exact queries, so the values
match an O(n^2) scan to round-off. Clouds are written as ASCII PLY and
read from PLY or plain ``x y z`` text.
"""

from __future__ import annotations

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


def completion(gt: PointCloud, synth: PointCloud) -> float:
    """Mean ground-truth-to-synthetic nearest distance, in cm."""
    return float(np.mean(_nn_distances(gt, synth))) * METERS_TO_CM


def accuracy(gt: PointCloud, synth: PointCloud) -> float:
    """Mean synthetic-to-ground-truth nearest distance, in cm."""
    return float(np.mean(_nn_distances(synth, gt))) * METERS_TO_CM


def f_score(gt: PointCloud, synth: PointCloud, threshold_cm: float) -> float:
    """Harmonic mean of threshold precision and recall, in percent."""
    threshold_m = threshold_cm / METERS_TO_CM
    precision = float(np.mean(_nn_distances(synth, gt) <= threshold_m)) * 100.0
    recall = float(np.mean(_nn_distances(gt, synth) <= threshold_m)) * 100.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def evaluate(gt: PointCloud, synth: PointCloud, threshold_cm: float = 20.0) -> MetricsReport:
    comp = completion(gt, synth)
    acc = accuracy(gt, synth)
    return MetricsReport(
        completion_cm=comp,
        accuracy_cm=acc,
        chamfer_l1_cm=0.5 * (comp + acc),
        f_score_pct=f_score(gt, synth, threshold_cm),
        threshold_cm=threshold_cm,
    )


# -- cloud file IO -----------------------------------------------------------------


def write_ply(path, cloud: PointCloud) -> None:
    with open(path, "w") as fh:
        fh.write("ply\n")
        fh.write("format ascii 1.0\n")
        fh.write(f"element vertex {len(cloud)}\n")
        fh.write("property float x\n")
        fh.write("property float y\n")
        fh.write("property float z\n")
        fh.write("end_header\n")
        for x, y, z in cloud.points:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")


def read_ply(path) -> PointCloud:
    with open(path) as fh:
        if fh.readline().strip() != "ply":
            raise InvalidInputError(f"{path} is not a PLY file")
        n_vertices = None
        while True:
            line = fh.readline()
            if not line:
                raise InvalidInputError("PLY header has no end_header")
            line = line.strip()
            if line.startswith("element vertex"):
                n_vertices = int(line.split()[-1])
            if line == "end_header":
                break
        if n_vertices is None:
            raise InvalidInputError("PLY header declares no vertices")
        points = np.loadtxt(fh, max_rows=n_vertices, ndmin=2) if n_vertices else np.empty((0, 3))
    return PointCloud(points)


def read_xyz(path) -> PointCloud:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            rows.append([float(v) for v in parts[:3]])
    return PointCloud(np.asarray(rows) if rows else np.empty((0, 3)))


def read_cloud(path) -> PointCloud:
    """Dispatch on extension: .ply or plain x-y-z text."""
    if str(path).endswith(".ply"):
        return read_ply(path)
    return read_xyz(path)
