"""Point-cloud reconstruction metrics.

Completion is the mean distance from ground-truth points to their nearest
synthetic neighbors; accuracy is the reverse direction; their mean is the
L1 Chamfer distance. The F-score is the harmonic mean of precision and
recall at a threshold distance. Distances are reported in centimeters.

Nearest neighbors come from one exact scan over every (gt, synth) pair,
which gives both directions at once. The scan walks blocks of whole gt
rows, about ``SCAN_PAIRS`` pairs each (one row when synth has more
points), and holds two float64 blocks beside its inputs and outputs at
any cloud size. Each block sums ``dx*dx + dy*dy + dz*dz`` in
that order; a row-wise min gives gt->synth, a running column-wise min
gives synth->gt, and ``sqrt`` is taken of the minima only. scipy's
``cKDTree`` (p=2), the tests' oracle, sums the same three squares in the
same order from 0, and ``sqrt`` is correctly rounded and monotone, so
every distance, and every report, is bit-identical to the k-d tree's.
Points more than about 1.3e154 m apart square past float64's range: that
distance is ``inf``, as the tree gives it, and no warning is raised. The
price is O(N*M) time. Best of 3-9 calls of ``evaluate`` on a 2-vCPU
VM:

=============================================  =======  ===================
gt x synth points                              scan     k-d tree, both ways
=============================================  =======  ===================
250 x 250 (a perfbench simulate pass)          1.0 ms   0.4 ms
2,400 x 7,200 (compare's aggregate, defaults)  64 ms    10 ms
25,600 x 76,800 (100 frames, 4 x 64 sensor)    10 s     0.15 s
=============================================  =======  ===================

A compare that scores the last row trains two models for hours first, so
no spatial index is kept, and the package imports only numpy. Clouds are
written as ASCII PLY (one string, ``repr`` coordinates) and read from PLY
or plain ``x y z`` text. The readers reject a non-finite point by its line,
and rendered and ground-truth clouds are finite, so `PointCloud` does not
check again; `MetricsReport` holds `evaluate`'s own arithmetic unchecked.

A learned return distribution is scored against the exact one by the
1-Wasserstein distance between their cdfs, the integral over [0, s_max]
of their absolute difference. The exact cdf is a jump list
(`simscene.trace_true_cdf`), read right-continuous by `true_cdf_on`: 0
before the first jump, and everywhere on a trace with no jump. `w1_grid`
integrates a model cdf sampled on a uniform grid's cell midpoints,
`w1_empirical` the step cdf of a ray's simulated pulses, exactly.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

METERS_TO_CM = 100.0
# Pairs per block of the nearest-neighbor scan: two 512 KiB float64 blocks.
# The fastest of 2^14-2^20 at 2,400 x 7,200 points.
SCAN_PAIRS = 1 << 16


@dataclass
class PointCloud:
    """A bag of finite 3-d points in meters."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)

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

    def as_row(self) -> list:
        return [self.completion_cm, self.accuracy_cm, self.chamfer_l1_cm,
                self.f_score_pct, self.threshold_cm]


def _nn_distances(gt: PointCloud, synth: PointCloud) -> tuple:
    """(gt->synth, synth->gt) nearest-neighbor distances, by one exact scan."""
    if len(gt) == 0 or len(synth) == 0:
        raise InvalidInputError("metric clouds must be nonempty")
    columns = synth.points.T.copy()
    rows = max(1, SCAN_PAIRS // len(synth))
    diff = np.empty((min(rows, len(gt)), len(synth)))
    sq = np.empty_like(diff)
    to_synth = np.empty(len(gt))
    to_gt = np.full(len(synth), np.inf)
    for start in range(0, len(gt), rows):
        block = gt.points[start:start + rows]
        d, s = diff[:len(block)], sq[:len(block)]
        with np.errstate(over="ignore"):        # a square past 1.8e308 is inf, as in the tree
            np.subtract(block[:, 0, None], columns[0], out=d)
            np.multiply(d, d, out=s)
            for axis in (1, 2):
                np.subtract(block[:, axis, None], columns[axis], out=d)
                d *= d
                s += d
        s.min(axis=1, out=to_synth[start:start + len(block)])
        np.minimum(to_gt, s.min(axis=0), out=to_gt)
    return np.sqrt(to_synth, out=to_synth), np.sqrt(to_gt, out=to_gt)


def evaluate(gt: PointCloud, synth: PointCloud, threshold_cm: float) -> MetricsReport:
    """The metric suite, from one scan that gives both nearest-neighbor directions."""
    to_synth, to_gt = _nn_distances(gt, synth)  # completion, recall; accuracy, precision
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


# -- distance between return distributions ---------------------------------------


def true_cdf_on(trace, s) -> np.ndarray:
    """Right-continuous exact cdf of a jump-list trace at distances ``s``."""
    return np.concatenate([[0.0], trace.cdf])[np.searchsorted(trace.grid.gammas, s,
                                                               side="right")]


def w1_grid(model_cdf: np.ndarray, grid: np.ndarray, step: float, traces) -> np.ndarray:
    """Per-ray integral of |C_model - C_true| by the midpoint rule.

    ``model_cdf`` is (rays, G) on the cell midpoints ``grid`` of a uniform
    partition of [0, s_max] with cell width ``step``.
    """
    true = np.stack([true_cdf_on(t, grid) for t in traces])
    return np.abs(model_cdf - true).sum(axis=1) * step


def w1_empirical(outcomes, trace, s_max: float) -> float:
    """Exact integral over [0, s_max] of |C_emp - C_true| for one ray.

    ``outcomes`` holds one entry per simulated pulse, at least one: a range,
    or None for a drop. Both cdfs are step functions, so the integral is a
    finite sum.
    """
    returns = np.sort([r for r in outcomes if r is not None])
    knots = np.unique(np.concatenate([[0.0, s_max], returns, trace.grid.gammas]))
    knots = knots[(knots >= 0.0) & (knots <= s_max)]
    left = knots[:-1]
    emp = np.searchsorted(returns, left, side="right") / len(outcomes)
    return float(np.sum(np.abs(emp - true_cdf_on(trace, left)) * np.diff(knots)))


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
    """An ASCII 1.0 PLY file's vertices, whose first three properties are x, y, z.

    The body holds one line per row of each element in header order, so
    the rows of the elements declared before ``vertex`` are skipped.
    """
    with open(path) as fh:
        if fh.readline().strip() != "ply":
            raise InvalidInputError(f"{path} is not a PLY file")
        lines = enumerate(fh, start=2)
        n_vertices, properties, in_vertex, rows_before = None, [], False, 0
        for n, line in lines:
            line = line.strip()
            fields = line.split()
            if line.startswith("format") and fields[1:] != ["ascii", "1.0"]:
                raise InvalidInputError(f"{path} line {n}: unsupported {line!r}; "
                                        "only 'format ascii 1.0' is read")
            key = fields[0] if fields else ""
            if key == "element":
                in_vertex = fields[1:2] == ["vertex"]
                if in_vertex or n_vertices is None:
                    try:
                        count = int(fields[-1])
                        if count < 0:
                            raise ValueError
                    except ValueError:
                        name = "vertex" if in_vertex else "element"
                        raise InvalidInputError(f"{path} line {n}: bad {name} count") from None
                    if in_vertex:
                        n_vertices = count
                    else:
                        rows_before += count
            elif key == "property" and in_vertex:
                properties.append(fields[-1])
                if properties[:3] != ["x", "y", "z"][:len(properties)]:
                    raise InvalidInputError(f"{path} line {n}: {_xyz_first(properties)}")
            if line == "end_header":
                break
        else:
            raise InvalidInputError(f"{path}: PLY header has no end_header")
        if n_vertices is None:
            raise InvalidInputError(f"{path}: PLY header declares no vertices")
        if len(properties) < 3:
            raise InvalidInputError(f"{path} line {n}: {_xyz_first(properties)}")
        if rows_before + n_vertices > sys.maxsize:      # islice's bound: no file holds more
            raise InvalidInputError(f"{path}: header declares more rows than a file can hold")
        body = itertools.islice(lines, rows_before, rows_before + n_vertices)
        cloud = _read_points(path, body)
    if len(cloud) != n_vertices:
        raise InvalidInputError(f"{path}: header declares {n_vertices} vertices, "
                                f"found {len(cloud)}")
    return cloud


def _xyz_first(properties) -> str:
    return f"vertex properties must begin x y z, got {' '.join(properties) or 'none'}"


def read_xyz(path) -> PointCloud:
    with open(path) as fh:
        return _read_points(path, enumerate(fh, start=1))


def read_cloud(path) -> PointCloud:
    """Dispatch on extension: .ply or plain x-y-z text, which must be UTF-8."""
    try:
        return read_ply(path) if str(path).endswith(".ply") else read_xyz(path)
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: cannot read: {exc}") from None
