"""Cloud metrics: the exact nearest-neighbor scan against scipy's k-d tree,
bit for bit, across block edges, coincident points, 1-point clouds and far
offsets; PLY round trips and vertex property names."""

import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from plink import metrics
from plink.errors import InvalidInputError


def tree_nn(queries, targets):
    """Nearest-target distance of every query by scipy's k-d tree."""
    return cKDTree(targets).query(queries, k=1)[0]


@pytest.mark.parametrize("seed, n_gt, n_synth, threshold_cm", [
    (0, 200, 150, 20.0), (1, 57, 300, 5.0), (2, 1, 40, 50.0), (3, 120, 1, 1.0),
    pytest.param(4, 3, metrics.SCAN_PAIRS + 1, 2.0, id="one-row-blocks"),
    pytest.param(5, 2 * (metrics.SCAN_PAIRS // 1000) + 5, 1000, 10.0, id="short-last-block"),
    pytest.param(6, 1, 1, 1.0, id="one-point-each"),
])
def test_kd_tree_matches_brute_force(seed, n_gt, n_synth, threshold_cm):
    rng = np.random.default_rng(seed)
    gt = rng.uniform(-2.0, 2.0, size=(n_gt, 3))
    noise = rng.normal(0.0, 0.1, size=(n_synth, 3))
    noise[::2] = 0.0                                # coincident points
    synth = gt[rng.integers(0, n_gt, n_synth)] + noise
    for offset_m in (0.0, 1e6):
        g, s = gt + offset_m, synth + offset_m
        to_synth, to_gt = metrics._nn_distances(metrics.PointCloud(g), metrics.PointCloud(s))
        want_to_synth, want_to_gt = tree_nn(g, s), tree_nn(s, g)
        assert np.array_equal(to_synth, want_to_synth)
        assert np.array_equal(to_gt, want_to_gt)
        assert to_gt[0] == 0.0
        report = metrics.evaluate(metrics.PointCloud(g), metrics.PointCloud(s), threshold_cm)
        assert report.completion_cm == float(np.mean(want_to_synth)) * 100.0
        assert report.accuracy_cm == float(np.mean(want_to_gt)) * 100.0
        precision = float(np.mean(want_to_gt <= threshold_cm / 100.0)) * 100.0
        recall = float(np.mean(want_to_synth <= threshold_cm / 100.0)) * 100.0
        assert report.f_score_pct == 2.0 * precision * recall / (precision + recall)
        assert report.threshold_cm == threshold_cm


def test_clouds_too_far_apart_to_square_are_inf_apart_without_a_warning():
    gt, synth = np.array([[1e200, 0.0, 0.0]]), np.zeros((1, 3))
    assert np.array_equal(tree_nn(gt, synth), [np.inf])
    assert np.array_equal(tree_nn(synth, gt), [np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        to_synth, to_gt = metrics._nn_distances(metrics.PointCloud(gt), metrics.PointCloud(synth))
    assert np.array_equal(to_synth, [np.inf]) and np.array_equal(to_gt, [np.inf])


def test_identical_clouds_score_perfectly():
    points = np.random.default_rng(4).normal(size=(30, 3))
    cloud = metrics.PointCloud(points)
    report = metrics.evaluate(cloud, cloud, 1.0)
    assert report.as_row() == [0.0, 0.0, 0.0, 100.0, 1.0]


def test_empty_cloud_rejected():
    with pytest.raises(InvalidInputError):
        metrics.evaluate(metrics.PointCloud(np.empty((0, 3))),
                         metrics.PointCloud(np.ones((2, 3))), 20.0)


def line_by_line_ply(path, points):
    """The PLY writer as it was: one write per header line and per vertex."""
    with open(path, "w") as fh:
        fh.write("ply\n")
        fh.write("format ascii 1.0\n")
        fh.write(f"element vertex {len(points)}\n")
        for axis in "xyz":
            fh.write(f"property float {axis}\n")
        fh.write("end_header\n")
        for x, y, z in points:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")


@pytest.mark.parametrize("points", [
    np.empty((0, 3)),
    np.array([[5e-324, -0.0, 1e16], [-1e16, 0.0, -5e-324], [0.1, 1.0 / 3.0, 12.5]]),
], ids=["empty", "extremes"])
def test_write_ply_writes_the_line_by_line_bytes(tmp_path, points):
    metrics.write_ply(tmp_path / "got.ply", metrics.PointCloud(points))
    line_by_line_ply(tmp_path / "want.ply", points)
    assert (tmp_path / "got.ply").read_bytes() == (tmp_path / "want.ply").read_bytes()
    np.testing.assert_array_equal(metrics.read_ply(tmp_path / "got.ply").points, points)


def test_read_ply_reads_only_the_vertex_element_properties(tmp_path):
    path = tmp_path / "mesh.ply"
    path.write_text("ply\nformat ascii 1.0\nelement face 0\n"
                    "property list uchar int vertex_indices\nelement vertex 2\n"
                    "property float x\nproperty float y\nproperty float z\n"
                    "property float intensity\nelement edge 0\nproperty int vertex1\n"
                    "end_header\n1 2 3 0.5\n4 5 6 0.25\n")
    np.testing.assert_array_equal(metrics.read_ply(path).points, [[1, 2, 3], [4, 5, 6]])


def test_read_ply_skips_the_rows_of_elements_before_the_vertex_element(tmp_path):
    path = tmp_path / "face_first.ply"
    path.write_text("ply\nformat ascii 1.0\nelement face 1\n"
                    "property list uchar int vertex_indices\nelement vertex 1\n"
                    "property float x\nproperty float y\nproperty float z\n"
                    "end_header\n3 0 1 2\n7 8 9\n")
    np.testing.assert_array_equal(metrics.read_ply(path).points, [[7, 8, 9]])
