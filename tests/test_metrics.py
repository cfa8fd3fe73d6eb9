"""Cloud metrics: the k-d tree distances against a brute-force O(N*M) scan."""

import numpy as np
import pytest

from plink import metrics
from plink.errors import InvalidInputError


def brute_nn(queries, targets):
    """Nearest-target distance of every query by the full distance matrix."""
    diff = queries[:, None, :] - targets[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1)).min(axis=1)


def brute_report(gt, synth, threshold_cm):
    to_synth = brute_nn(gt, synth)
    to_gt = brute_nn(synth, gt)
    threshold_m = threshold_cm / 100.0
    precision = np.mean(to_gt <= threshold_m) * 100.0
    recall = np.mean(to_synth <= threshold_m) * 100.0
    f = 0.0 if precision + recall == 0.0 else 2 * precision * recall / (precision + recall)
    return to_synth.mean() * 100.0, to_gt.mean() * 100.0, f


@pytest.mark.parametrize("seed, n_gt, n_synth, threshold_cm", [
    (0, 200, 150, 20.0), (1, 57, 300, 5.0), (2, 1, 40, 50.0), (3, 120, 1, 1.0)])
def test_kd_tree_matches_brute_force(seed, n_gt, n_synth, threshold_cm):
    rng = np.random.default_rng(seed)
    gt = rng.uniform(-2.0, 2.0, size=(n_gt, 3))
    synth = gt[rng.integers(0, n_gt, n_synth)] + rng.normal(0.0, 0.1, size=(n_synth, 3))
    report = metrics.evaluate(metrics.PointCloud(gt), metrics.PointCloud(synth), threshold_cm)
    completion, accuracy, f_score = brute_report(gt, synth, threshold_cm)
    assert report.completion_cm == pytest.approx(completion, rel=1e-12)
    assert report.accuracy_cm == pytest.approx(accuracy, rel=1e-12)
    assert report.chamfer_l1_cm == pytest.approx(0.5 * (completion + accuracy), rel=1e-12)
    assert report.f_score_pct == pytest.approx(f_score, rel=1e-12)
    assert report.threshold_cm == threshold_cm


def test_identical_clouds_score_perfectly():
    points = np.random.default_rng(4).normal(size=(30, 3))
    cloud = metrics.PointCloud(points)
    report = metrics.evaluate(cloud, cloud, 1.0)
    assert report.as_row() == [0.0, 0.0, 0.0, 100.0, 1.0]


def test_empty_cloud_rejected():
    with pytest.raises(InvalidInputError):
        metrics.evaluate(metrics.PointCloud(np.empty((0, 3))),
                         metrics.PointCloud(np.ones((2, 3))))
