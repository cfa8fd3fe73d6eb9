"""The benchmark's probe table against the package it probes.

``perfbench/run.py --trace 1`` wraps every name in ``perfbench/layers.py``
before it runs anything, so renaming or removing one of those functions
breaks traced runs. This test installs the same probes, runs one tiny
training epoch and one tiny rendered frame, and checks that every probe
resolved and the layers the render and train metrics read were recorded.
perfbench counts the rays of a step as ``len()`` of the batch that
``sampler.train_step`` receives, so that must be the batch, not the set.
"""

import sys
import threading
from pathlib import Path

import numpy as np

import plink
import plink.autodiff  # noqa: F401  perfbench's replacements patch its Tensor
from plink import pipeline, sampler, sensor
from plink.config import RunConfig
from plink.field import RaySet

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402


def tiny_run(monkeypatch):
    """One training epoch and one rendered frame on a moving two-pose path.

    Returns the cloud and the ``len()`` of each batch ``train_step`` saw."""
    config = RunConfig(elevations=[-0.05, 0.05], azimuth_count=6, s_max=4.0, n_bins=4,
                       n_fine=4, hidden_width=8, hidden_layers=1, encoding_levels=2,
                       dir_levels=1, sigma_bias=0.0, batch_rays=5, epochs=1).validate()
    state = pipeline.models_from_config(config)
    scale = sensor.to_unit_cube(([-5.0] * 3, [5.0] * 3))
    dirs = np.random.default_rng(0).normal(size=(7, 3))
    ranges = np.full((7, 2), np.inf)
    ranges[:4, 0], ranges[1, 1] = [2.0, 1.0, 3.5, 0.5], 3.0
    rays = RaySet(np.zeros((7, 3)), dirs / np.linalg.norm(dirs, axis=1, keepdims=True),
                  ranges, 4.0)
    sizes, step = [], sampler.train_step

    def counted(state_, batch, *args, **kwargs):
        sizes.append(len(batch))
        return step(state_, batch, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(sampler, "train_step", counted)
        pipeline.train(pipeline.TrainSet(rays, scale), config, state=state)
    turn = np.array([np.cos(0.2), 0.0, 0.0, np.sin(0.2)])
    path = pipeline.resample_path([sensor.Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3), 0.0),
                                   sensor.Pose(turn, np.array([0.5, 0.0, 0.0]), 0.2)], 2)
    intr = pipeline.intrinsics_from_config(config)
    shape = (intr.n_beams, intr.azimuth_count)
    frame = sensor.ScanFrame(intr, path[0], path[1], np.zeros(shape),
                             np.zeros(shape, dtype=bool))
    return pipeline.render_frame_cloud(state, frame, scale, config, "stochastic"), sizes


def test_every_probe_resolves_and_the_layers_are_recorded(monkeypatch):
    tracer = spans.Tracer()
    table = layers.probes(plink)
    for probe in table:
        assert callable(getattr(probe.owner, probe.attr, None)), probe.attr
    replaced = layers.replacements(plink, tracer)
    for owner, attr, _ in replaced:
        assert hasattr(owner, attr), attr
    with spans.installed(tracer, table, replaced):
        _, sizes = tiny_run(monkeypatch)
    assert sizes == [5, 2]      # min(batch_rays, R) and the remainder
    # Every span, and the time perfbench gives each layer, is the caller's.
    assert {span.thread for span in tracer.spans} == {threading.get_ident()}
    recorded = {span.name for span in tracer.spans}
    for name in ("sampler.train_step", "pipeline.evaluate_ray", "pipeline.render_ray",
                 "sensor.motion_compensate"):
        assert name in recorded, name
    assert all(not span.failed for span in tracer.spans)
    metrics = layers.per_layer_metrics(tracer, 0.0, render=True)
    # The loss head's backward is written out: training builds no tape node.
    assert metrics["autodiff.Tensor.nodes_per_step"]["value"] == 0


def test_degenerate_flag_is_a_scalar():
    # The probe on histogram_from_heights counts int(result.degenerate).
    edges = np.linspace(0.0, 4.0, 5)
    for heights in (np.zeros(4), np.arange(1.0, 5.0)):
        flag = sampler.histogram_from_heights(edges, heights).degenerate
        assert np.ndim(flag) == 0
        assert int(flag) == (not heights.any())
    batch = np.stack([np.arange(1.0, 5.0), np.zeros(4), np.ones(4)])
    count = sampler.histogram_from_heights(edges, batch).degenerate
    assert np.ndim(count) == 0 and int(count) == 1
