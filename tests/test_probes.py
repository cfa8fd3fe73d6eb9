"""The benchmark's probe table against the package it probes.

``perfbench/run.py --trace 1`` wraps every name in ``perfbench/layers.py``
before it runs anything, so renaming or removing one of those functions
breaks traced runs. This test installs the same probes, runs one tiny
training step and one tiny rendered frame, and checks that every probe
resolved and the layers the render and train metrics read were recorded.
"""

import sys
from pathlib import Path

import numpy as np

import plink
from plink import pipeline, sampler, sensor
from plink.config import RunConfig
from plink.field import Ray

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402


def tiny_run():
    """One train step and one rendered frame on a moving two-pose path."""
    config = RunConfig(elevations=[-0.05, 0.05], azimuth_count=6, s_max=4.0, n_bins=4,
                       n_fine=4, hidden_width=8, hidden_layers=1, encoding_levels=2,
                       dir_levels=1, sigma_bias=0.0, batch_rays=5).validate()
    state = pipeline.models_from_config(config)
    _, scale = sensor.to_unit_cube(np.zeros((1, 3)), ([-5.0] * 3, [5.0] * 3))
    rays = [Ray(np.zeros(3), np.array([1.0, 0.0, 0.0]), 4.0, measurements=[2.0]),
            Ray(np.zeros(3), np.array([0.0, 1.0, 0.0]), 4.0, drop_flag=0, ray_id=1)]
    step = sampler.StepConfig(n_bins=4, n_fine=4, lr=1e-3, seed=1)
    sampler.train_step(state, rays, step, scale)
    turn = sensor.matrix_from_quat(np.array([np.cos(0.2), 0.0, 0.0, np.sin(0.2)]))
    path = pipeline.resample_path([sensor.Pose(np.eye(3), np.zeros(3), 0.0),
                                   sensor.Pose(turn, np.array([0.5, 0.0, 0.0]), 0.2)], 2)
    intr = pipeline.intrinsics_from_config(config)
    shape = (intr.n_beams, intr.azimuth_count)
    frame = sensor.ScanFrame(intr, path[0], path[1], np.zeros(shape),
                             np.zeros(shape, dtype=bool))
    return pipeline.render_frame_cloud(state, frame, scale, config, "stochastic")


def test_every_probe_resolves_and_the_layers_are_recorded():
    tracer = spans.Tracer()
    table = layers.probes(plink)
    for probe in table:
        assert callable(getattr(probe.owner, probe.attr, None)), probe.attr
    replaced = layers.replacements(plink, tracer)
    for owner, attr, _ in replaced:
        assert hasattr(owner, attr), attr
    with spans.installed(tracer, table, replaced):
        tiny_run()
    recorded = {span.name for span in tracer.spans}
    for name in ("sampler.train_step", "pipeline.evaluate_ray", "pipeline.render_ray",
                 "sensor.motion_compensate"):
        assert name in recorded, name
    assert all(not span.failed for span in tracer.spans)
    metrics = layers.per_layer_metrics(tracer, 0.0, render=True)
    assert metrics["autodiff.Tensor.nodes_per_step"]["value"] > 0


def test_degenerate_flag_is_a_scalar():
    # The probe on histogram_from_heights counts int(result.degenerate).
    edges = np.linspace(0.0, 4.0, 5)
    for heights in (np.zeros(4), np.arange(1.0, 5.0)):
        flag = sampler.histogram_from_heights(edges, heights).degenerate
        assert np.ndim(flag) == 0
        assert int(flag) == (not heights.any())
