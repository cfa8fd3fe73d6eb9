"""Where the traced run probes ``plink``, and the per-layer metrics it reports.

Each probe wraps the attribute a caller looks up at call time, in the
caller's namespace: ``sampler`` imported ``cdf_from_sigma_values`` by name,
so that probe sits on ``plink.sampler``, while ``pipeline.train`` calls
``sampler.train_step`` through the module, so that one sits on
``plink.sampler`` itself. A function bound under two callers' names gets a
probe in each, under one span name. Spans are named after the module that
defines the function.
"""

from __future__ import annotations

import os

from spans import JOB_SPAN, LayerTotals, Probe, summarize, traced_executor

TENSOR_NODES = "autodiff.Tensor.nodes"
TRAIN_STEP = "sampler.train_step"
RENDER_FRAME = "pipeline.render_frame_cloud"

# Per-layer metrics every traced run prints, with units. The render-only
# metrics below are added for the render workload.
PER_LAYER = {
    # train-pooled: should move rays_per_s and step_ms_*; not simulate.
    "net.backward.fine.self_s": "s",
    "net.backward.coarse.self_s": "s",
    "autodiff.Tensor.nodes_per_step": "count",
    "net.ModelGraph.forward.fine.self_s": "s",
    "net.ModelGraph.forward.coarse.self_s": "s",
    "net.encode.calls": "count",
    "net.encode.rows": "count",
    "net.encode.self_s": "s",
    "net.opt_step.self_s": "s",
    "sampler.train_step.self_s": "s",
    "sampler.importance_sample.calls": "count",
    "sampler.importance_sample.self_s": "s",
    "sampler.ray_rng.calls": "count",
    "sampler.ray_rng.self_s": "s",
    "sampler.histogram_from_heights.calls": "count",
    "sampler.histogram_from_heights.self_s": "s",
    "sampler.histogram_from_heights.degenerate_frac": "ratio",
    "sampler.fine_grid_rows.self_s": "s",
    "field.cdf_from_sigma_values.self_s": "s",
    "losses.step_mismatch_values.self_s": "s",
    "losses.measurement_counts.self_s": "s",
    "losses.bce_values.self_s": "s",
    "losses.hinge_values.self_s": "s",
    "pipeline.train.self_s": "s",
    # simulate: should move rays_per_s there, and setup_s of the others.
    "simscene.SceneSurface.intersect.calls": "count",
    "simscene.SceneSurface.intersect.self_s": "s",
    "simscene.SceneSurface.intersect.hit_frac": "ratio",
    "simscene.sample_return.calls": "count",
    "simscene.sample_return.self_s": "s",
    "simscene.trace_true_cdf.calls": "count",
    "simscene.trace_true_cdf.self_s": "s",
    "simscene.generate_dataset.calls": "count",
    "simscene.generate_dataset.self_s": "s",
    "sensor.motion_compensate.calls": "count",
    "sensor.motion_compensate.self_s": "s",
    "pipeline.write_dataset.self_s": "s",
    "pipeline.write_dataset.bytes": "bytes",
    "pipeline.read_dataset.self_s": "s",
    "pipeline.read_dataset.bytes": "bytes",
    "pipeline.build_rays.self_s": "s",
    "pipeline.ground_truth_cloud.self_s": "s",
    "pipeline.generate_to_disk.self_s": "s",
    "metrics.evaluate.calls": "count",
    "metrics.evaluate.points": "count",
    "metrics.evaluate.self_s": "s",
    # every workload
    "trace.overhead_s": "s",
}

# render: should move rays_per_s once rendering works; not train-pooled.
RENDER_LAYER = {
    "pipeline.render_frame_cloud.calls": "count",
    "pipeline.render_frame_cloud.failed": "count",
    "pipeline.render_frame_cloud.self_s": "s",
    "pipeline.evaluate_ray.calls": "count",
    "pipeline.evaluate_ray.self_s": "s",
    "pipeline.render_ray.calls": "count",
    "pipeline.render_ray.self_s": "s",
    "net.forward.self_s": "s",
    "sampler.histogram_from_coarse.self_s": "s",
    "sampler.quantile_points.self_s": "s",
    "render.pool_busy_frac": "ratio",
}


def _kind(model) -> str:
    return "fine" if model.has_phi_head else "coarse"


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _counter(key, value):
    def observe(tracer, args, result):
        tracer.add(key, value(args, result))
    return observe


def probes(plink):
    """The probe table over the imported ``plink`` package."""
    net, sampler, pipeline = plink.net, plink.sampler, plink.pipeline
    simscene, metrics = plink.simscene, plink.metrics
    return [
        Probe(pipeline, "train", "pipeline.train"),
        Probe(sampler, "train_step", TRAIN_STEP),
        Probe(net, "encode", "net.encode",
              _counter("net.encode.rows", lambda a, r: r.shape[0])),
        Probe(net.ModelGraph, "forward", lambda a: f"net.ModelGraph.forward.{_kind(a[0].model)}"),
        Probe(net, "backward", lambda a: f"net.backward.{_kind(a[0].model)}"),
        Probe(net, "opt_step", "net.opt_step"),
        Probe(net, "forward", "net.forward"),
        Probe(sampler, "histogram_from_heights", "sampler.histogram_from_heights",
              _counter("sampler.histogram_from_heights.degenerate",
                       lambda a, r: int(r.degenerate))),
        Probe(sampler, "fine_grid_rows", "sampler.fine_grid_rows"),
        Probe(sampler, "histogram_from_coarse", "sampler.histogram_from_coarse"),
        Probe(sampler, "quantile_points", "sampler.quantile_points"),
        Probe(pipeline, "generate_to_disk", "pipeline.generate_to_disk"),
        Probe(pipeline, "write_dataset", "pipeline.write_dataset",
              _counter("pipeline.write_dataset.bytes", lambda a, r: _dir_bytes(a[0]))),
        Probe(pipeline, "read_dataset", "pipeline.read_dataset",
              _counter("pipeline.read_dataset.bytes", lambda a, r: _dir_bytes(a[0]))),
        Probe(pipeline, "build_rays", "pipeline.build_rays"),
        Probe(pipeline, "ground_truth_cloud", "pipeline.ground_truth_cloud"),
        Probe(pipeline, "render_frame_cloud", RENDER_FRAME),
        Probe(pipeline, "evaluate_ray", "pipeline.evaluate_ray"),
        Probe(pipeline, "render_ray", "pipeline.render_ray"),
        Probe(simscene, "sample_return", "simscene.sample_return"),
        Probe(simscene, "trace_true_cdf", "simscene.trace_true_cdf"),
        Probe(simscene.SceneSurface, "intersect", "simscene.SceneSurface.intersect",
              _counter("simscene.SceneSurface.intersect.hits", lambda a, r: int(r is not None))),
        Probe(metrics, "evaluate", "metrics.evaluate",
              _counter("metrics.evaluate.points", lambda a, r: len(a[0]) + len(a[1]))),
        Probe(sampler, "ray_rng", "sampler.ray_rng"),
        Probe(sampler, "importance_sample", "sampler.importance_sample"),
        # Imported by name into the caller's namespace: one probe per caller.
        Probe(sampler, "cdf_from_sigma_values", "field.cdf_from_sigma_values"),
        Probe(pipeline, "cdf_from_sigma_values", "field.cdf_from_sigma_values"),
        Probe(sampler, "step_mismatch_values", "losses.step_mismatch_values"),
        Probe(sampler, "measurement_counts", "losses.measurement_counts"),
        Probe(sampler, "bce_values", "losses.bce_values"),
        Probe(sampler, "hinge_values", "losses.hinge_values"),
        Probe(pipeline, "generate_dataset", "simscene.generate_dataset"),
        Probe(simscene, "motion_compensate", "sensor.motion_compensate"),
        Probe(pipeline, "motion_compensate", "sensor.motion_compensate"),
    ]


def replacements(plink, tracer):
    """Non-span instrumentation: the tape node counter and the pool."""
    tensor = plink.autodiff.Tensor
    init = tensor.__init__

    def counting_init(self, *args, **kwargs):
        tracer.add(TENSOR_NODES)
        init(self, *args, **kwargs)

    return [(tensor, "__init__", counting_init),
            (plink.pipeline, "ThreadPoolExecutor", traced_executor(tracer))]


def per_layer_metrics(tracer, overhead_s: float, render: bool = False) -> dict:
    """Every per-layer metric of the table, 0 for a layer the run never called."""
    layers = summarize(tracer.spans)
    counts = tracer.counts

    def layer(name):
        return layers.get(name, LayerTotals())

    def ratio(num, den):
        return num / den if den else 0.0

    table = dict(PER_LAYER, **(RENDER_LAYER if render else {}))
    out = {}
    for metric, unit in table.items():
        prefix, _, quantity = metric.rpartition(".")
        if metric == "trace.overhead_s":
            value = overhead_s
        elif metric == "autodiff.Tensor.nodes_per_step":
            value = ratio(counts[TENSOR_NODES], layer(TRAIN_STEP).calls)
        elif metric == "render.pool_busy_frac":
            frame_wall = layer(RENDER_FRAME).total_s
            slots = ratio(counts["pool.worker_slots"], counts["pool.executors"])
            value = ratio(layer(JOB_SPAN).total_s, frame_wall * slots)
        elif quantity == "hit_frac":
            value = ratio(counts[prefix + ".hits"], layer(prefix).calls)
        elif quantity == "degenerate_frac":
            value = ratio(counts[prefix + ".degenerate"], layer(prefix).calls)
        elif quantity in ("self_s", "calls", "failed"):
            value = getattr(layer(prefix), quantity)
        else:
            value = counts[metric]
        out[metric] = {"value": value, "unit": unit}
    return out
