"""Command-line pipeline driver.

Subcommands: gen, train, render, baseline, eval, compare. Flags override
config-file values. All outputs are deterministic given the seed.

Outputs, in ``--out``:

* gen: ``poses.csv`` (the path's poses, one more than frames) and
  ``scans.bin``, one binary record of the sensor and every frame's ranges
  (`plink.sensor`). The files of the layout before it (``intrinsics.txt``
  and per-frame ``scan_NNNN.bin`` or ``.csv``) are removed; train reads
  no dataset written in that layout, which must be regenerated.
* train: ``model.ckpt`` and ``model_loss_curve.csv`` (a header, then one
  row per finished epoch: ``epoch,l_c,l_drop,l_coarse,l_fine``);
  ``model_epoch_NNNN.ckpt`` every ``checkpoint_every`` epochs; on a
  divergence, ``model_diverged.ckpt`` and the rows of the finished epochs.
* baseline: the same files with the stem ``baseline``.
* render: ``cloud_NNNN.ply`` per pose pair in ``render_mode``; ``--mode
  weighted-depth`` renders a baseline checkpoint.
* compare: ``data/`` and ``testdata/`` (the training and ground-truth
  datasets), the files of train and of baseline, written by the same code,
  then ``gt_NNNN.ply`` per test frame, render's clouds of the model in
  ``render_mode`` and of the baseline in ``weighted-depth`` (stems
  ``model`` and ``baseline``), and ``report.csv``. A divergence stops it
  before any cloud or the report. eval and compare score alike: each empty
  cloud gets a warning, and a pair with one gets NaN metrics.

Exit codes:

* 0: success.
* 2: invalid configuration or a malformed input file (config, scene,
  scan record, pose, cloud or checkpoint), with a message naming the
  file and, in a line-based file, the line; also any other `PlinkError`
  and an OS error on a file; also a `MemoryError`, as ``error: not enough
  memory: <message>``, since input sizes past what the machine holds are
  bad input too. gen's message names the config file or flags and the
  size keys behind the allocation.
* 3: training divergence.
* 1, with a traceback: an internal error. `main` catches only the errors
  above, so any other exception propagates out of it.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from . import metrics, net as nets, pipeline, sampler
from .config import WEIGHTED_DEPTH, RunConfig, apply_overrides, load_config
from .errors import ConfigError, DivergenceError, PlinkError
from .sensor import ScanFrame, read_poses
from .simscene import load_scene

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plink",
        description="probabilistic LiDAR field pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", dest="out_dir")
        return p

    p = command("gen", "simulate a scan dataset from a scene")
    p.add_argument("--scene", help="scene description file")
    p.add_argument("--path", help="pose path file")
    p.add_argument("--frames", dest="n_frames", type=int)

    for name, help_text in (("train", "train the probabilistic model"),
                            ("baseline", "train the deterministic-depth baseline")):
        p = command(name, help_text)
        p.add_argument("--data", dest="data_dir")
        p.add_argument("--scene")
        p.add_argument("--epochs", type=int)
        p.add_argument("--lr", type=float)

    p = command("render", "render point clouds from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--poses", required=True, help="pose file, one cloud per frame")
    p.add_argument("--scene")
    p.add_argument("--mode", dest="render_mode")
    p.add_argument("--level", dest="confidence_level", type=float)
    p.add_argument("--draws", dest="render_draws", type=int)

    p = command("eval", "compare a synthetic cloud against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--synth", required=True)
    p.add_argument("--threshold", dest="threshold_cm", type=float)

    p = command("compare", "train + baseline + render + eval, side by side")
    p.add_argument("--scene")
    p.add_argument("--path")
    p.add_argument("--epochs", type=int)

    return parser


def resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config", "checkpoint", "poses", "gt", "synth")}
    return apply_overrides(config, overrides).validate()


def _require(value, name: str):
    if not value:
        raise ConfigError(f"{name} must be set (flag or config key)")
    return value


def cmd_gen(args) -> int:
    config = resolve_config(args)
    scene = _require(config.scene, "scene")
    path = _require(config.path, "path")
    try:
        frames = pipeline.generate_to_disk(scene, path, config.out_dir, config)
    except MemoryError as exc:
        sources = [args.config] if args.config else []
        if args.n_frames is not None:
            sources.append("--frames")
        source = " and ".join(sources) or "the defaults"
        raise MemoryError(f"{source}: the scan sizes elevations ({len(config.elevations)} "
                          f"beams), azimuth_count = {config.azimuth_count} and n_frames = "
                          f"{config.n_frames}: {exc}") from None
    n_rays = frames[0].intrinsics.n_beams * frames[0].intrinsics.azimuth_count
    print(f"wrote {len(frames)} frames x {n_rays} rays to {config.out_dir}")
    return EXIT_OK


def _run_training(args, depth_l2: bool, stem: str) -> int:
    config = resolve_config(args)
    scene = load_scene(_require(config.scene, "scene"))
    frames = pipeline.read_dataset(_require(config.data_dir, "data_dir"))
    _train_into(config, pipeline.train_set_from_frames(frames, scene), stem, depth_l2)
    print(f"checkpoint: {os.path.join(config.out_dir, stem + '.ckpt')}")
    print(f"loss curve: {os.path.join(config.out_dir, stem + '_loss_curve.csv')}")
    return EXIT_OK


def _train_into(config: RunConfig, train_set, stem: str, depth_l2: bool):
    """Train one model into ``config.out_dir`` and return its state.

    The loss curve gains a flushed row per finished epoch, so a diverged or
    killed run keeps them. A divergence leaves ``<stem>_diverged.ckpt`` and
    goes on to ``main``.
    """
    def out(suffix):
        return os.path.join(config.out_dir, stem + suffix)

    os.makedirs(config.out_dir, exist_ok=True)
    state = pipeline.models_from_config(config)
    with open(out("_loss_curve.csv"), "w") as curve:
        curve.write("epoch,l_c,l_drop,l_coarse,l_fine\n")
        curve.flush()

        def on_epoch(epoch, losses):
            curve.write(",".join([str(epoch)] + [repr(float(v)) for v in losses]) + "\n")
            curve.flush()
            if (epoch + 1) % config.checkpoint_every == 0:
                nets.save_checkpoint(out(f"_epoch_{epoch + 1:04d}.ckpt"), state.coarse, state.fine)

        try:
            pipeline.train(train_set, config, depth_l2, on_epoch, state=state)
        except DivergenceError:
            nets.save_checkpoint(out("_diverged.ckpt"), state.coarse, state.fine)
            raise
    nets.save_checkpoint(out(".ckpt"), state.coarse, state.fine)
    return state


def cmd_render(args) -> int:
    config = resolve_config(args)
    scene = load_scene(_require(config.scene, "scene"))
    coarse, fine = nets.load_checkpoint(args.checkpoint)
    poses = read_poses(args.poses)
    intr = pipeline.intrinsics_from_config(config)
    scale = pipeline.to_unit_cube(scene.bounds)
    grid_shape = (intr.n_beams, intr.azimuth_count)
    frames = [ScanFrame(intr, start, end, np.zeros(grid_shape), np.zeros(grid_shape, dtype=bool))
              for start, end in zip(poses, poses[1:])]
    pipeline.check_frames_in_bounds(frames, scale)  # before any cloud is written
    _render_into(sampler.TrainState.fresh(coarse, fine), frames, scale, config,
                 config.render_mode, "cloud")
    return EXIT_OK


def _render_into(state, frames, scale, config: RunConfig, mode: str, stem: str) -> list:
    """Render each frame in ``mode`` to ``<stem>_NNNN.ply`` in ``config.out_dir``,
    print its point count and return the clouds."""
    os.makedirs(config.out_dir, exist_ok=True)
    clouds = []
    for i, frame in enumerate(frames):
        cloud = pipeline.render_frame_cloud(state, frame, scale, config, mode, frame_index=i)
        path = os.path.join(config.out_dir, f"{stem}_{i:04d}.ply")
        metrics.write_ply(path, cloud)
        print(f"{path}: {len(cloud)} points")
        clouds.append(cloud)
    return clouds


def cmd_eval(args) -> int:
    config = resolve_config(args)
    gt, synth = metrics.read_cloud(args.gt), metrics.read_cloud(args.synth)
    (row,) = _metrics_rows(config, (args.gt, gt), [(args.synth, synth)])
    _print_reports([("synth", row)])
    return EXIT_OK


def _metrics_rows(config: RunConfig, named_gt, named_synths) -> list:
    """The metric row of each ``(name, cloud)`` in ``named_synths`` against
    ``named_gt``'s cloud. An under-trained model can render nothing; that is
    a result, not an error: each empty cloud gets one warning, and a pair
    with one gets NaN metrics at ``threshold_cm``."""
    gt = named_gt[1]
    for name, cloud in [named_gt] + named_synths:
        if not len(cloud):
            print(f"warning: {name} has no points; the metrics are NaN", file=sys.stderr)
    return [metrics.evaluate(gt, synth, config.threshold_cm).as_row() if len(gt) and len(synth)
            else [np.nan] * 4 + [config.threshold_cm] for _, synth in named_synths]


def _print_reports(named_rows) -> None:
    """Print (name, MetricsReport.as_row()) pairs as a table."""
    header = f"{'method':<14}{'completion':>12}{'accuracy':>12}{'chamfer-l1':>12}{'f-score':>10}"
    print(header)
    for name, (completion, accuracy, chamfer, f_score, _) in named_rows:
        print(f"{name:<14}{completion:>12.3f}{accuracy:>12.3f}{chamfer:>12.3f}{f_score:>10.2f}")


def cmd_compare(args) -> int:
    config = resolve_config(args)
    scene_path = _require(config.scene, "scene")
    path_path = _require(config.path, "path")
    scene = load_scene(scene_path)
    out = config.out_dir

    # Training data, then a fresh stochastic realization as ground truth.
    train_dir = os.path.join(out, "data")
    pipeline.generate_to_disk(scene_path, path_path, train_dir, config)
    test_config = replace(config, seed=config.seed + 1000)
    test_dir = os.path.join(out, "testdata")
    pipeline.generate_to_disk(scene_path, path_path, test_dir, test_config)

    frames = pipeline.read_dataset(train_dir)
    train_set = pipeline.train_set_from_frames(frames, scene)

    states = {name: _train_into(config, train_set, name, depth_l2)
              for name, depth_l2 in (("model", False), ("baseline", True))}

    test_frames = pipeline.read_dataset(test_dir)
    gt = [pipeline.ground_truth_cloud(frame) for frame in test_frames]
    for i, cloud in enumerate(gt):
        metrics.write_ply(os.path.join(out, f"gt_{i:04d}.ply"), cloud)
    clouds = {name: _render_into(states[name], test_frames, train_set.scale, config, mode, name)
              for name, mode in (("model", config.render_mode),
                                 ("baseline", WEIGHTED_DEPTH))}

    def merged(frame_clouds):
        return metrics.PointCloud(np.concatenate([c.points for c in frame_clouds]))

    aggregate = _metrics_rows(config, ("gt", merged(gt)),
                              [(name, merged(c)) for name, c in clouds.items()])
    report_path = os.path.join(out, "report.csv")
    with open(report_path, "w") as fh:
        fh.write("method,scope,completion_cm,accuracy_cm,chamfer_l1_cm,f_score_pct,threshold_cm\n")
        for (name, frame_clouds), aggregate_row in zip(clouds.items(), aggregate):
            # The mean over the frames whose two clouds both have points.
            per_scan = [metrics.evaluate(g, c, config.threshold_cm).as_row()
                        for g, c in zip(gt, frame_clouds) if len(g) and len(c)]
            mean_row = (np.mean(per_scan, axis=0) if per_scan
                        else [np.nan] * 4 + [config.threshold_cm])
            for scope, row in (("aggregate", aggregate_row), ("per_scan_mean", mean_row)):
                fh.write(",".join([name, scope] + [repr(float(v)) for v in row]) + "\n")
    _print_reports(zip(clouds, aggregate))
    print(f"report: {report_path}")
    return EXIT_OK


COMMANDS = {
    "gen": cmd_gen,
    "train": partial(_run_training, depth_l2=False, stem="model"),
    "baseline": partial(_run_training, depth_l2=True, stem="baseline"),
    "render": cmd_render,
    "eval": cmd_eval,
    "compare": cmd_compare,
}


def _pin_allocator() -> None:
    """Fix glibc's heap trim and mmap thresholds; without ``mallopt``, do nothing.

    By default glibc trims the heap once a train step frees its graphs, and
    the next step faults the same pages back in. Fixed thresholds keep
    arrays up to 32 MiB on a heap that is trimmed only past 1 GiB free.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):    # no mallopt, or no C library handle
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-1, 1 << 30)        # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _pin_allocator()
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (PlinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
