"""Command-line pipeline driver.

Subcommands: gen, train, render, baseline, eval, compare. Flags override
config-file values; the PLINK_SEED environment variable overrides the seed
last. All outputs are deterministic given the seed.

Exit codes:

* 0: success.
* 2: invalid configuration or a malformed input file (config, scene,
  intrinsics, scan, pose, cloud or checkpoint), with a message naming the
  file and, in a line-based file, the line; also any other `PlinkError`
  and an OS error on a file.
* 3: training divergence.
* 1, with a traceback: an internal error. `main` catches only the errors
  above, so any other exception propagates out of it.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from . import metrics, net as nets, pipeline, sampler
from .config import RunConfig, apply_overrides, load_config
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
    p.add_argument("--baseline-depth", action="store_true",
                   help="composited weighted depth instead of distribution modes")

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
                 if k not in ("command", "config", "checkpoint", "poses", "gt",
                              "synth", "baseline_depth")}
    return apply_overrides(config, overrides).validate()


def _require(value, name: str):
    if not value:
        raise ConfigError(f"{name} must be set (flag or config key)")
    return value


def cmd_gen(args) -> int:
    config = resolve_config(args)
    scene = _require(config.scene, "scene")
    path = _require(config.path, "path")
    frames = pipeline.generate_to_disk(scene, path, config.out_dir, config)
    n_rays = frames[0].intrinsics.n_beams * frames[0].intrinsics.azimuth_count
    print(f"wrote {len(frames)} frames x {n_rays} rays to {config.out_dir}")
    return EXIT_OK


def _run_training(args, depth_l2: bool, stem: str) -> int:
    config = resolve_config(args)
    scene = load_scene(_require(config.scene, "scene"))
    frames = pipeline.read_dataset(_require(config.data_dir, "data_dir"))
    train_set = pipeline.train_set_from_frames(frames, scene)
    os.makedirs(config.out_dir, exist_ok=True)
    curve_path = os.path.join(config.out_dir, f"{stem}_loss_curve.csv")
    ckpt_path = os.path.join(config.out_dir, f"{stem}.ckpt")

    state = pipeline.models_from_config(config)

    # The curve gains a row per finished epoch, so a diverged or killed run keeps them.
    with open(curve_path, "w") as curve:
        curve.write(HISTORY_HEADER)
        curve.flush()

        def on_epoch(epoch, row):
            curve.write(_history_line(epoch, row))
            curve.flush()
            if (epoch + 1) % config.checkpoint_every == 0:
                nets.save_checkpoint(
                    os.path.join(config.out_dir, f"{stem}_epoch_{epoch + 1:04d}.ckpt"),
                    state.coarse, state.fine)

        try:
            state, _ = pipeline.train(train_set, config, depth_l2, on_epoch, state=state)
        except DivergenceError as exc:
            print(f"training diverged: {exc}", file=sys.stderr)
            nets.save_checkpoint(os.path.join(config.out_dir, f"{stem}_diverged.ckpt"),
                                 state.coarse, state.fine)
            return EXIT_DIVERGED

    nets.save_checkpoint(ckpt_path, state.coarse, state.fine)
    print(f"checkpoint: {ckpt_path}")
    print(f"loss curve: {curve_path}")
    return EXIT_OK


def cmd_render(args) -> int:
    config = resolve_config(args)
    scene = load_scene(_require(config.scene, "scene"))
    coarse, fine = nets.load_checkpoint(args.checkpoint)
    state = sampler.TrainState.fresh(coarse, fine)
    poses = read_poses(args.poses)
    if len(poses) < 2:
        raise ConfigError("pose file needs at least two poses (frame boundaries)")
    intr = pipeline.intrinsics_from_config(config)
    scale = pipeline.to_unit_cube(scene.bounds)
    grid_shape = (intr.n_beams, intr.azimuth_count)
    frames = [ScanFrame(intr, start, end, np.zeros(grid_shape), np.zeros(grid_shape, dtype=bool))
              for start, end in zip(poses, poses[1:])]
    pipeline.check_frames_in_bounds(frames, scale)  # before any cloud is written
    os.makedirs(config.out_dir, exist_ok=True)
    for i, frame in enumerate(frames):
        mode = pipeline.WEIGHTED_DEPTH if args.baseline_depth else config.render_mode
        cloud = pipeline.render_frame_cloud(state, frame, scale, config, mode, frame_index=i)
        out = os.path.join(config.out_dir, f"cloud_{i:04d}.ply")
        metrics.write_ply(out, cloud)
        print(f"{out}: {len(cloud)} points")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = resolve_config(args)
    gt = metrics.read_cloud(args.gt)
    synth = metrics.read_cloud(args.synth)
    empty = [path for path, cloud in ((args.gt, gt), (args.synth, synth)) if not len(cloud)]
    if empty:
        # An under-trained model can render nothing; that is a result, not an error.
        for path in empty:
            print(f"warning: {path} has no points; the metrics are NaN", file=sys.stderr)
        row = _no_metrics(config)
    else:
        row = metrics.evaluate(gt, synth, config.threshold_cm).as_row()
    _print_reports([("synth", row)])
    return EXIT_OK


def _no_metrics(config: RunConfig) -> list:
    """The metric row of a pair with an empty cloud: NaN at the configured threshold."""
    return [np.nan] * 4 + [config.threshold_cm]


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
    os.makedirs(out, exist_ok=True)

    # Training data, then a fresh stochastic realization as ground truth.
    train_dir = os.path.join(out, "data")
    pipeline.generate_to_disk(scene_path, path_path, train_dir, config)
    test_config = replace(config, seed=config.seed + 1000, out_dir=out)
    test_dir = os.path.join(out, "testdata")
    pipeline.generate_to_disk(scene_path, path_path, test_dir, test_config)

    frames = pipeline.read_dataset(train_dir)
    train_set = pipeline.train_set_from_frames(frames, scene)

    states = {}
    for name, depth_l2 in (("model", False), ("baseline", True)):
        state, history = pipeline.train(train_set, config, depth_l2=depth_l2)
        _write_history(os.path.join(out, f"{name}_loss_curve.csv"), history)
        nets.save_checkpoint(os.path.join(out, f"{name}.ckpt"), state.coarse, state.fine)
        states[name] = state

    clouds = {"gt": [], "model": [], "baseline": []}
    for i, frame in enumerate(pipeline.read_dataset(test_dir)):
        clouds["gt"].append(pipeline.ground_truth_cloud(frame))
        for name in ("model", "baseline"):
            mode = pipeline.WEIGHTED_DEPTH if name == "baseline" else "stochastic"
            clouds[name].append(pipeline.render_frame_cloud(
                states[name], frame, train_set.scale, config, mode, frame_index=i))
        for name, frame_clouds in clouds.items():
            metrics.write_ply(os.path.join(out, f"{name}_{i:04d}.ply"), frame_clouds[-1])

    rows = []
    named = []
    gt_clouds = clouds["gt"]
    gt_merged = metrics.PointCloud(np.concatenate([c.points for c in gt_clouds]))
    no_metrics = _no_metrics(config)
    for name in ("model", "baseline"):
        if not any(len(c) for c in clouds[name]):
            # An under-trained model can render nothing; that is a result, not an error.
            print(f"warning: {name} rendered no points; its metrics are NaN", file=sys.stderr)
            aggregate_row = mean_row = no_metrics
        else:
            merged = metrics.PointCloud(np.concatenate([c.points for c in clouds[name]]))
            aggregate_row = metrics.evaluate(gt_merged, merged, config.threshold_cm).as_row()
            per_scan = [metrics.evaluate(g, c, config.threshold_cm).as_row()
                        for g, c in zip(gt_clouds, clouds[name]) if len(g) and len(c)]
            mean_row = np.mean(per_scan, axis=0) if per_scan else no_metrics
        rows.append([name, "aggregate"] + [repr(float(v)) for v in aggregate_row])
        rows.append([name, "per_scan_mean"] + [repr(float(v)) for v in mean_row])
        named.append((name, aggregate_row))

    report_path = os.path.join(out, "report.csv")
    with open(report_path, "w") as fh:
        fh.write("method,scope,completion_cm,accuracy_cm,chamfer_l1_cm,f_score_pct,threshold_cm\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    _print_reports(named)
    print(f"report: {report_path}")
    return EXIT_OK


HISTORY_HEADER = "epoch,l_c,l_drop,l_coarse,l_fine\n"


def _history_line(epoch, losses) -> str:
    """One loss-curve row: the epoch and its four mean loss terms."""
    return ",".join([str(int(epoch))] + [repr(float(v)) for v in losses]) + "\n"


def _write_history(path, history) -> None:
    with open(path, "w") as fh:
        fh.write(HISTORY_HEADER)
        for row in history:
            fh.write(_history_line(row[0], row[1:]))


COMMANDS = {
    "gen": cmd_gen,
    "train": partial(_run_training, depth_l2=False, stem="model"),
    "baseline": partial(_run_training, depth_l2=True, stem="baseline"),
    "render": cmd_render,
    "eval": cmd_eval,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
