"""Dataset assembly, the epoch loop, and novel-view rendering.

Ray grouping rule: measurements aggregate per exact emitted-ray identity.
For a static-path dataset every frame repeats the same rays, so samples
pool across frames per (beam, azimuth); for a moving path each
(frame, beam, azimuth) is its own ray with at most one measurement.

Rendering runs the march that training runs (``sampler.march``), on plain
arrays: a frame's rays go through it in chunks of ``batch_rays``, and
each ray's ranges are then picked from its cumulative trace.
"""

from __future__ import annotations

import os
# ThreadPoolExecutor is not used here; perfbench/layers.py replaces this name.
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import net as nets
from . import sampler
from .config import RunConfig
from .errors import InvalidInputError
# cdf_from_sigma_values is not called here; perfbench/layers.py probes this name.
from .field import (CdfTrace, Ray, SampleGrid, cdf_from_sigma_values, bin_masses,
                    inverse_transform_sample, is_drop, render_confidence)
from .losses import LossBreakdown
from .metrics import PointCloud
# motion_compensate is not called here; perfbench/layers.py probes this name.
from .sensor import (Pose, ScanFrame, SensorIntrinsics, UnitCubeScale,
                     motion_compensate, ray_directions, read_poses, read_scan,
                     to_unit_cube, write_poses, write_scan)
from .simscene import SceneSpec, generate_dataset, load_scene


@dataclass
class TrainSet:
    """Grouped rays plus the world-to-unit-cube transform they live in."""

    rays: list
    scale: UnitCubeScale
    s_max: float


def frames_static(frames: list) -> bool:
    first = frames[0]
    return all(
        np.array_equal(f.start_pose.rotation, first.start_pose.rotation)
        and np.array_equal(f.start_pose.translation, first.start_pose.translation)
        and np.array_equal(f.end_pose.rotation, first.end_pose.rotation)
        and np.array_equal(f.end_pose.translation, first.end_pose.translation)
        for f in frames
    )


def _frame_rays(frame: ScanFrame) -> tuple:
    """(N, 3) world origins and directions of a frame's rays, beam-major."""
    origins, dirs = ray_directions(frame.intrinsics, frame)
    return origins.reshape(-1, 3), dirs.reshape(-1, 3)


def build_rays(frames: list) -> list:
    """Group frame measurements into training rays (see module docstring)."""
    if not frames:
        raise InvalidInputError("need at least one frame")
    s_max = frames[0].intrinsics.s_max
    if frames_static(frames):
        origins, dirs = _frame_rays(frames[0])
        ranges = np.stack([f.ranges.reshape(-1) for f in frames])
        returned = np.stack([f.returned.reshape(-1) for f in frames])
        return [Ray(origin=o, direction=d, s_max=s_max,
                    measurements=np.sort(ranges[returned[:, i], i]),
                    drop_flag=int(returned[:, i].any()), ray_id=i)
                for i, (o, d) in enumerate(zip(origins, dirs))]
    rays = []
    for frame in frames:
        origins, dirs = _frame_rays(frame)
        ranges, returned = frame.ranges.reshape(-1), frame.returned.reshape(-1)
        rays += [Ray(origin=o, direction=d, s_max=s_max,
                     measurements=np.array([ranges[i]]) if returned[i] else np.empty(0),
                     drop_flag=int(returned[i]), ray_id=len(rays) + i)
                 for i, (o, d) in enumerate(zip(origins, dirs))]
    return rays


def train_set_from_frames(frames: list, scene: SceneSpec) -> TrainSet:
    _, scale = to_unit_cube(np.zeros((1, 3)), scene.bounds)
    rays = build_rays(frames)
    return TrainSet(rays, scale, frames[0].intrinsics.s_max)


def intrinsics_from_config(config: RunConfig) -> SensorIntrinsics:
    return SensorIntrinsics(
        elevation_angles=np.asarray(config.elevations, dtype=float),
        azimuth_count=config.azimuth_count,
        s_max=config.s_max,
        scan_period=config.scan_period,
    )


def models_from_config(config: RunConfig):
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0xC0A23E)))
    coarse = nets.init_model(
        config.encoding_levels, config.dir_levels, config.use_direction,
        [config.hidden_width] * config.hidden_layers, has_phi_head=False,
        rng=rng, sigma_bias=config.sigma_bias)
    fine = nets.init_model(
        config.encoding_levels, config.dir_levels, config.use_direction,
        [config.hidden_width] * config.hidden_layers, has_phi_head=True,
        rng=rng, sigma_bias=config.sigma_bias)
    return sampler.TrainState.fresh(coarse, fine)


def train(train_set: TrainSet, config: RunConfig, depth_l2: bool = False,
          on_epoch=None, state: sampler.TrainState | None = None) -> tuple:
    """Run the epoch loop; returns (state, per-epoch loss rows).

    Pass a pre-built state to keep a handle on it across a divergence
    abort (the caller can then dump a diagnostic checkpoint).
    """
    if state is None:
        state = models_from_config(config)
    step_config = sampler.StepConfig(
        n_bins=config.n_bins, n_fine=config.n_fine, lr=config.lr,
        alpha=config.alpha, seed=config.seed, depth_l2=depth_l2)
    order_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x0BDE4)))
    history = []
    rays = train_set.rays
    for epoch in range(config.epochs):
        order = order_rng.permutation(len(rays))
        totals = np.zeros(4)
        n_steps = 0
        for start in range(0, len(rays), config.batch_rays):
            batch = [rays[i] for i in order[start:start + config.batch_rays]]
            losses = sampler.train_step(state, batch, step_config,
                                        train_set.scale, epoch=epoch)
            totals += [losses.l_c, losses.l_drop, losses.l_coarse, losses.l_fine]
            n_steps += 1
        row = totals / n_steps
        history.append([epoch] + row.tolist())
        if on_epoch is not None:
            on_epoch(epoch, row)
    return state, history


# -- rendering --------------------------------------------------------------------

# Stands in for the epoch in rendering's per-ray streams: SeedSequence takes
# no negative entropy, and no training run reaches this many epochs.
RENDER_STREAM = 0x4E4DE2


@dataclass
class RayRender:
    """Field evaluations along one render ray."""

    trace: CdfTrace
    phi: np.ndarray
    q_hat: float


def evaluate_ray(state: sampler.TrainState, origins: np.ndarray, dirs: np.ndarray,
                 s_max: float, scale: UnitCubeScale, n_bins: int, n_fine: int) -> list:
    """Render-time march of one chunk of rays; returns one RayRender per ray.

    Plain network passes and quantile placement, so the result is
    deterministic. The name is singular because perfbench/layers.py probes
    it under this name.
    """
    _, grid, deltas, _, phi, cdf = sampler.march(
        state, origins, dirs, s_max, n_bins, scale, nets.forward,
        lambda histograms: sampler.quantile_points(histograms, n_fine))
    return [RayRender(CdfTrace(SampleGrid(g, d), c, 1.0 - c), p, float(expit(np.dot(m, p))))
            for g, d, c, p, m in zip(grid, deltas, cdf, phi, bin_masses(cdf))]


def render_ray(render: RayRender, mode: str, *, draws: int = 3, level: float = 0.5,
               peak_threshold: float = 0.05, rng=None, drop_gate: bool = True) -> list:
    """Ranges (possibly several, possibly none) for one evaluated ray."""
    if drop_gate and render.q_hat < 0.5:
        return []
    trace = render.trace
    if mode == "stochastic":
        out = []
        for _ in range(draws):
            sample = inverse_transform_sample(trace, float(rng.uniform(1e-12, 1.0)))
            if not is_drop(sample):
                out.append(sample)
        return out
    if mode == "confidence":
        sample = render_confidence(trace, level)
        return [] if is_drop(sample) else [sample]
    masses = bin_masses(trace.cdf)
    if mode == "strongest-return":
        if masses.size == 0 or masses.max() < peak_threshold:
            return []
        return [float(trace.grid.gammas[int(np.argmax(masses))])]
    if mode == "first-return":
        above = np.flatnonzero(masses >= peak_threshold)
        if above.size == 0:
            return []
        return [float(trace.grid.gammas[int(above[0])])]
    raise InvalidInputError(f"unknown render mode {mode!r}")


def render_baseline_ray(render: RayRender, drop_gate: bool = True) -> list:
    """Deterministic weighted-depth rendering used by the baseline model."""
    if drop_gate and render.q_hat < 0.5:
        return []
    masses = bin_masses(render.trace.cdf)
    total = masses.sum()
    if total <= 1e-6:
        return []
    return [float(np.dot(masses / total, render.trace.grid.gammas))]


def render_frame_cloud(state: sampler.TrainState, frame: ScanFrame,
                       scale: UnitCubeScale, config: RunConfig, mode: str,
                       baseline: bool = False) -> PointCloud:
    """Point cloud for one sensor pose, all beams and azimuth steps.

    Rays are marched in chunks of ``config.batch_rays``, so rendering holds
    no more activations than a training step. Stochastic draws come from
    per-ray streams keyed on the config seed and the ray's index in the
    frame, so output bytes do not depend on the chunk size.
    """
    n_fine = config.render_fine or config.n_fine
    origins, dirs = _frame_rays(frame)
    points = []
    for start in range(0, len(origins), config.batch_rays):
        chunk = slice(start, start + config.batch_rays)
        renders = evaluate_ray(state, origins[chunk], dirs[chunk], frame.intrinsics.s_max,
                               scale, config.n_bins, n_fine)
        for ray_id, render in enumerate(renders, start):
            if baseline:
                ranges = render_baseline_ray(render)
            else:
                rng = sampler.ray_rng(config.seed, ray_id, epoch=RENDER_STREAM)
                ranges = render_ray(render, mode, draws=config.render_draws,
                                    level=config.confidence_level,
                                    peak_threshold=config.peak_threshold, rng=rng)
            points += [origins[ray_id] + s * dirs[ray_id] for s in ranges]
    return PointCloud(np.asarray(points) if points else np.empty((0, 3)))


def ground_truth_cloud(frame: ScanFrame) -> PointCloud:
    """World-frame points of a frame's returned measurements (drops excluded)."""
    origins, dirs = _frame_rays(frame)
    returned = frame.returned.reshape(-1)
    ranges = frame.ranges.reshape(-1)[returned]
    return PointCloud(origins[returned] + ranges[:, None] * dirs[returned])


# -- dataset directory layout -------------------------------------------------------


def write_dataset(out_dir, frames: list, path_poses: list) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_poses(os.path.join(out_dir, "poses.csv"), path_poses)
    intr = frames[0].intrinsics
    with open(os.path.join(out_dir, "intrinsics.txt"), "w") as fh:
        fh.write("elevations = " + " ".join(repr(float(e)) for e in intr.elevation_angles) + "\n")
        fh.write(f"azimuth_count = {intr.azimuth_count}\n")
        fh.write(f"s_max = {intr.s_max!r}\n")
        fh.write(f"scan_period = {intr.scan_period!r}\n")
    for i, frame in enumerate(frames):
        write_scan(os.path.join(out_dir, f"scan_{i:04d}.csv"), frame)


def read_dataset(data_dir) -> list:
    intr = _read_intrinsics(os.path.join(data_dir, "intrinsics.txt"))
    poses = read_poses(os.path.join(data_dir, "poses.csv"))
    frames = []
    i = 0
    while True:
        path = os.path.join(data_dir, f"scan_{i:04d}.csv")
        if not os.path.exists(path):
            break
        if i + 1 >= len(poses):
            raise InvalidInputError("pose sidecar is shorter than the scan list")
        frames.append(read_scan(path, intr, poses[i], poses[i + 1]))
        i += 1
    if not frames:
        raise InvalidInputError(f"no scan files found in {data_dir}")
    return frames


def _read_intrinsics(path) -> SensorIntrinsics:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, raw = (part.strip() for part in line.split("=", 1))
            values[key] = raw
    return SensorIntrinsics(
        elevation_angles=np.array([float(v) for v in values["elevations"].split()]),
        azimuth_count=int(values["azimuth_count"]),
        s_max=float(values["s_max"]),
        scan_period=float(values["scan_period"]),
    )


def resample_path(poses: list, n_frames: int) -> list:
    """Expand a two-pose path into n_frames + 1 interpolated poses.

    Paths with more than two poses are taken verbatim (one frame per
    consecutive pair) and n_frames is ignored.
    """
    if len(poses) != 2 or n_frames == 1:
        return poses
    from .sensor import matrix_from_quat, quat_from_matrix, quat_slerp

    start, end = poses
    static = (np.array_equal(start.rotation, end.rotation)
              and np.array_equal(start.translation, end.translation))
    q0, q1 = quat_from_matrix(start.rotation), quat_from_matrix(end.rotation)
    out = []
    for k in range(n_frames + 1):
        f = k / n_frames
        t = (1.0 - f) * start.timestamp + f * end.timestamp
        if static:
            out.append(Pose(start.rotation, start.translation, t))
        else:
            rot = matrix_from_quat(quat_slerp(q0, q1, f))
            trans = (1.0 - f) * start.translation + f * end.translation
            out.append(Pose(rot, trans, t))
    return out


def generate_to_disk(scene_path, pose_path, out_dir, config: RunConfig) -> list:
    """cmd-gen workhorse: simulate frames along the path and write them out."""
    scene = load_scene(scene_path)
    path_poses = resample_path(read_poses(pose_path), config.n_frames)
    intr = intrinsics_from_config(config)
    frames = generate_dataset(scene, path_poses, intr, config.seed)
    write_dataset(out_dir, frames, path_poses)
    return frames
