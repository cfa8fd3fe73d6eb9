"""Dataset assembly, the epoch loop, and novel-view rendering.

Ray grouping rule: measurements aggregate per exact emitted-ray identity,
into one `field.RaySet`: a row per ray, its recorded ranges ascending and
padded with inf. When every frame's boundary poses agree with frame 0's
(`sensor.same_pose`), every frame repeats the same rays, so samples pool
across frames per (beam, azimuth); otherwise each (frame, beam, azimuth)
is its own row with one column. Row numbers key the rays' sample
streams, and each training step takes a set of rows.

Rendering runs the march that training runs (``sampler.march``), on plain
arrays: a frame's rays go through it in chunks of ``batch_rays``. Each
chunk stays a set of (B, J) rows, the grid and the cdf, plus the pooled
return estimate per ray; one picker (``render_ray``) then takes every ray's
ranges from its row at once, in any render mode or as the baseline's
weighted depth.
"""

from __future__ import annotations

import itertools
import os
# ThreadPoolExecutor is not used here; perfbench/layers.py replaces this name.
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import net as nets
from . import sampler
from .config import RunConfig, fill, intrinsics_from_config, read_sections, stream
from .errors import InvalidInputError, OutOfBoundsError
# cdf_from_sigma_values is not called here; perfbench/layers.py probes this name.
from .field import RaySet, bin_masses, cdf_from_sigma_values
from .losses import pooled_drop_values
from .metrics import PointCloud
from .sensor import (Pose, ScanFrame, SensorIntrinsics, UnitCubeScale,
                     motion_compensate, ray_directions, read_poses, read_scan,
                     same_pose, to_unit_cube, write_poses, write_scan)
from .simscene import SceneSpec, generate_dataset, load_scene


@dataclass
class TrainSet:
    """Grouped rays plus the world-to-unit-cube transform they live in."""

    rays: RaySet
    scale: UnitCubeScale


def _frame_rays(frames: list) -> tuple:
    """(N, 3) world origins and directions of the frames' rays, frame after
    frame and beam-major within a frame."""
    rays = [ray_directions(f.intrinsics, f) for f in frames]
    return tuple(np.concatenate([r[k].reshape(-1, 3) for r in rays]) for k in (0, 1))


def build_rays(frames: list) -> RaySet:
    """Group frame measurements into training rays (see module docstring)."""
    if not frames:
        raise InvalidInputError("need at least one frame")
    recorded = np.stack([np.where(f.returned, f.ranges, np.inf).reshape(-1) for f in frames])
    first = frames[0]
    if all(same_pose(f.start_pose, first.start_pose) and same_pose(f.end_pose, first.end_pose)
           for f in frames):
        ranges = np.sort(recorded.T, axis=1)
        ranges = ranges[:, :np.count_nonzero(ranges < np.inf, axis=1).max()]
        frames = frames[:1]     # every frame repeats frame 0's rays
    else:
        ranges = recorded.reshape(-1, 1)
    return RaySet(*_frame_rays(frames), ranges, first.intrinsics.s_max)


def train_set_from_frames(frames: list, scene: SceneSpec) -> TrainSet:
    """The grouped rays in the scene's unit cube; a ray that leaves it is an error."""
    scale = to_unit_cube(scene.bounds)
    rays = build_rays(frames)
    # A static dataset's rays are frame 0's; a moving one's run frame by frame.
    _check_in_bounds(rays.origins, rays.dirs, scale, frames[0].intrinsics)
    return TrainSet(rays, scale)


def check_frames_in_bounds(frames: list, scale: UnitCubeScale) -> None:
    """`_check_in_bounds` over every ray of ``frames``, frame after frame."""
    _check_in_bounds(*_frame_rays(frames), scale, frames[0].intrinsics)


def _check_in_bounds(origins: np.ndarray, dirs: np.ndarray, scale: UnitCubeScale,
                     intrinsics: SensorIntrinsics, first_frame: int = 0) -> None:
    """Reject the first ray whose [0, s_max] segment leaves the scene bounds.

    ``origins`` and ``dirs`` are (R, 3) world rays, frame after frame and
    beam-major within a frame. The test is the one `net.encode` applies to
    every sample point: ``POSITION_BOUND`` in the unit cube, which is the
    cube of the bounds' largest extent, scaled. A cube is convex, so a
    segment is inside when both its ends are. Raises `OutOfBoundsError`
    naming the frame, beam and azimuth. ``s_max`` is the intrinsics'.
    """
    ends = scale.apply(np.stack([origins, origins + intrinsics.s_max * dirs]))
    outside = np.any(np.abs(ends) > nets.POSITION_BOUND, axis=(0, 2))
    if outside.any():
        ray = int(np.argmax(outside))
        frame, cell = divmod(ray, intrinsics.n_beams * intrinsics.azimuth_count)
        beam, azimuth = divmod(cell, intrinsics.azimuth_count)
        raise OutOfBoundsError(
            f"frame {first_frame + frame}, beam {beam}, azimuth {azimuth}: the ray's "
            f"[0, {intrinsics.s_max:g}] m segment leaves the scene bounds (the cube of their "
            f"largest extent)")


def models_from_config(config: RunConfig):
    rng = stream(config.seed, 0xC0A23E)
    shape = (config.encoding_levels, config.dir_levels, config.use_direction,
             config.hidden_layers, config.hidden_width)
    return sampler.TrainState.fresh(*(
        nets.init_model(nets.FieldModel(*shape, phi_head, None), rng, config.sigma_bias)
        for phi_head in (False, True)))


def train(train_set: TrainSet, config: RunConfig, depth_l2: bool = False,
          on_epoch=None, *, state: sampler.TrainState) -> tuple:
    """Run the epoch loop on ``state`` in place; returns (state, per-epoch loss rows).

    The caller builds the state (`models_from_config` gives a fresh one)
    and keeps its handle across a divergence abort, so it can then dump a
    diagnostic checkpoint.
    """
    order_rng = stream(config.seed, 0x0BDE4)
    history = []
    rays = train_set.rays
    for epoch in range(config.epochs):
        order = order_rng.permutation(len(rays))
        totals = np.zeros(4)
        n_steps = 0
        for start in range(0, len(rays), config.batch_rays):
            losses = sampler.train_step(state, rays[order[start:start + config.batch_rays]],
                                        config, train_set.scale, epoch, depth_l2)
            totals += [losses.l_c, losses.l_drop, losses.l_coarse, losses.l_fine]
            n_steps += 1
        row = totals / n_steps
        history.append([epoch] + row.tolist())
        if on_epoch is not None:
            on_epoch(epoch, row)
    return state, history


# -- rendering --------------------------------------------------------------------

# Stands in for the epoch in rendering's per-ray streams: a stream key takes
# no negative entry, and no training run reaches this many epochs.
RENDER_STREAM = 0x4E4DE2


# The render mode of the depth-L2 baseline: the mass-weighted mean depth.
WEIGHTED_DEPTH = "weighted-depth"


def evaluate_ray(state: sampler.TrainState, origins: np.ndarray, dirs: np.ndarray,
                 s_max: float, scale: UnitCubeScale, n_bins: int, n_fine: int) -> tuple:
    """Render-time march of one chunk of B rays: ``(grid, cdf, q_hat)``.

    ``grid`` and ``cdf`` are (B, J) rows, ``q_hat`` the pooled return
    estimate per ray. Plain network passes and quantile placement, so the
    result is deterministic. The name is singular because
    perfbench/layers.py probes it under this name.
    """
    _, grid, _, _, phi, cdf, _ = sampler.march(
        state, origins, dirs, s_max, n_bins, scale, nets.forward,
        lambda masses, edges: sampler.quantile_points(masses, edges, n_fine))
    return grid, cdf, pooled_drop_values(phi, bin_masses(cdf))


def render_ray(grid: np.ndarray, cdf: np.ndarray, q_hat: np.ndarray, mode: str, *,
               uniforms: np.ndarray | None = None, level: float,
               peak_threshold: float) -> np.ndarray:
    """Ranges picked from each ray's cdf: (B, K), NaN where a ray gives none.

    ``stochastic`` inverts each cdf at its row of ``uniforms`` (B, K) and
    ``confidence`` at ``level``; ``first-return`` and ``strongest-return``
    take the first and the largest per-bin mass of at least
    ``peak_threshold``; ``WEIGHTED_DEPTH`` takes the mass-weighted mean
    depth of a ray with more than 1e-6 mass. Rays with ``q_hat < 0.5``
    give none. The name is singular because perfbench/layers.py probes it
    under this name.
    """
    masses = bin_masses(cdf)
    if mode in ("stochastic", "confidence"):
        x = uniforms if mode == "stochastic" else np.full((len(grid), 1), level)
        ranges = _invert_cdf(grid, cdf, x)
    elif mode in ("first-return", "strongest-return"):
        above = masses >= peak_threshold
        pick = np.argmax(above if mode == "first-return" else masses, axis=1)[:, None]
        ranges = np.where(np.take_along_axis(above, pick, 1),
                          np.take_along_axis(grid, pick, 1), np.nan)
    elif mode == WEIGHTED_DEPTH:
        total = masses.sum(axis=1)
        mass = total > 1e-6
        weights = masses / np.where(mass, total, 1.0)[:, None]
        # One dot product per ray, as np.dot takes it for a single pair of rows.
        depth = np.matmul(weights[:, None, :], grid[:, :, None])[:, 0, 0]
        ranges = np.where(mass, depth, np.nan)[:, None]
    else:
        raise InvalidInputError(f"unknown render mode {mode!r}")
    ranges[q_hat < 0.5] = np.nan
    return ranges


def _invert_cdf(grid: np.ndarray, cdf: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Smallest s with C(s) >= x for each level of ``x`` (B, K).

    Linear between grid knots, with each cdf anchored at C(0) = 0; flat
    segments resolve to their left edge. NaN where x exceeds the ray's
    total return mass: the pulse drops.
    """
    s_knots, c_knots = np.pad(grid, ((0, 0), (1, 0))), np.pad(cdf, ((0, 0), (1, 0)))
    # The count of knots below x is searchsorted(c_knots, x, "left") per row.
    hi = np.minimum(np.count_nonzero(c_knots[:, None, :] < x[:, :, None], axis=-1),
                    grid.shape[1])
    c_lo, c_hi = (np.take_along_axis(c_knots, i, 1) for i in (hi - 1, hi))
    s_lo, s_hi = (np.take_along_axis(s_knots, i, 1) for i in (hi - 1, hi))
    rise = c_hi - c_lo
    frac = (x - c_lo) / np.where(rise > 0.0, rise, 1.0)
    ranges = np.where(rise > 0.0, s_lo + frac * (s_hi - s_lo), s_hi)
    return np.where(x > cdf[:, -1:], np.nan, ranges)


def render_frame_cloud(state: sampler.TrainState, frame: ScanFrame,
                       scale: UnitCubeScale, config: RunConfig, mode: str,
                       frame_index: int = 0) -> PointCloud:
    """Point cloud for one sensor pose, all beams and azimuth steps.

    A ray that leaves the scene bounds is rejected before any is marched;
    the error names it as frame ``frame_index`` with its beam and azimuth.

    Rays are marched in chunks of ``config.batch_rays``, so rendering holds
    no more activations than a training step. Stochastic draws come from
    per-ray streams keyed on the config seed and the ray id ``frame_index *
    n_rays + i`` of the frame's ray i, so output bytes do not depend on the
    chunk size, and two frames at one pose draw apart. ``mode`` is a render
    mode or `WEIGHTED_DEPTH`, the depth-L2 baseline's.
    """
    origins, dirs = _frame_rays([frame])
    _check_in_bounds(origins, dirs, scale, frame.intrinsics, frame_index)
    ranges = np.empty((len(origins), config.render_draws if mode == "stochastic" else 1))
    for start in range(0, len(origins), config.batch_rays):
        chunk = slice(start, start + config.batch_rays)
        grid, cdf, q_hat = evaluate_ray(state, origins[chunk], dirs[chunk],
                                        frame.intrinsics.s_max, scale, config.n_bins,
                                        config.n_fine)
        uniforms = None
        if mode == "stochastic":
            first = frame_index * len(origins) + start
            draws = sampler.ray_draws(config.seed, range(first, first + len(grid)),
                                      RENDER_STREAM, config.render_draws)
            uniforms = 1e-12 + (1.0 - 1e-12) * draws    # uniform on [1e-12, 1)
        ranges[chunk] = render_ray(grid, cdf, q_hat, mode, uniforms=uniforms,
                                   level=config.confidence_level,
                                   peak_threshold=config.peak_threshold)
    ray, draw = np.nonzero(~np.isnan(ranges))
    return PointCloud(origins[ray] + ranges[ray, draw][:, None] * dirs[ray])


def ground_truth_cloud(frame: ScanFrame) -> PointCloud:
    """World-frame points of a frame's returned measurements (drops excluded)."""
    origins, dirs = _frame_rays([frame])
    returned = frame.returned.reshape(-1)
    ranges = frame.ranges.reshape(-1)[returned]
    return PointCloud(origins[returned] + ranges[:, None] * dirs[returned])


# -- dataset directory layout -------------------------------------------------------


def _scan_path(data_dir, i: int) -> str:
    return os.path.join(data_dir, f"scan_{i:04d}.csv")


def _scan_paths(data_dir, first: int = 0):
    """A dataset directory's scan files numbered on from ``first``, up to
    the first number without one."""
    return itertools.takewhile(os.path.exists, (
        _scan_path(data_dir, i) for i in itertools.count(first)))


def write_dataset(out_dir, frames: list) -> None:
    """A dataset directory that `read_dataset` reads back as ``frames``, their poses
    included; an earlier dataset's scans numbered past the last frame are removed."""
    os.makedirs(out_dir, exist_ok=True)
    write_poses(os.path.join(out_dir, "poses.csv"),
                [f.start_pose for f in frames] + [frames[-1].end_pose])
    intr = frames[0].intrinsics
    with open(os.path.join(out_dir, "intrinsics.txt"), "w") as fh:
        fh.write("elevations = " + " ".join(repr(float(e)) for e in intr.elevation_angles) + "\n")
        fh.write(f"azimuth_count = {intr.azimuth_count}\n")
        fh.write(f"s_max = {intr.s_max!r}\n")
        fh.write(f"scan_period = {intr.scan_period!r}\n")
    for i, frame in enumerate(frames):
        write_scan(_scan_path(out_dir, i), frame)
    for stale in list(_scan_paths(out_dir, len(frames))):
        os.remove(stale)


# The keys of a dataset's intrinsics.txt: exactly these RunConfig keys.
SENSOR_KEYS = ("elevations", "azimuth_count", "s_max", "scan_period")


def read_dataset(data_dir) -> list:
    top = read_sections(os.path.join(data_dir, "intrinsics.txt"), error=InvalidInputError)[0]
    config = fill(RunConfig(), top, SENSOR_KEYS, SENSOR_KEYS)
    try:
        intr = intrinsics_from_config(config)
    except InvalidInputError as exc:
        raise top.fail(str(exc)) from None
    poses_path = os.path.join(data_dir, "poses.csv")
    poses = read_poses(poses_path)
    scans = list(_scan_paths(data_dir))
    if not scans:
        raise InvalidInputError(f"no scan files found in {data_dir}")
    if len(poses) <= len(scans):
        raise InvalidInputError(
            f"{poses_path}: the pose sidecar is shorter than the scan list: {len(poses)} "
            f"poses for {len(scans)} scans, which need {len(scans) + 1}")
    return [read_scan(path, intr, poses[i], poses[i + 1]) for i, path in enumerate(scans)]


def resample_path(poses: list, n_frames: int) -> list:
    """Expand a two-pose path into n_frames + 1 interpolated poses.

    Paths with more than two poses are taken verbatim (one frame per
    consecutive pair) and n_frames is ignored.
    """
    if len(poses) != 2 or n_frames == 1:
        return poses
    start, end = poses
    fractions = np.arange(n_frames + 1) / n_frames
    quaternions, translations = motion_compensate(start, end, fractions)
    return [Pose(q, trans, float((1.0 - f) * start.timestamp + f * end.timestamp))
            for q, trans, f in zip(quaternions, translations, fractions)]


def generate_to_disk(scene_path, pose_path, out_dir, config: RunConfig) -> list:
    """cmd-gen workhorse: simulate frames along the path and write them out."""
    scene = load_scene(scene_path)
    path_poses = resample_path(read_poses(pose_path), config.n_frames)
    intr = intrinsics_from_config(config)
    frames = generate_dataset(scene, path_poses, intr, config.seed)
    write_dataset(out_dir, frames)
    return frames
