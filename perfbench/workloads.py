"""The benchmark's workloads over the shipped scene.

All three use ``scene/scene.txt`` and a 4-beam x 64-azimuth sensor (256
rays per frame) with the default model. A workload is set up, then runs
fixed units of work: unit ``k`` is a pure function of the seed and ``k``,
so a traced and an untraced run of the same unit must give bit-identical
outputs.

* ``train-pooled``: a static pose path, so each ray pools 20 returns, and
  those behind the p = 0.5 panel are bimodal. A unit is one fresh training
  of ``TRAIN_EPOCHS`` epochs; the operation is one ``sampler.train_step``.
  The warm-up, untimed, trains ``QUALITY_EPOCHS`` epochs for the quality
  measures. The simulator runs only during set-up.
* ``simulate``: a moving pose path. A unit is ``SIM_PASSES`` passes over
  fixed segments of the path; a pass (the operation) carries one frame
  through generate -> write -> read -> rays -> exact cdf per ray ->
  ground-truth clouds of two seeds' realizations -> metrics between them.
  No tape work. Each unit draws new realizations, so the quality measure
  covers many of them; the work per pass depends on the segment.
* ``render``: a model trained for ``RENDER_PRETRAIN_EPOCHS`` during set-up
  renders novel views along the moving path with the default stochastic
  mode and default thread count; the operation is one frame.

Operation ``i`` of every unit repeats the same work (simulate: on the same
path frame, with new random returns), so the run can time each operation
several times and keep its fastest repeat.
"""

from __future__ import annotations

import copy
import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

SCENE_DIR = Path(__file__).resolve().parent / "scene"
SCENE = str(SCENE_DIR / "scene.txt")
STATIC_PATH = str(SCENE_DIR / "static_path.csv")
MOVING_PATH = str(SCENE_DIR / "moving_path.csv")

ELEVATIONS = [-0.09, -0.03, 0.03, 0.09]
AZIMUTHS = 64
STATIC_FRAMES = 20
PATH_FRAMES = 20
# Short units give each step many repeats; the quality model trains longer.
TRAIN_EPOCHS = 2
QUALITY_EPOCHS = 10
RENDER_PRETRAIN_EPOCHS = 1
SIM_PASSES = 4
RENDER_FRAMES = 5
QUALITY_GRID = 256
QUALITY_CHUNK = 32
# Percentiles need samples beyond them: p90 is reported from >= 100 ops.
MIN_OPS = 100
# simulate's cdf_w1_m and digests cover exactly the first MIN_OPS passes.
QUALITY_PASSES = MIN_OPS
# RunConfig.seed for training and rendering: model initialisation, batch
# order and per-ray sample streams. The workload seed only makes the data.
PROGRAM_SEED = 1


@dataclass
class UnitResult:
    """Timings and outputs of one unit of work."""

    op_ms: list = field(default_factory=list)   # successful operations only
    op_parts_ms: list = field(default_factory=list)  # timed parts of each op_ms
    op_rays: list = field(default_factory=list)  # rays of each entry of op_ms
    rays: int = 0                                # rays of successful operations
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0                          # time the rays_per_s base counts
    digest: str = ""                             # of every output of the unit
    errors: dict = field(default_factory=dict)   # failure message -> count
    payload: object = None                       # outputs until settled


def _files_digest(directory) -> list:
    chunks = []
    for name in sorted(os.listdir(directory)):
        chunks.append(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            chunks.append(fh.read())
    return chunks


def _note_error(result: UnitResult, exc: Exception) -> None:
    key = f"{type(exc).__name__}: {exc}"
    result.errors[key] = result.errors.get(key, 0) + 1


class Workload:
    """Shared set-up of config, paths and the model-cdf quality measure."""

    name = ""
    setup_repeats = 3

    def __init__(self, plink, seed: int, work_dir: str):
        self.plink = plink
        self.seed = seed
        self.work = work_dir
        self.config = self.make_config(PROGRAM_SEED)
        self.scene = plink.simscene.load_scene(SCENE)
        self.setup_dirs = []

    def make_config(self, seed: int, **overrides):
        config = self.plink.config.RunConfig(
            elevations=list(ELEVATIONS), azimuth_count=AZIMUTHS, seed=seed)
        for key, value in overrides.items():
            setattr(config, key, value)
        return config.validate()

    def _pooled_training_set(self, index: int):
        """Generate, write and read back the static-path dataset."""
        pipeline = self.plink.pipeline
        out = os.path.join(self.work, f"setup{index}")
        config = self.make_config(self.seed, n_frames=STATIC_FRAMES)  # the data
        pipeline.generate_to_disk(SCENE, STATIC_PATH, out, config)
        frames = pipeline.read_dataset(out)
        self.setup_dirs.append(out)
        return out, pipeline.train_set_from_frames(frames, self.scene)

    def setup_checks(self) -> list:
        """Every set-up repeat generated the same dataset bytes."""
        return [checks.identical("setup_identical", [
            checks.sha256_of(_files_digest(d)) for d in self.setup_dirs])]

    def model_cdf(self, model, origins, dirs, scale, s_max):
        """Fine-model cdf on the fixed midpoint grid, (rays, QUALITY_GRID)."""
        net, field_mod = self.plink.net, self.plink.field
        step = s_max / QUALITY_GRID
        grid = (np.arange(QUALITY_GRID) + 0.5) * step
        deltas = field_mod.trapezoid_deltas(grid)
        rows = []
        for lo in range(0, len(origins), QUALITY_CHUNK):
            o, d = origins[lo:lo + QUALITY_CHUNK], dirs[lo:lo + QUALITY_CHUNK]
            pts = o[:, None, :] + grid[None, :, None] * d[:, None, :]
            feats = net.encode(scale.apply(pts.reshape(-1, 3)),
                               np.repeat(d, QUALITY_GRID, axis=0) if model.use_direction else None,
                               model.encoding_levels, model.dir_levels)
            sigma, _ = net.forward(model, feats)
            cdf, _ = field_mod.cdf_from_sigma_values(sigma.reshape(len(o), QUALITY_GRID), deltas)
            rows.append(cdf)
        return grid, step, np.concatenate(rows)

    def model_w1(self, model, rays, scale):
        """(mean W1 to the exact cdf, model cdf rows) over the given rays."""
        origins = np.stack([r.origin for r in rays])
        dirs = np.stack([r.direction for r in rays])
        s_max = rays[0].s_max
        grid, step, cdf = self.model_cdf(model, origins, dirs, scale, s_max)
        traces = [self.plink.simscene.trace_true_cdf(self.scene, r) for r in rays]
        return float(np.mean(checks.w1_grid(cdf, grid, step, traces))), cdf


class TrainPooled(Workload):
    name = "train-pooled"

    def __init__(self, *args):
        super().__init__(*args)
        self.trained = None     # (state, history) of the warm-up training

    def setup(self, index: int) -> None:
        self.dataset_dir, self.train_set = self._pooled_training_set(index)
        self.config.epochs = TRAIN_EPOCHS
        self.initial_state = self.plink.pipeline.models_from_config(self.config)

    def warmup(self) -> None:
        """Train the quality model; the heap reaches its training size."""
        config = copy.copy(self.config)
        config.epochs = QUALITY_EPOCHS
        self.trained = self.plink.pipeline.train(self.train_set, config,
                                                 state=copy.deepcopy(self.initial_state))

    def unit(self, k: int) -> UnitResult:
        """One training from the set-up model; ``k`` does not change it."""
        pipeline, sampler = self.plink.pipeline, self.plink.sampler
        state = copy.deepcopy(self.initial_state)
        result = UnitResult()
        step = sampler.train_step

        def timed_step(state_, rays, *args, **kwargs):
            result.attempted += 1
            t0 = time.perf_counter()
            out = step(state_, rays, *args, **kwargs)
            result.op_ms.append((time.perf_counter() - t0) * 1e3)
            result.op_parts_ms.append(result.op_ms[-1:])
            result.op_rays.append(len(rays))
            result.rays += len(rays)
            return out

        sampler.train_step = timed_step
        history = []
        t0 = time.perf_counter()
        try:
            state, history = pipeline.train(self.train_set, self.config, state=state)
        except self.plink.errors.PlinkError as exc:
            result.failed += 1
            _note_error(result, exc)
        finally:
            result.wall_s = time.perf_counter() - t0
            sampler.train_step = step
        result.payload = (state, history)
        return result

    def settle(self, result: UnitResult) -> None:
        state, history = result.payload
        result.digest = checks.sha256_of([checks.array_bytes(history),
                                          checks.array_bytes(state.fine.params)])
        result.payload = None

    def finish(self, units) -> tuple:
        state, history = self.trained
        w1, cdf = self.model_w1(state.fine, self.train_set.rays, self.train_set.scale)
        quality = {"cdf_w1_m": w1,
                   "l_fine_final": float(history[-1][4]) if history else float("nan")}
        found = self.setup_checks() + [
            checks.losses_finite(history), checks.cdf_monotone_unit(cdf),
            checks.identical("units_identical", [u.digest for u in units])]
        digests = {"dataset": checks.sha256_of(_files_digest(self.dataset_dir)),
                   "loss_history": checks.sha256_of([checks.array_bytes(history)]),
                   "fine_params": checks.sha256_of([checks.array_bytes(state.fine.params)])}
        return quality, found, digests


class Simulate(Workload):
    name = "simulate"
    setup_repeats = 21

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = set()       # passes already checked
        self.found = []
        self.w1 = []            # per ray, first QUALITY_PASSES passes
        self.quality_hash = hashlib.sha256()

    def setup(self, index: int) -> None:
        """Load the scene, and write one two-pose file per path frame."""
        pipeline = self.plink.pipeline
        self.scene = self.plink.simscene.load_scene(SCENE)
        poses = pipeline.resample_path(pipeline.read_poses(MOVING_PATH), PATH_FRAMES)
        seg_dir = os.path.join(self.work, f"segments{index}")
        os.makedirs(seg_dir, exist_ok=True)
        self.segments = []
        for f in range(PATH_FRAMES):
            path = os.path.join(seg_dir, f"frame_{f:02d}.csv")
            pipeline.write_poses(path, poses[f:f + 2])
            self.segments.append(path)

    def warmup(self) -> None:
        _, outputs = self.run_pass(0)
        for d in outputs[1]:
            shutil.rmtree(d)

    def run_pass(self, p: int) -> tuple:
        """One timed pass into its own directories: (part ms, outputs).

        The parts are the stages between the timer's marks: each
        generation, read and rays, exact cdfs, clouds and metrics.
        """
        pl = self.plink
        pipeline, simscene, metrics = pl.pipeline, pl.simscene, pl.metrics
        segment = self.segments[(p % SIM_PASSES) * PATH_FRAMES // SIM_PASSES]
        base = 1 + 2 * (self.seed * 100003 + p)
        dirs = [os.path.join(self.work, f"pass{p}_{side}") for side in "ab"]
        configs = [self.make_config(base + i, n_frames=1) for i in (0, 1)]
        marks = [time.perf_counter()]
        for d, c in zip(dirs, configs):
            pipeline.generate_to_disk(SCENE, segment, d, c)
            marks.append(time.perf_counter())
        frames = [pipeline.read_dataset(d)[0] for d in dirs]
        rays = pipeline.train_set_from_frames(frames[:1], self.scene).rays
        marks.append(time.perf_counter())
        traces = [simscene.trace_true_cdf(self.scene, r) for r in rays]
        marks.append(time.perf_counter())
        clouds = [pipeline.ground_truth_cloud(f) for f in frames]
        report = metrics.evaluate(clouds[0], clouds[1], self.config.threshold_cm)
        marks.append(time.perf_counter())
        parts_ms = [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]
        return parts_ms, (p, dirs, frames, rays, traces, clouds, report)

    def unit(self, k: int) -> UnitResult:
        """Passes ``k * SIM_PASSES`` onwards, one per fixed segment."""
        result = UnitResult(payload=[])
        for p in range(k * SIM_PASSES, (k + 1) * SIM_PASSES):
            result.attempted += 1
            parts_ms, outputs = self.run_pass(p)
            seconds = sum(parts_ms) / 1e3
            result.op_ms.append(seconds * 1e3)
            result.op_parts_ms.append(parts_ms)
            result.op_rays.append(2 * len(outputs[3]))
            result.wall_s += seconds
            result.rays += 2 * len(outputs[3])
            result.payload.append(outputs)
        return result

    def settle(self, result: UnitResult) -> None:
        """Digest and check each pass the first time it is seen, then delete
        its files, so memory does not grow with the number of passes."""
        simscene = self.plink.simscene
        chunks = []
        for p, dirs, frames, rays, traces, clouds, report in result.payload:
            pass_chunks = [c for d in dirs for c in _files_digest(d)]
            pass_chunks += [checks.array_bytes(c.points) for c in clouds]
            chunks += pass_chunks
            for d in dirs:
                shutil.rmtree(d)
            if p in self.seen:
                continue
            self.seen.add(p)
            outcomes = [[float(f.ranges.flat[i]) if f.returned.flat[i] else None
                         for f in frames] for i in range(len(rays))]
            self.found.append(checks.returns_on_jumps(
                [r or 0.0 for pair in outcomes for r in pair],
                [r is not None for pair in outcomes for r in pair],
                [t for t in traces for _ in frames]))
            self.found.append(checks.metrics_match_brute_force(
                [(clouds[0].points, clouds[1].points, report)]))
            if p < SIM_PASSES:
                # The drop-side recount traces every ray again: first unit only.
                drops = [checks.drop_probability(
                    simscene.ray_hits(self.scene, r.origin, r.direction, r.s_max), r.direction)
                    for r in rays]
                self.found.append(checks.mass_plus_drop(traces, drops))
            if p < QUALITY_PASSES:
                for c in pass_chunks:
                    self.quality_hash.update(c)
                self.w1 += [checks.w1_empirical(pair, t, self.config.s_max)
                            for pair, t in zip(outcomes, traces)]
        result.digest = checks.sha256_of(chunks)
        result.payload = None

    def finish(self, units) -> tuple:
        quality = {"cdf_w1_m": float(np.mean(self.w1)),
                   "quality_passes": min(len(self.seen), QUALITY_PASSES)}
        digests = {"datasets_and_clouds": self.quality_hash.hexdigest()}
        return quality, checks.merged(self.found), digests


class Render(Workload):
    name = "render"

    def __init__(self, *args):
        super().__init__(*args)
        self.clouds = {}        # frame -> points of its first successful render

    def setup(self, index: int) -> None:
        pipeline = self.plink.pipeline
        self.dataset_dir, self.train_set = self._pooled_training_set(index)
        config = self.make_config(PROGRAM_SEED, epochs=RENDER_PRETRAIN_EPOCHS)
        self.state, self.history = pipeline.train(
            self.train_set, config, state=pipeline.models_from_config(config))
        self.poses = pipeline.resample_path(pipeline.read_poses(MOVING_PATH), PATH_FRAMES)

    def warmup(self) -> None:
        try:
            self.plink.pipeline.render_frame_cloud(self.state, self.frame(0), self.train_set.scale,
                                                   self.config, self.config.render_mode)
        except (self.plink.errors.PlinkError, ValueError):
            pass

    def frame(self, f: int):
        """Frame ``f`` of the novel-view path (the path repeats)."""
        intr = self.plink.pipeline.intrinsics_from_config(self.config)
        shape = (intr.n_beams, intr.azimuth_count)
        i = f % PATH_FRAMES
        return self.plink.sensor.ScanFrame(intr, self.poses[i], self.poses[i + 1],
                                           np.zeros(shape), np.zeros(shape, dtype=bool))

    def unit(self, k: int) -> UnitResult:
        """The first ``RENDER_FRAMES`` path frames; ``k`` does not change it."""
        pipeline = self.plink.pipeline
        result = UnitResult(payload=[])
        for f in range(RENDER_FRAMES):
            frame = self.frame(f)
            result.attempted += 1
            t0 = time.perf_counter()
            try:
                cloud = pipeline.render_frame_cloud(self.state, frame, self.train_set.scale,
                                                    self.config, self.config.render_mode)
            except (self.plink.errors.PlinkError, ValueError) as exc:
                result.wall_s += time.perf_counter() - t0
                result.failed += 1
                _note_error(result, exc)
                result.payload.append((f, None))
                continue
            seconds = time.perf_counter() - t0
            result.wall_s += seconds
            result.op_ms.append(seconds * 1e3)
            result.op_parts_ms.append(result.op_ms[-1:])
            result.op_rays.append(frame.intrinsics.n_beams * frame.intrinsics.azimuth_count)
            result.rays += result.op_rays[-1]
            result.payload.append((f, cloud.points))
        return result

    def settle(self, result: UnitResult) -> None:
        chunks = []
        for f, points in result.payload:
            chunks.append(b"failed" if points is None else checks.array_bytes(points))
            if points is not None:
                self.clouds.setdefault(f, points)
        result.digest = checks.sha256_of(chunks)
        result.payload = None

    def finish(self, units) -> tuple:
        sensor = self.plink.sensor
        in_range = [checks.points_in_range(np.empty((0, 3)), np.zeros((1, 3)), 0.0)]
        for f, points in sorted(self.clouds.items()):
            frame = self.frame(f)
            origins, _ = sensor.ray_directions(frame.intrinsics, frame)
            in_range.append(checks.points_in_range(points, origins.reshape(-1, 3),
                                                   frame.intrinsics.s_max))
        found = self.setup_checks() + checks.merged(in_range) + [
            checks.identical("units_identical", [u.digest for u in units])]
        first = self.frame(0)
        origins, dirs = sensor.ray_directions(first.intrinsics, first)
        rays = [self.plink.field.Ray(o, d, first.intrinsics.s_max)
                for o, d in zip(origins.reshape(-1, 3), dirs.reshape(-1, 3))]
        w1, _ = self.model_w1(self.state.fine, rays, self.train_set.scale)
        quality = {"cdf_w1_m": w1, "l_fine_final": float(self.history[-1][4])}
        digests = {
            "dataset": checks.sha256_of(_files_digest(self.dataset_dir)),
            "loss_history": checks.sha256_of([checks.array_bytes(self.history)]),
            "fine_params": checks.sha256_of([checks.array_bytes(self.state.fine.params)]),
            "clouds": checks.sha256_of(checks.array_bytes(p)
                                       for _, p in sorted(self.clouds.items())),
        }
        return quality, found, digests


WORKLOADS = {w.name: w for w in (TrainPooled, Simulate, Render)}
