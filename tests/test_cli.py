"""The command line end to end on the shipped scene: gen -> train -> render
-> eval and compare, each byte-identical across two runs, and compare's
training and clouds byte-identical to those of train, baseline and render;
eval and compare on empty clouds, bad config files and flags, malformed or
undecodable dataset, path and cloud files, rays that leave the scene
bounds, truncated checkpoints and bad checkpoint headers, diverged runs,
the seed flag, the exit code of each error class, gen's out-of-memory
message, main where the C library has no mallopt, the ``python -m
plink.cli`` entry point, and gen, train, render and eval in an interpreter
where scipy cannot be imported."""

import json
import os
import struct
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from plink import cli, errors, metrics, net as nets, pipeline, sampler, simscene
from plink.config import RunConfig, load_config
from plink.errors import ConfigError, DivergenceError, InvalidInputError
from tests.test_simscene import shipped_file

SCENE = shipped_file("panel_room.txt")
PATH = shipped_file("moving_path.csv")
UNDER_TRAINED = """\
elevations = -0.05 0.05
azimuth_count = 16
n_frames = 2
n_bins = 16
n_fine = 16
hidden_width = 16
hidden_layers = 2
epochs = 2
"""
# Enough training for the drop gate to open, so the clouds have points.
TRAINED = UNDER_TRAINED.replace("epochs = 2", "epochs = 10\nlr = 0.01")


def tree_bytes(root):
    """{path relative to root: file bytes} for every file under root."""
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def run(capsys, *argv):
    capsys.readouterr()
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_env():
    """The environment for a fresh interpreter that imports plink from this tree."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def write_config(root, text):
    root.mkdir(parents=True, exist_ok=True)
    path = root / "run.cfg"
    path.write_text(text)
    return path


def gen_train_render_eval(root, mode, capsys):
    cfg = write_config(root, TRAINED)
    data, train, render = root / "data", root / "train", root / "render"
    assert run(capsys, "gen", "--config", cfg, "--scene", SCENE, "--path", PATH,
               "--out", data)[0] == cli.EXIT_OK
    assert run(capsys, "train", "--config", cfg, "--scene", SCENE, "--data", data,
               "--out", train)[0] == cli.EXIT_OK
    assert run(capsys, "render", "--config", cfg, "--scene", SCENE,
               "--checkpoint", train / "model.ckpt", "--poses", data / "poses.csv",
               "--mode", mode, "--out", render)[0] == cli.EXIT_OK
    gt = root / "gt.ply"
    metrics.write_ply(gt, pipeline.ground_truth_cloud(pipeline.read_dataset(data)[0]))
    synth = render / "cloud_0000.ply"
    assert len(metrics.read_cloud(synth)) > 0
    code, table, _ = run(capsys, "eval", "--config", cfg, "--gt", gt, "--synth", synth)
    assert code == cli.EXIT_OK
    assert "nan" not in table
    return table, tree_bytes(root)


@pytest.mark.parametrize("mode", ["stochastic", "first-return"])
def test_gen_train_render_eval_is_reproducible(tmp_path, capsys, mode):
    first = gen_train_render_eval(tmp_path / "a", mode, capsys)
    second = gen_train_render_eval(tmp_path / "b", mode, capsys)
    assert sorted(first[1]) == sorted(second[1])
    assert first == second


def compare(root, text, capsys):
    cfg = write_config(root, text)
    code, _, err = run(capsys, "compare", "--config", cfg, "--scene", SCENE,
                       "--path", PATH, "--out", root / "out")
    with open(root / "out" / "report.csv") as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    return code, err, rows, tree_bytes(root / "out")


def test_compare_is_reproducible(tmp_path, capsys):
    first = compare(tmp_path / "a", TRAINED, capsys)
    second = compare(tmp_path / "b", TRAINED, capsys)
    code, err, rows, files = first
    assert code == cli.EXIT_OK and err == ""
    assert [r[:2] for r in rows] == [["model", "aggregate"], ["model", "per_scan_mean"],
                                     ["baseline", "aggregate"], ["baseline", "per_scan_mean"]]
    assert np.all(np.isfinite(np.array([r[2:] for r in rows], dtype=float)))
    assert "model.ckpt" in files and "gt_0001.ply" in files
    assert first == second


def test_compare_with_empty_renders_writes_nan_rows(tmp_path, capsys):
    code, err, rows, _ = compare(tmp_path, UNDER_TRAINED, capsys)
    assert code == cli.EXIT_OK
    assert "warning: model has no points" in err
    assert "warning: baseline has no points" in err
    for row in rows:
        values = np.array(row[2:], dtype=float)
        assert np.all(np.isnan(values[:4])) and values[4] == 20.0


def test_compare_with_an_empty_ground_truth_writes_nan_rows(tmp_path, capsys):
    # A room that returns 2% of its pulses: with --seed 3, the ground-truth
    # realization of its one frame of 32 rays returns none. Each empty
    # cloud warns once, and every row is NaN.
    scene = tmp_path / "faint_room.txt"
    scene.write_text("bounds = -22 -22 -3 22 22 3\n[surface]\nkind = box\n"
                     "origin = -10 -10 -2.5\nextent = 19 20 5\nreturn_prob = 0.02\n")
    cfg = write_config(tmp_path, UNDER_TRAINED.replace("n_frames = 2", "n_frames = 1"))
    out = tmp_path / "out"
    code, _, err = run(capsys, "compare", "--config", cfg, "--scene", scene, "--path", PATH,
                       "--seed", 3, "--out", out)
    assert code == cli.EXIT_OK
    empty = [name for name in ("gt", "model", "baseline")
             if not any(len(metrics.read_cloud(p)) for p in out.glob(f"{name}_*.ply"))]
    assert empty[0] == "gt"
    assert err.splitlines() == [f"warning: {name} has no points; the metrics are NaN"
                                for name in empty]
    with open(out / "report.csv") as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    assert len(rows) == 4
    for row in rows:
        values = np.array(row[2:], dtype=float)
        assert np.all(np.isnan(values[:4])) and values[4] == 20.0


@pytest.mark.parametrize("mode_line", ["", "render_mode = first-return\n"],
                         ids=["default-mode", "first-return"])
def test_compare_renders_as_render_does(tmp_path, capsys, mode_line):
    # render of compare's checkpoints on its test poses writes compare's
    # clouds: the model in render_mode, the baseline in weighted-depth.
    cfg = write_config(tmp_path, TRAINED + mode_line)
    out = tmp_path / "compare"
    assert run(capsys, "compare", "--config", cfg, "--scene", SCENE, "--path", PATH,
               "--out", out)[0] == cli.EXIT_OK
    for stem, flags in (("model", []), ("baseline", ["--mode", "weighted-depth"])):
        alone = tmp_path / stem
        assert run(capsys, "render", "--config", cfg, "--scene", SCENE,
                   "--checkpoint", out / f"{stem}.ckpt", "--poses", out / "testdata" / "poses.csv",
                   "--out", alone, *flags)[0] == cli.EXIT_OK
        assert sorted(os.listdir(alone)) == ["cloud_0000.ply", "cloud_0001.ply"]
        for i in range(2):
            assert ((alone / f"cloud_{i:04d}.ply").read_bytes()
                    == (out / f"{stem}_{i:04d}.ply").read_bytes()), (stem, i)


def test_eval_with_an_empty_synthetic_cloud_prints_nan(tmp_path, capsys):
    cfg = write_config(tmp_path, UNDER_TRAINED)
    data, train, render = tmp_path / "data", tmp_path / "train", tmp_path / "render"
    assert run(capsys, "gen", "--config", cfg, "--scene", SCENE, "--path", PATH,
               "--out", data)[0] == cli.EXIT_OK
    assert run(capsys, "train", "--config", cfg, "--scene", SCENE, "--data", data,
               "--out", train)[0] == cli.EXIT_OK
    assert run(capsys, "render", "--config", cfg, "--scene", SCENE,
               "--checkpoint", train / "model.ckpt", "--poses", data / "poses.csv",
               "--out", render)[0] == cli.EXIT_OK
    synth = render / "cloud_0000.ply"
    assert len(metrics.read_cloud(synth)) == 0
    gt = tmp_path / "gt.ply"
    metrics.write_ply(gt, pipeline.ground_truth_cloud(pipeline.read_dataset(data)[0]))
    code, table, err = run(capsys, "eval", "--config", cfg, "--gt", gt, "--synth", synth)
    assert code == cli.EXIT_OK
    assert f"warning: {synth} has no points" in err
    assert table.splitlines()[1].split()[1:] == ["nan"] * 4


@pytest.mark.parametrize("text, message", [
    ("bogus_key = 1\n", "unknown key 'bogus_key'"),
    ("n_bins = many\n", "n_bins: expected int"),
    ("use_direction = perhaps\n", "use_direction: expected a boolean"),
    ("alpha = 2.0\n", "alpha must lie in [0, 1]"),
    ("render_mode = brightest\n", "unknown render mode"),
    ("confidence_level = 1.0\n", "confidence_level must lie in (0, 1)"),
    ("confidence_level = 0\n", "confidence_level must lie in (0, 1)"),
    ("peak_threshold = -1\n", "peak_threshold must lie in (0, 1]"),
    ("peak_threshold = 2\n", "peak_threshold must lie in (0, 1]"),
    ("threshold_cm = -3\n", "threshold_cm must be positive and finite"),
    ("threshold_cm = 0\n", "threshold_cm must be positive and finite"),
    ("checkpoint_every = 0\n", "checkpoint_every and render_draws must be at least 1"),
    ("render_draws = 0\n", "checkpoint_every and render_draws must be at least 1"),
    ("elevations = 0.0 x\n", "elevations: expected numbers, got '0.0 x'"),
    ("elevations = 0.1 0.0\n", "elevation angles must be strictly increasing"),
    ("s_max = nan\n", "run.cfg line 1: s_max: 'nan' is not finite"),
    ("s_max = 0\n", "s_max must be positive and finite"),
    ("lr = nan\n", "run.cfg line 1: lr: 'nan' is not finite"),
    ("lr = -1\n", "lr must be positive and finite"),
    # The boundary poses time a frame's revolution; a config that still
    # sets a scan period is rejected, not read.
    ("scan_period = 0.1\n", "run.cfg line 1: unknown key 'scan_period'"),
    ("seed = 1\n[run]\n", "run.cfg line 2: unknown section [run]"),
    ("seed 1\n", "run.cfg line 1: expected key = value, got 'seed 1'"),
    ("azimuth_count = 100000000000000000000000\n", "azimuth_count must be at most 2147483647"),
    ("hidden_width = 2147483648\n", "hidden_width must be at most 2147483647"),
    ("seed = -1\n", "seed must be at least 0"),
])
def test_bad_config_exits_2(tmp_path, capsys, text, message):
    cfg = write_config(tmp_path, text)
    code, _, err = run(capsys, "gen", "--config", cfg, "--scene", SCENE, "--path", PATH,
                       "--out", tmp_path / "data")
    assert code == cli.EXIT_CONFIG
    assert err.startswith("invalid config:") and message in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--path", PATH, "--seed", "-1"],
    ["train", "--data", "no_data", "--seed", "-3"],
])
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    # A flag reaches validate past the file reader.
    cfg = write_config(tmp_path, UNDER_TRAINED)
    code, _, err = run(capsys, *argv, "--config", cfg, "--scene", SCENE,
                       "--out", tmp_path / "out")
    assert code == cli.EXIT_CONFIG
    assert err == "invalid config: seed must be at least 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("s_max", np.nan), ("s_max", -1.0), ("lr", np.nan), ("lr", 0.0), ("lr", np.inf),
    ("alpha", np.nan),
    ("confidence_level", np.nan), ("threshold_cm", np.nan), ("threshold_cm", -3.0),
    ("threshold_cm", np.inf), ("peak_threshold", np.nan), ("peak_threshold", 0.0),
    ("peak_threshold", 1.5),
])
def test_validate_rejects_nan_and_non_positive_values(key, value):
    # CLI flags reach validate without the file reader's finiteness check.
    with pytest.raises(ConfigError):
        RunConfig(**{key: value}).validate()


def test_bad_flag_exits_2_before_work(tmp_path, capsys):
    cfg = write_config(tmp_path, UNDER_TRAINED)
    code, _, err = run(capsys, "train", "--config", cfg, "--scene", SCENE, "--lr", "nan",
                       "--data", tmp_path / "no_data", "--out", tmp_path / "train")
    assert code == cli.EXIT_CONFIG
    assert err == "invalid config: lr must be positive and finite\n"
    assert not (tmp_path / "train").exists()


@pytest.mark.parametrize("threshold", ["nan", "-3"])
def test_bad_eval_threshold_exits_2(tmp_path, capsys, threshold):
    cloud = tmp_path / "cloud.xyz"
    cloud.write_text("0 0 0\n1 1 1\n")
    code, out, err = run(capsys, "eval", "--gt", cloud, "--synth", cloud,
                         "--threshold", threshold)
    assert code == cli.EXIT_CONFIG and out == ""
    assert err == "invalid config: threshold_cm must be positive and finite\n"


def test_seed_flag_beats_config_file(tmp_path, capsys):
    cfg = write_config(tmp_path, UNDER_TRAINED + "seed = 5\n")

    def gen(out, *flags):
        assert run(capsys, "gen", "--config", cfg, "--scene", SCENE, "--path", PATH,
                   "--out", out, *flags)[0] == cli.EXIT_OK
        return tree_bytes(out)

    args = cli.build_parser().parse_args(["gen", "--config", str(cfg), "--seed", "6"])
    assert cli.resolve_config(args).seed == 6
    from_file = gen(tmp_path / "file")
    assert gen(tmp_path / "seed5", "--seed", "5") == from_file
    assert gen(tmp_path / "seed6", "--seed", "6") != from_file


@pytest.mark.parametrize("name, line, bad, message", [
    ("poses.csv", 2, "0.0,0,0,0,1,0,0,x", "poses.csv row 2: could not convert"),
    ("poses.csv", 3, "0.1,0,0,0,0,0,0,0",
     "poses.csv row 3: quaternion norm 0.0 is outside [1.49e-154, inf)"),
    # A quarter turn about x whose norm overflows, and one whose norm underflows.
    ("poses.csv", 3, "0.1,0,0,0,1e200,1e200,0,0",
     "poses.csv row 3: quaternion norm inf is outside [1.49e-154, inf)"),
    ("poses.csv", 3, "0.1,0,0,0,1e-200,1e-200,0,0",
     "poses.csv row 3: quaternion norm 0.0 is outside [1.49e-154, inf)"),
    # The pose count is the frame count plus one: one pose too few, one too many.
    ("poses.csv", 4, None, "scans.bin: frame count 2 needs 3 poses, but the pose file holds 2"),
    ("poses.csv", 5, "3.0,0,0,0,1,0,0,0",
     "scans.bin: frame count 2 needs 3 poses, but the pose file holds 4"),
    ("poses.csv", 2, "0.0,nan,0,0,1,0,0,0",
     "poses.csv row 2: pose translation and timestamp must be finite"),
    ("poses.csv", 3, "nan,0,0,0,1,0,0,0",
     "poses.csv row 3: pose translation and timestamp must be finite"),
    ("poses.csv", 4, "inf,0,0,0,1,0,0,0",
     "poses.csv row 4: pose translation and timestamp must be finite"),
    ("poses.csv", 3, "0.0,0,0,0,1,0,0,0",
     "poses.csv row 3: time 0.0 is not later than the previous row's 0.0"),
    ("poses.csv", 4, "0.5,0,0,0,1,0,0,0",
     "poses.csv row 4: time 0.5 is not later than the previous row's 1.0"),
])
def test_malformed_dataset_file_exits_2(tmp_path, capsys, name, line, bad, message):
    cfg = write_config(tmp_path, UNDER_TRAINED)
    data = tmp_path / "data"
    assert run(capsys, "gen", "--config", cfg, "--scene", SCENE, "--path", PATH,
               "--out", data)[0] == cli.EXIT_OK
    lines = (data / name).read_text().splitlines()
    lines[line - 1:line] = [] if bad is None else [bad]
    (data / name).write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "train", "--config", cfg, "--scene", SCENE,
                       "--data", data, "--out", tmp_path / "train")
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error: ") and str(data) in err and message in err


# A gen of UNDER_TRAINED writes 2 frames of 2 x 16 ranges: a 28-byte header,
# 2 elevations, then 64 ranges.
RECORD_SIZE = 28 + 8 * (2 + 64)
FAR = 2 ** 32 - 1


def with_value(at, fmt, *values):
    """An edit of a scan record that packs ``values`` by ``fmt`` at byte ``at``."""
    def edit(record):
        return record[:at] + struct.pack(fmt, *values) + record[at + struct.calcsize(fmt):]
    return edit


def with_range(frame, beam, azimuth, value):
    """An edit of UNDER_TRAINED's scan record that sets one range."""
    return with_value(44 + 8 * (32 * frame + 16 * beam + azimuth), "<d", value)


@pytest.mark.parametrize("edit, message", [
    (lambda r: b"PLNKSCN0" + r[8:], "scans.bin: not a scan record"),
    (lambda r: r[:20], "scans.bin: 20 bytes, shorter than the 28-byte header"),
    (lambda r: r + bytes(8),
     f"scans.bin: {RECORD_SIZE + 8} bytes, but a 2 x 2 x 16 scan record takes {RECORD_SIZE}"),
    (lambda r: r[:-8],
     f"scans.bin: {RECORD_SIZE - 8} bytes, but a 2 x 2 x 16 scan record takes {RECORD_SIZE}"),
    (with_value(12, "<I", 0),
     "scans.bin: frame, beam and azimuth counts 2, 0, 16: each must be at least 1"),
    # The size is computed exactly and checked before anything of the
    # frames' shape is made: these counts would take 2**99 bytes.
    (with_value(8, "<3I", FAR, FAR, FAR),
     f"scans.bin: {RECORD_SIZE} bytes, but a {FAR} x {FAR} x {FAR} scan record takes "
     f"{28 + 8 * (FAR + FAR ** 3)}"),
    (with_value(36, "<d", -0.05), "scans.bin: elevation angles must be strictly increasing"),
    (with_value(36, "<d", np.pi / 2), "scans.bin: elevations must lie inside (-pi/2, pi/2)"),
    (with_value(28, "<d", -np.pi / 2), "scans.bin: elevations must lie inside (-pi/2, pi/2)"),
    (with_value(20, "<d", np.nan), "scans.bin: s_max must be positive and finite"),
    (with_value(20, "<d", np.inf), "scans.bin: s_max must be positive and finite"),
    (with_value(20, "<d", 0.0), "scans.bin: s_max must be positive and finite"),
    (with_range(0, 0, 0, 25.0),
     "scans.bin: frame 0, beam 0, azimuth 0: range 25.0 is outside [0, 20.0]"),
    (with_range(1, 0, 3, -3.0),
     "scans.bin: frame 1, beam 0, azimuth 3: range -3.0 is outside [0, 20.0]"),
    (with_range(0, 1, 5, np.inf),
     "scans.bin: frame 0, beam 1, azimuth 5: range inf is outside [0, 20.0]"),
    (with_range(1, 0, 1, np.nan),
     "scans.bin: frame 1, beam 0, azimuth 1: range nan is outside [0, 20.0]"),
], ids=["magic", "header_short", "long", "short", "zero_count", "huge_counts",
        "repeated_elevation", "elevation_up", "elevation_down", "s_max_nan", "s_max_inf",
        "s_max_zero", "above_s_max", "negative", "inf", "nan"])
def test_malformed_scan_record_exits_2(tmp_path, capsys, edit, message):
    cfg = write_config(tmp_path, UNDER_TRAINED)
    data = tmp_path / "data"
    assert run(capsys, "gen", "--config", cfg, "--scene", SCENE, "--path", PATH,
               "--out", data)[0] == cli.EXIT_OK
    record = (data / "scans.bin").read_bytes()
    assert len(record) == RECORD_SIZE
    (data / "scans.bin").write_bytes(edit(record))
    code, _, err = run(capsys, "train", "--config", cfg, "--scene", SCENE,
                       "--data", data, "--out", tmp_path / "train")
    assert code == cli.EXIT_CONFIG
    assert err == f"error: {data / message}\n"
    assert not (tmp_path / "train").exists()


def test_train_reads_only_the_latest_gen(tmp_path, capsys, monkeypatch):
    # A gen of 4 frames, then one of 2 into the same directory: the scan
    # record and the pose file are replaced, so train reads 2 frames.
    cfg = write_config(tmp_path, UNDER_TRAINED)
    data = tmp_path / "data"
    for frames in (4, 2):
        assert run(capsys, "gen", "--config", cfg, "--scene", SCENE, "--path", PATH,
                   "--frames", frames, "--out", data)[0] == cli.EXIT_OK
    assert sorted(p.name for p in data.iterdir()) == ["poses.csv", "scans.bin"]
    read = []
    real_read = pipeline.read_dataset
    monkeypatch.setattr(pipeline, "read_dataset", lambda d: read.append(real_read(d)) or read[-1])
    code, _, err = run(capsys, "train", "--config", cfg, "--scene", SCENE, "--data", data,
                       "--out", tmp_path / "train")
    assert code == cli.EXIT_OK, err
    assert [len(frames) for frames in read] == [2]


@pytest.mark.parametrize("name", ["poses.csv", "scans.bin"])
def test_undecodable_dataset_file_exits_2(tmp_path, capsys, name):
    cfg = write_config(tmp_path, UNDER_TRAINED)
    data = tmp_path / "data"
    assert run(capsys, "gen", "--config", cfg, "--scene", SCENE, "--path", PATH,
               "--out", data)[0] == cli.EXIT_OK
    text = (data / name).read_bytes()
    (data / name).write_bytes(b"\xff" + text[1:])     # not UTF-8, and not the scan magic
    code, _, err = run(capsys, "train", "--config", cfg, "--scene", SCENE,
                       "--data", data, "--out", tmp_path / "train")
    assert code == cli.EXIT_CONFIG
    reason = "cannot read: " if name == "poses.csv" else "not a scan record"
    assert err.startswith(f"error: {data / name}: {reason}")
    assert not (tmp_path / "train").exists()


@pytest.mark.parametrize("body, message", [
    (b"t_s,tx,ty,tz,qw,qx,qy,qz\n0.0,nan,0,0,1,0,0,0\n2.0,1,0,0,1,0,0,0\n",
     "path.csv row 2: pose translation and timestamp must be finite"),
    (b"t_s,tx,ty,tz,qw,qx,qy,qz\n0.0,0,0,0,1,0,0,0\ninf,1,0,0,1,0,0,0\n",
     "path.csv row 3: pose translation and timestamp must be finite"),
    (b"t_s,tx,ty,tz,qw,qx,qy,qz\n-nan,0,0,0,1,0,0,0\n2.0,1,0,0,1,0,0,0\n",
     "path.csv row 2: pose translation and timestamp must be finite"),
    (b"t_s,tx,ty,tz,qw,qx,qy,qz\xe9\n0.0,0,0,0,1,0,0,0\n2.0,1,0,0,1,0,0,0\n",
     "path.csv: cannot read: "),
    (b"t_s,tx,ty,tz,qw,qx,qy,qz\n0.0," + b"1" * 200_000 + b",0,0,1,0,0,0\n",
     "path.csv: cannot read: field larger than field limit"),
    (b"t_s,tx,ty,tz,qw,qx,qy,qz\n2.0,0,0,0,1,0,0,0\n0.0,1,0,0,1,0,0,0\n",
     "path.csv row 3: time 0.0 is not later than the previous row's 2.0"),
], ids=["nan-translation", "inf-timestamp", "nan-timestamp", "not-utf-8", "field-too-long",
        "backwards"])
def test_bad_path_file_exits_2(tmp_path, capsys, body, message):
    path = tmp_path / "path.csv"
    path.write_bytes(body)
    code, _, err = run(capsys, "gen", "--config", write_config(tmp_path, UNDER_TRAINED),
                       "--scene", SCENE, "--path", path, "--out", tmp_path / "data")
    assert code == cli.EXIT_CONFIG
    assert err.startswith(f"error: {tmp_path}") and message in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("rows", ["", "0.0,0,0,0,1,0,0,0\n"], ids=["no-pose", "one-pose"])
@pytest.mark.parametrize("command", ["gen", "render"])
def test_a_pose_file_with_fewer_than_two_poses_exits_2(tmp_path, capsys, command, rows):
    path = tmp_path / "one.csv"
    path.write_text("t_s,tx,ty,tz,qw,qx,qy,qz\n" + rows)
    if command == "gen":
        argv = ["--config", write_config(tmp_path, UNDER_TRAINED), "--path", path]
    else:
        ckpt, cfg = checkpoint_and_config(tmp_path)
        argv = ["--config", cfg, "--checkpoint", ckpt, "--poses", path]
    code, _, err = run(capsys, command, *argv, "--scene", SCENE, "--out", tmp_path / "out")
    assert code == cli.EXIT_CONFIG
    assert err == f"error: {path}: need at least two poses, found {rows.count(chr(10))}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, bad, message", [
    (21, "retrun_prob = 0.5", "scene.txt line 21: unknown key 'retrun_prob'"),
    (38, "normal = 1 0 0", "scene.txt line 38: unknown key 'normal'"),
    (21, "return_prob = half", "scene.txt line 21: return_prob: expected float, got 'half'"),
    (21, "return_prob = nan", "scene.txt line 21: return_prob: 'nan' is not finite"),
    (21, "return_prob = 1.5", "scene.txt line 16: return probability must lie in (0, 1]"),
    (21, "oblique_drop_deg = -30", "scene.txt line 16: oblique drop angle must lie in [0, pi/2]"),
    (38, "oblique_drop_deg = 90.5", "scene.txt line 33: oblique drop angle must lie in [0, pi/2]"),
    (20, "extent = 1.5 one", "scene.txt line 20: extent: expected 2 numbers, got '1.5 one'"),
    (28, "extent = 19 20", "scene.txt line 28: extent: expected 3 numbers, got '19 20'"),
    (18, None, "scene.txt line 16: no origin line"),
    (17, "kind = disc", "scene.txt line 17: unknown surface kind 'disc'"),
    (25, "[surfaces]", "scene.txt line 25: unknown section [surfaces]"),
    (12, "bounds = -22 -22 -3 22 22 three",
     "scene.txt line 12: bounds: expected 6 numbers, got '-22 -22 -3 22 22 three'"),
    (12, None, "scene.txt: no bounds line"),
    (12, "bounds = -2 -22 -3 22 22 3",
     "scene.txt line 12: all surface corners must lie inside the bounds"),
], ids=["misspelt-key", "key-of-another-kind", "not-a-number", "nan", "physics",
        "negative-oblique-limit", "oblique-limit-past-90", "vector-not-a-number",
        "vector-length", "missing-origin", "unknown-kind", "unknown-section",
        "bounds-not-numbers", "missing-bounds", "bounds-too-small"])
def test_malformed_scene_file_exits_2(tmp_path, capsys, line, bad, message):
    lines = SCENE.read_text().splitlines()
    lines[line - 1:line] = [] if bad is None else [bad]
    scene = tmp_path / "scene.txt"
    scene.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "gen", "--config", write_config(tmp_path, UNDER_TRAINED),
                       "--scene", scene, "--path", PATH, "--out", tmp_path / "data")
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error: ") and str(tmp_path) in err and message in err
    assert not (tmp_path / "data").exists()


BINARY_PLY = (b"ply\nformat binary_little_endian 1.0\nelement vertex 1\nproperty float x\n"
              b"property float y\nproperty float z\nend_header\n"
              + struct.pack("<3f", 1.5, -2.0, 3.25))


@pytest.mark.parametrize("name, text, message", [
    ("bad.ply", "ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
     "property float y\nproperty float z\nend_header\n1 2 3\n4 5 abc\n",
     "bad.ply line 9: could not convert"),
    ("bad.ply", "ply\nformat ascii 1.0\nelement vertex x\nend_header\n",
     "bad.ply line 3: bad vertex count"),
    ("bad.ply", "ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
     "property float y\nproperty float z\nend_header\n1 2 3\n",
     "bad.ply: header declares 3 vertices, found 1"),
    ("bad.xyz", "1 2 3\n\n1 2\n", "bad.xyz line 3: expected x y z, got 2 values"),
    ("bad.xyz", "1 2 q\n", "bad.xyz line 1: could not convert"),
    ("bad.xyz", "1 2 3\nnan 0 0\n", "bad.xyz line 2: point nan 0 0 is not finite"),
    ("bad.ply", "ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
     "property float y\nproperty float z\nend_header\n1 2 3\n4 inf 6\n",
     "bad.ply line 9: point 4 inf 6 is not finite"),
    ("bad.ply", "ply\nformat ascii 1.0\nelement vertex -1\nend_header\n",
     "bad.ply line 3: bad vertex count"),
    ("bad.ply", "ply\nformat binary_little_endian 1.0\nelement vertex 0\nend_header\n",
     "bad.ply line 2: unsupported 'format binary_little_endian 1.0'; only 'format ascii 1.0'"),
    ("bad.ply", BINARY_PLY, "bad.ply: cannot read: 'utf-8' codec can't decode"),
    ("bad.xyz", "1 2 3\n4 5 6 # caf\xe9\n".encode("latin-1"),
     "bad.xyz: cannot read: 'utf-8' codec can't decode"),
    ("bad.ply", "ply\nformat ascii 1.0\nelement vertex 1\nproperty float intensity\n"
     "property float x\nproperty float y\nproperty float z\nend_header\n0.5 1 2 3\n",
     "bad.ply line 4: vertex properties must begin x y z, got intensity"),
    ("bad.ply", "ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
     "property float y\nend_header\n1 2 3\n",
     "bad.ply line 6: vertex properties must begin x y z, got x y"),
    ("bad.ply", "ply\nformat ascii 1.0\nelement face many\n"
     "property list uchar int vertex_indices\nelement vertex 1\nproperty float x\n"
     "property float y\nproperty float z\nend_header\n3 0 1 2\n7 8 9\n",
     "bad.ply line 3: bad element count"),
], ids=["ply-vertex-not-a-number", "ply-vertex-count", "ply-short", "xyz-two-values",
        "xyz-not-a-number", "xyz-nan", "ply-inf", "ply-negative-count", "ply-binary-format",
        "ply-binary", "xyz-latin-1", "ply-intensity-first", "ply-only-x-y",
        "ply-earlier-element-count"])
def test_malformed_cloud_file_exits_2(tmp_path, capsys, name, text, message):
    cfg = write_config(tmp_path, UNDER_TRAINED)
    good, bad = tmp_path / "good.xyz", tmp_path / name
    good.write_text("0 0 0\n1 1 1\n")
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    for gt, synth in ((good, bad), (bad, good)):
        code, _, err = run(capsys, "eval", "--config", cfg, "--gt", gt, "--synth", synth)
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error: ") and str(tmp_path) in err and message in err


@pytest.mark.parametrize("text, message", [
    ("encoding_levels = -1\n", "encoding_levels and dir_levels must be at least 0"),
    ("dir_levels = -1\n", "encoding_levels and dir_levels must be at least 0"),
    ("hidden_width = 0\n", "hidden_width and hidden_layers must be at least 1"),
    ("hidden_layers = 0\n", "hidden_width and hidden_layers must be at least 1"),
    ("checkpoint_every = 0\n", "checkpoint_every and render_draws must be at least 1"),
])
def test_bad_network_config_exits_2_before_training(tmp_path, capsys, text, message):
    data = tmp_path / "data"
    assert run(capsys, "gen", "--config", write_config(tmp_path / "good", UNDER_TRAINED),
               "--scene", SCENE, "--path", PATH, "--out", data)[0] == cli.EXIT_OK
    cfg = write_config(tmp_path / "bad", UNDER_TRAINED + text)
    code, _, err = run(capsys, "train", "--config", cfg, "--scene", SCENE, "--data", data,
                       "--out", tmp_path / "train")
    assert code == cli.EXIT_CONFIG
    assert err.startswith("invalid config:") and message in err
    assert not (tmp_path / "train").exists()


def test_ray_leaving_the_scene_bounds_exits_2_before_work(tmp_path, capsys):
    # Bounds centred 2 m ahead: the unit cube reaches 20 m behind the origin.
    # Frame 0 sweeps from 1 m behind the origin to it, so of its 16 azimuths
    # only the 20 m ray pointing straight back (azimuth 8, cast halfway along,
    # 0.5 m behind the origin) leaves the cube; azimuths 7 and 9 stay 0.5 m or
    # more inside it.
    with open(SCENE) as fh:
        text = fh.read()
    cut = tmp_path / "cut_room.txt"
    cut.write_text(text.replace("bounds = -22 -22 -3 22 22 3", "bounds = -20 -22 -3 24 22 3"))
    cfg = write_config(tmp_path, UNDER_TRAINED)
    data, train = tmp_path / "data", tmp_path / "train"
    assert run(capsys, "gen", "--config", cfg, "--scene", cut, "--path", PATH,
               "--out", data)[0] == cli.EXIT_OK
    message = "frame 0, beam 0, azimuth 8: the ray's [0, 20] m segment leaves the scene bounds"
    code, _, err = run(capsys, "train", "--config", cfg, "--scene", cut, "--data", data,
                       "--out", train)
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error: ") and message in err
    assert not train.exists()

    assert run(capsys, "train", "--config", cfg, "--scene", SCENE, "--data", data,
               "--out", train)[0] == cli.EXIT_OK
    render = tmp_path / "render"
    code, _, err = run(capsys, "render", "--config", cfg, "--scene", cut,
                       "--checkpoint", train / "model.ckpt", "--poses", data / "poses.csv",
                       "--out", render)
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error: ") and message in err
    assert not render.exists()


def test_a_diverged_run_keeps_its_finished_epochs(tmp_path, capsys, monkeypatch):
    # Exit 3 with a loadable diverged checkpoint, and the loss curve holds
    # the epochs finished before the divergence, as an uninterrupted run
    # writes them. The divergence strikes before epoch 2 changes anything,
    # so the diverged checkpoint is the one written after epoch 2.
    cfg = write_config(tmp_path, UNDER_TRAINED.replace("epochs = 2",
                                                       "epochs = 3\ncheckpoint_every = 2"))
    data = tmp_path / "data"
    assert run(capsys, "gen", "--config", cfg, "--scene", SCENE, "--path", PATH,
               "--out", data)[0] == cli.EXIT_OK
    train = ["train", "--config", cfg, "--scene", SCENE, "--data", data, "--out"]
    assert run(capsys, *train, tmp_path / "whole")[0] == cli.EXIT_OK
    whole = (tmp_path / "whole" / "model_loss_curve.csv").read_text().splitlines()
    assert len(whole) == 4

    step = sampler.train_step

    def diverging(state, rays, config, scale, epoch=0, depth_l2=False):
        if epoch == 2:
            raise DivergenceError("planted in epoch 2")
        return step(state, rays, config, scale, epoch, depth_l2)

    monkeypatch.setattr(sampler, "train_step", diverging)
    out = tmp_path / "diverged"
    code, _, err = run(capsys, *train, out)
    assert code == cli.EXIT_DIVERGED
    assert err == "training diverged: planted in epoch 2\n"
    coarse, fine = nets.load_checkpoint(out / "model_diverged.ckpt")
    assert fine.has_phi_head and not coarse.has_phi_head
    assert ((out / "model_diverged.ckpt").read_bytes()
            == (out / "model_epoch_0002.ckpt").read_bytes())
    assert not (out / "model.ckpt").exists()
    assert (out / "model_loss_curve.csv").read_text().splitlines() == whole[:3]


def test_a_diverged_compare_keeps_its_finished_epochs(tmp_path, capsys, monkeypatch):
    # compare trains through the writer of train, so the model's divergence
    # in epoch 2 leaves its curve rows and diverged checkpoint, and no cloud
    # or report.
    cfg = write_config(tmp_path, UNDER_TRAINED.replace("epochs = 2",
                                                       "epochs = 3\ncheckpoint_every = 2"))
    step = sampler.train_step

    def diverging(state, rays, config, scale, epoch=0, depth_l2=False):
        if epoch == 2:
            raise DivergenceError("planted in epoch 2")
        return step(state, rays, config, scale, epoch, depth_l2)

    monkeypatch.setattr(sampler, "train_step", diverging)
    out = tmp_path / "out"
    code, _, err = run(capsys, "compare", "--config", cfg, "--scene", SCENE, "--path", PATH,
                       "--out", out)
    assert code == cli.EXIT_DIVERGED
    assert err == "training diverged: planted in epoch 2\n"
    coarse, fine = nets.load_checkpoint(out / "model_diverged.ckpt")
    assert fine.has_phi_head and not coarse.has_phi_head
    assert ((out / "model_diverged.ckpt").read_bytes()
            == (out / "model_epoch_0002.ckpt").read_bytes())
    curve = (out / "model_loss_curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,l_c,l_drop,l_coarse,l_fine"
    assert [row.split(",")[0] for row in curve[1:]] == ["0", "1"]
    assert sorted(os.listdir(out)) == ["data", "model_diverged.ckpt", "model_epoch_0002.ckpt",
                                       "model_loss_curve.csv", "testdata"]


def test_compare_trains_as_train_and_baseline_do(tmp_path, capsys):
    # On compare's own training data, train and baseline write the same bytes.
    cfg = write_config(tmp_path, TRAINED + "checkpoint_every = 4\n")
    out = tmp_path / "compare"
    assert run(capsys, "compare", "--config", cfg, "--scene", SCENE, "--path", PATH,
               "--out", out)[0] == cli.EXIT_OK
    for command, stem in (("train", "model"), ("baseline", "baseline")):
        alone = tmp_path / command
        assert run(capsys, command, "--config", cfg, "--scene", SCENE, "--data", out / "data",
                   "--out", alone)[0] == cli.EXIT_OK
        names = [f"{stem}.ckpt", f"{stem}_loss_curve.csv", f"{stem}_epoch_0004.ckpt",
                 f"{stem}_epoch_0008.ckpt"]
        assert sorted(os.listdir(alone)) == sorted(names)
        for name in names:
            assert (alone / name).read_bytes() == (out / name).read_bytes(), name


def checkpoint_and_config(root):
    """An untrained model's checkpoint and the config that built it."""
    cfg = write_config(root, UNDER_TRAINED)
    state = pipeline.models_from_config(load_config(cfg))
    ckpt = root / "model.ckpt"
    nets.save_checkpoint(ckpt, state.coarse, state.fine)
    return ckpt, cfg


def test_render_checks_every_frame_before_writing_a_cloud(tmp_path, capsys):
    # Frame 0 stands at the origin; in frame 1 the sensor moves 10 m along
    # +x, so its forward rays end past the bounds' 22 m half extent.
    ckpt, cfg = checkpoint_and_config(tmp_path)
    poses = tmp_path / "poses.csv"
    poses.write_text("t_s,tx,ty,tz,qw,qx,qy,qz\n0.0,0,0,0,1,0,0,0\n"
                     "0.1,0,0,0,1,0,0,0\n0.2,10,0,0,1,0,0,0\n")
    render = tmp_path / "render"
    code, _, err = run(capsys, "render", "--config", cfg, "--scene", SCENE,
                       "--checkpoint", ckpt, "--poses", poses, "--out", render)
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error: frame 1, beam ") and "leaves the scene bounds" in err
    assert not list(render.glob("cloud_*.ply"))


@pytest.mark.parametrize("cut", [lambda data: data[:30], lambda data: data[:-10]],
                         ids=["first-30-bytes", "10-bytes-short"])
def test_truncated_checkpoint_exits_2(tmp_path, capsys, cut):
    ckpt, cfg = checkpoint_and_config(tmp_path)
    short = tmp_path / "short.ckpt"
    short.write_bytes(cut(ckpt.read_bytes()))
    code, _, err = run(capsys, "render", "--config", cfg, "--scene", SCENE,
                       "--checkpoint", short, "--poses", PATH, "--out", tmp_path / "render")
    assert code == cli.EXIT_CONFIG
    assert err.startswith(f"error: {short}: the file ends ") and "bytes early" in err


# The coarse record's header: levels, dir levels, use_direction, hidden
# layers, hidden width, has_phi_head and the parameter count. Each would
# load or misreport without the header checks; hidden_layers = -1 and 0
# name as many parameters as a linear sigma head has, so the length check
# passes them.
@pytest.mark.parametrize("header, message", [
    ((8, 2, 1, 2, 16, 0, -12), "parameter count -12 is negative"),
    ((8, 2, 1, -1, 16, 0, nets.encoded_width(8, 2, True) + 1),
     "hidden_width and hidden_layers must be at least 1, not (8, 2, -1, 16)"),
    ((8, 2, 1, 0, 16, 0, nets.encoded_width(8, 2, True) + 1),
     "hidden_width and hidden_layers must be at least 1, not (8, 2, 0, 16)"),
    ((-1, 2, 1, 2, 16, 0, 0),
     "encoding_levels and dir_levels must be at least 0, not (-1, 2, 2, 16)"),
    ((8, 2, 1, 2, 0, 0, 0), "hidden_width and hidden_layers must be at least 1, not (8, 2, 2, 0)"),
    ((8, 2, 2, 2, 16, 0, 0), "use_direction and has_phi_head must be 0 or 1, not 2 and 0"),
    ((8, 2, 1, 2, 16, 2, 0), "use_direction and has_phi_head must be 0 or 1, not 1 and 2"),
], ids=["negative-count", "negative-layers", "zero-layers", "negative-levels", "zero-width",
        "use-direction-flag", "phi-head-flag"])
def test_bad_checkpoint_header_exits_2(tmp_path, capsys, header, message):
    ckpt, cfg = checkpoint_and_config(tmp_path)
    blob = ckpt.read_bytes()
    # 12 bytes of file magic and record count, then the coarse record: 8 of
    # magic, 28 of header (the count last) and its parameters.
    (coarse_count,) = struct.unpack("<i", blob[44:48])
    coarse = nets.MODEL_MAGIC + struct.pack("<7i", *header) + bytes(4 * max(header[-1], 0))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:12] + coarse + blob[48 + 4 * coarse_count:])
    code, _, err = run(capsys, "render", "--config", cfg, "--scene", SCENE,
                       "--checkpoint", bad, "--poses", PATH, "--out", tmp_path / "render")
    assert code == cli.EXIT_CONFIG
    assert err.startswith(f"error: {bad}: ") and message in err
    assert not (tmp_path / "render").exists()


# The default shape's first record with a count of 2^31 - 1 used to be read
# as 8 GiB and end in a MemoryError. A count that matches its shape but
# needs more bytes than the file has is refused before the read as well.
@pytest.mark.parametrize("header, message", [
    ((8, 2, 1, 4, 128, 0, 2 ** 31 - 1),
     "parameter count 2147483647 does not match the shape's 58241"),
    ((0, 0, 0, 5, 20000, 0, 1600180001), "the file ends 6400719904 bytes early"),
], ids=["count-past-the-shape", "count-past-the-file"])
def test_checkpoint_with_a_huge_parameter_count_exits_2(tmp_path, capsys, header, message):
    ckpt, cfg = checkpoint_and_config(tmp_path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(nets.CHECKPOINT_MAGIC + struct.pack("<i", 2) + nets.MODEL_MAGIC
                    + struct.pack("<7i", *header) + bytes(100))
    code, _, err = run(capsys, "render", "--config", cfg, "--scene", SCENE,
                       "--checkpoint", bad, "--poses", PATH, "--out", tmp_path / "render")
    assert code == cli.EXIT_CONFIG
    assert err == f"error: {bad}: {message}\n"
    assert not (tmp_path / "render").exists()


@pytest.mark.parametrize("roles", [("fine", "coarse"), ("coarse", "coarse")])
def test_checkpoint_with_models_in_the_wrong_roles_exits_2(tmp_path, capsys, roles):
    cfg = write_config(tmp_path, UNDER_TRAINED)
    state = pipeline.models_from_config(load_config(cfg))
    bad = tmp_path / "bad.ckpt"
    nets.save_checkpoint(bad, *(getattr(state, role) for role in roles))
    code, _, err = run(capsys, "render", "--config", cfg, "--scene", SCENE,
                       "--checkpoint", bad, "--poses", PATH, "--out", tmp_path / "render")
    assert code == cli.EXIT_CONFIG
    assert err == (f"error: {bad}: the first model record must be the coarse one, without a "
                   "phi head, and the second the fine one, with a phi head\n")
    assert not (tmp_path / "render").exists()


@pytest.mark.parametrize("tail", ["twice", "one byte"])
def test_checkpoint_with_bytes_after_its_records_exits_2(tmp_path, capsys, tail):
    # One checkpoint written twice into a file used to load its first copy.
    ckpt, cfg = checkpoint_and_config(tmp_path)
    blob = ckpt.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob + (blob if tail == "twice" else b"\0"))
    code, _, err = run(capsys, "render", "--config", cfg, "--scene", SCENE,
                       "--checkpoint", bad, "--poses", PATH, "--out", tmp_path / "render")
    assert code == cli.EXIT_CONFIG
    assert err == f"error: {bad}: unexpected bytes after the fine model record\n"
    assert not (tmp_path / "render").exists()


@pytest.mark.parametrize("record", ["coarse", "fine"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_checkpoint_with_a_non_finite_parameter_exits_2(tmp_path, capsys, record, value):
    # Rejected as the file is read, before render makes its output directory.
    ckpt, cfg = checkpoint_and_config(tmp_path)
    models = dict(zip(("coarse", "fine"), nets.load_checkpoint(ckpt)))
    models[record].params[5] = value
    bad = tmp_path / "bad.ckpt"
    nets.save_checkpoint(bad, models["coarse"], models["fine"])
    code, _, err = run(capsys, "render", "--config", cfg, "--scene", SCENE,
                       "--checkpoint", bad, "--poses", PATH, "--out", tmp_path / "render")
    assert code == cli.EXIT_CONFIG
    assert err == (f"error: {bad}: non-finite parameter {value!r} at {record} layer 0 "
                   "W[0, 5] (parameter 5)\n")
    assert not (tmp_path / "render").exists()


def test_an_internal_error_propagates_out_of_main(monkeypatch):
    # Exit 1 with a traceback: main turns only PlinkError, OSError and
    # MemoryError into codes.
    def broken(args):
        raise RuntimeError("internal")

    monkeypatch.setitem(cli.COMMANDS, "gen", broken)
    with pytest.raises(RuntimeError, match="internal"):
        cli.main(["gen"])


def test_main_maps_every_error_class():
    subclasses = {value for value in vars(errors).values() if isinstance(value, type)
                  and issubclass(value, errors.PlinkError) and value is not errors.PlinkError}
    assert subclasses == {ConfigError, InvalidInputError, DivergenceError}


@pytest.mark.parametrize("error, code, prefix", [
    (ConfigError, cli.EXIT_CONFIG, "invalid config: "),
    (InvalidInputError, cli.EXIT_CONFIG, "error: "),
    (DivergenceError, cli.EXIT_DIVERGED, "training diverged: "),
    (OSError, cli.EXIT_CONFIG, "error: "),
    (MemoryError, cli.EXIT_CONFIG, "error: not enough memory: "),
])
def test_each_error_class_has_one_exit_code(monkeypatch, capsys, error, code, prefix):
    def failing(args):
        raise error("reason")

    monkeypatch.setitem(cli.COMMANDS, "gen", failing)
    assert run(capsys, "gen") == (code, "", f"{prefix}reason\n")


@pytest.mark.parametrize("flags, source", [((), "{cfg}"), (("--frames", "3"), "{cfg} and --frames")],
                         ids=["config", "config-and-frames"])
def test_gen_names_the_sizes_behind_a_memory_error(tmp_path, capsys, monkeypatch, flags, source):
    # The allocation is stood in for: a test never asks for a large array,
    # which np.zeros can hand out lazily on a large machine.
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 14.9 GiB")

    monkeypatch.setattr(simscene, "ray_directions", out_of_memory)
    cfg = write_config(tmp_path, UNDER_TRAINED)
    code, _, err = run(capsys, "gen", "--config", cfg, "--scene", SCENE, "--path", PATH,
                       *flags, "--out", tmp_path / "data")
    assert code == cli.EXIT_CONFIG
    n_frames = flags[1] if flags else 2
    assert err == (f"error: not enough memory: {source.format(cfg=cfg)}: the scan sizes "
                   f"elevations (2 beams), azimuth_count = 16 and n_frames = {n_frames}: "
                   "Unable to allocate 14.9 GiB\n")


def test_main_runs_where_the_allocator_has_no_mallopt(tmp_path, capsys, monkeypatch):
    # A C library without mallopt (or none at all): main leaves the
    # allocator as it is, says nothing, and writes the same bytes.
    cfg = write_config(tmp_path, UNDER_TRAINED)
    argv = ("gen", "--config", cfg, "--scene", SCENE, "--path", PATH, "--out")
    assert run(capsys, *argv, tmp_path / "pinned")[0] == cli.EXIT_OK
    looked_up = []

    def libc_without_mallopt(name):
        looked_up.append(name)
        return object()

    monkeypatch.setattr(cli, "ctypes", SimpleNamespace(CDLL=libc_without_mallopt))
    code, out, err = run(capsys, *argv, tmp_path / "default")
    assert (code, err, looked_up) == (cli.EXIT_OK, "", [None])
    assert out.startswith("wrote 2 frames")
    assert tree_bytes(tmp_path / "default") == tree_bytes(tmp_path / "pinned")


def test_the_module_entry_point_exits_2_with_one_error_line(tmp_path):
    # ``python -m plink.cli``: a malformed cloud is one error line, not a traceback.
    good, bad = tmp_path / "good.xyz", tmp_path / "bad.ply"
    good.write_text("0 0 0\n")
    bad.write_bytes(BINARY_PLY)
    proc = subprocess.run([sys.executable, "-m", "plink.cli", "eval", "--gt", str(good),
                           "--synth", str(bad)], capture_output=True, text=True,
                          env=fresh_env(), timeout=60)
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {bad}: cannot read: ")
    assert len(proc.stderr.splitlines()) == 1


NO_SCIPY = """
import contextlib, io, sys
sys.modules["scipy"] = None     # any scipy import now raises ImportError
import plink.cli as cli

cfg, scene, path, root = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["gen", "--path", path, "--out", root + "/data"],
                 ["train", "--data", root + "/data", "--out", root + "/train"],
                 ["render", "--checkpoint", root + "/train/model.ckpt",
                  "--poses", root + "/data/poses.csv", "--out", root + "/render"]):
        assert cli.main(argv + ["--config", cfg, "--scene", scene]) == 0, argv
sys.exit(cli.main(["eval", "--config", cfg, "--gt", root + "/render/cloud_0000.ply",
                   "--synth", root + "/render/cloud_0001.ply"]))
"""


def test_no_command_loads_scipy(tmp_path, capsys):
    # A fresh interpreter in which importing scipy fails runs gen, train,
    # render and eval, and eval prints the in-process eval's table.
    cfg = write_config(tmp_path, TRAINED)
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, str(cfg), SCENE, PATH,
                           str(tmp_path)], capture_output=True, text=True, env=fresh_env(),
                          timeout=60)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    render = tmp_path / "render"
    code, table, _ = run(capsys, "eval", "--config", cfg, "--gt", render / "cloud_0000.ply",
                         "--synth", render / "cloud_0001.ply")
    assert code == cli.EXIT_OK and "nan" not in table
    assert proc.stdout == table


def test_readme_quickstart_is_what_ci_runs():
    # CI's packaging step runs the README's install line and quickstart, in order.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        shown = [line.strip() for line in fh if line.startswith("    ")]
    with open(os.path.join(root, ".github", "workflows", "tier1.yml")) as fh:
        step = fh.read().split("README quickstart", 1)[1]
    ran = [line.strip() for line in step.splitlines()
           if line.strip().startswith(("python -m pip", "SCENES=", "printf ", "plink "))]
    assert shown and shown == ran
