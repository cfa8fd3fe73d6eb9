"""The command line end to end on the shipped scene: gen -> train -> render
-> eval and compare, each byte-identical across two runs, and compare's
training and clouds byte-identical to those of train, baseline and render;
eval and compare on empty clouds, bad config files and flags, malformed or
undecodable dataset, path and cloud files, rays that leave the scene
bounds, truncated checkpoints and bad checkpoint headers, diverged runs,
the PLINK_SEED override, the ``python -m plink.cli`` entry point, and gen,
train, render and eval in an interpreter where scipy cannot be imported."""

import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from plink import cli, metrics, net as nets, pipeline, sampler, simscene
from plink.config import RunConfig, load_config
from plink.errors import ConfigError, DivergenceError

SCENE = simscene.builtin_scene_path("panel_room.txt")
PATH = simscene.builtin_scene_path("moving_path.csv")
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


@pytest.fixture(autouse=True)
def no_seed_override(monkeypatch):
    monkeypatch.delenv("PLINK_SEED", raising=False)


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
    ("s_max = 0\n", "s_max and scan_period must be positive and finite"),
    ("lr = nan\n", "run.cfg line 1: lr: 'nan' is not finite"),
    ("lr = -1\n", "lr must be positive and finite"),
    ("scan_period = 0\n", "s_max and scan_period must be positive and finite"),
    ("scan_period = -1\n", "s_max and scan_period must be positive and finite"),
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


@pytest.mark.parametrize("argv, env", [
    (["gen", "--path", PATH, "--seed", "-1"], None),
    (["train", "--data", "no_data", "--seed", "-3"], None),
    (["gen", "--path", PATH], "-1"),
])
def test_negative_seed_exits_2(tmp_path, capsys, monkeypatch, argv, env):
    # A flag or PLINK_SEED reaches validate past the file reader.
    if env is not None:
        monkeypatch.setenv("PLINK_SEED", env)
    cfg = write_config(tmp_path, UNDER_TRAINED)
    code, _, err = run(capsys, *argv, "--config", cfg, "--scene", SCENE,
                       "--out", tmp_path / "out")
    assert code == cli.EXIT_CONFIG
    assert err == "invalid config: seed must be at least 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("s_max", np.nan), ("s_max", -1.0), ("lr", np.nan), ("lr", 0.0), ("lr", np.inf),
    ("scan_period", np.nan), ("scan_period", 0.0), ("alpha", np.nan),
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


def test_plink_seed_beats_config_file_and_flag(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, UNDER_TRAINED + "seed = 5\n")

    def gen(out, *flags):
        assert run(capsys, "gen", "--config", cfg, "--scene", SCENE, "--path", PATH,
                   "--out", out, *flags)[0] == cli.EXIT_OK
        return tree_bytes(out)

    args = cli.build_parser().parse_args(["gen", "--config", str(cfg), "--seed", "6"])
    assert cli.resolve_config(args).seed == 6
    plain = gen(tmp_path / "seed7", "--seed", "7")
    monkeypatch.setenv("PLINK_SEED", "7")
    assert cli.resolve_config(args).seed == 7
    overridden = gen(tmp_path / "env7", "--seed", "6")
    monkeypatch.delenv("PLINK_SEED")
    assert overridden == plain
    assert gen(tmp_path / "seed6", "--seed", "6") != plain


@pytest.mark.parametrize("name, line, bad, message", [
    ("intrinsics.txt", 3, None, "intrinsics.txt: no s_max line"),
    ("intrinsics.txt", 2, "azimuth_count = many",
     "intrinsics.txt line 2: azimuth_count: expected int, got 'many'"),
    ("intrinsics.txt", 2, "n_bins = 4", "intrinsics.txt line 2: unknown key 'n_bins'"),
    ("intrinsics.txt", 3, "s_max = nan", "intrinsics.txt line 3: s_max: 'nan' is not finite"),
    ("intrinsics.txt", 4, "scan_period = 0",
     "intrinsics.txt: s_max and scan_period must be positive and finite"),
    ("scan_0000.csv", 2, "0,1,abc,1,0.0", "scan_0000.csv row 2: could not convert"),
    ("scan_0000.csv", 3, "9,0,5.0,1,0.0", "scan_0000.csv row 3: beam 9, azimuth 0 is outside"),
    ("scan_0000.csv", 2, "-1,0,5.0,1,0.0", "scan_0000.csv row 2: beam -1, azimuth 0 is outside"),
    ("scan_0001.csv", 4, "0,3,5.0", "scan_0001.csv row 4: expected 5 columns, got 3"),
    ("scan_0000.csv", 3, None, "scan_0000.csv: no row for beam 0, azimuth 1"),
    ("scan_0000.csv", 3, "0,0,5.0,1,0.0", "scan_0000.csv row 3: beam 0, azimuth 0 is named twice"),
    ("scan_0000.csv", 2, "0,0,5.0,7,0.0", "scan_0000.csv row 2: drop flag 7 is not 0 or 1"),
    ("scan_0000.csv", 2, "0,0,25.0,1,0.0", "scan_0000.csv row 2: range 25.0 is outside (0, 20.0]"),
    ("scan_0001.csv", 5, "0,3,-3.0,1,0.0", "scan_0001.csv row 5: range -3.0 is outside (0, 20.0]"),
    ("poses.csv", 2, "0.0,0,0,0,1,0,0,x", "poses.csv row 2: could not convert"),
    ("poses.csv", 3, "0.1,0,0,0,0,0,0,0",
     "poses.csv row 3: quaternion norm 0.0 is outside [1.49e-154, inf)"),
    # A quarter turn about x whose norm overflows, and one whose norm underflows.
    ("poses.csv", 3, "0.1,0,0,0,1e200,1e200,0,0",
     "poses.csv row 3: quaternion norm inf is outside [1.49e-154, inf)"),
    ("poses.csv", 3, "0.1,0,0,0,1e-200,1e-200,0,0",
     "poses.csv row 3: quaternion norm 0.0 is outside [1.49e-154, inf)"),
    ("poses.csv", 4, None, "poses.csv: the pose sidecar is shorter than the scan list: "
     "2 poses for 2 scans, which need 3"),
    ("poses.csv", 2, "0.0,nan,0,0,1,0,0,0",
     "poses.csv row 2: pose translation and timestamp must be finite"),
    ("poses.csv", 3, "nan,0,0,0,1,0,0,0",
     "poses.csv row 3: pose translation and timestamp must be finite"),
    ("poses.csv", 4, "inf,0,0,0,1,0,0,0",
     "poses.csv row 4: pose translation and timestamp must be finite"),
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


def test_train_reads_only_the_latest_gen(tmp_path, capsys, monkeypatch):
    # A gen of 4 frames, then one of 2 into the same directory: the scans of
    # frames 2 and 3 go, so train reads 2 frames and the pose sidecar fits.
    cfg = write_config(tmp_path, UNDER_TRAINED)
    data = tmp_path / "data"
    for frames in (4, 2):
        assert run(capsys, "gen", "--config", cfg, "--scene", SCENE, "--path", PATH,
                   "--frames", frames, "--out", data)[0] == cli.EXIT_OK
    assert sorted(p.name for p in data.glob("scan_*.csv")) == ["scan_0000.csv", "scan_0001.csv"]
    read = []
    real_read = pipeline.read_dataset
    monkeypatch.setattr(pipeline, "read_dataset", lambda d: read.append(real_read(d)) or read[-1])
    code, _, err = run(capsys, "train", "--config", cfg, "--scene", SCENE, "--data", data,
                       "--out", tmp_path / "train")
    assert code == cli.EXIT_OK, err
    assert [len(frames) for frames in read] == [2]


@pytest.mark.parametrize("name", ["poses.csv", "scan_0000.csv"])
def test_undecodable_dataset_file_exits_2(tmp_path, capsys, name):
    cfg = write_config(tmp_path, UNDER_TRAINED)
    data = tmp_path / "data"
    assert run(capsys, "gen", "--config", cfg, "--scene", SCENE, "--path", PATH,
               "--out", data)[0] == cli.EXIT_OK
    text = (data / name).read_bytes()
    (data / name).write_bytes(b"\xff" + text)     # not UTF-8 in the header line
    code, _, err = run(capsys, "train", "--config", cfg, "--scene", SCENE,
                       "--data", data, "--out", tmp_path / "train")
    assert code == cli.EXIT_CONFIG
    assert err.startswith(f"error: {data / name}: cannot read: ")
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
], ids=["nan-translation", "inf-timestamp", "nan-timestamp", "not-utf-8", "field-too-long"])
def test_bad_path_file_exits_2(tmp_path, capsys, body, message):
    path = tmp_path / "path.csv"
    path.write_bytes(body)
    code, _, err = run(capsys, "gen", "--config", write_config(tmp_path, UNDER_TRAINED),
                       "--scene", SCENE, "--path", path, "--out", tmp_path / "data")
    assert code == cli.EXIT_CONFIG
    assert err.startswith(f"error: {tmp_path}") and message in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("line, bad, message", [
    (21, "retrun_prob = 0.5", "scene.txt line 21: unknown key 'retrun_prob'"),
    (38, "normal = 1 0 0", "scene.txt line 38: unknown key 'normal'"),
    (21, "return_prob = half", "scene.txt line 21: return_prob: expected float, got 'half'"),
    (21, "return_prob = nan", "scene.txt line 21: return_prob: 'nan' is not finite"),
    (21, "return_prob = 1.5", "scene.txt line 16: return probability must lie in (0, 1]"),
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
        "vector-not-a-number", "vector-length", "missing-origin", "unknown-kind",
        "unknown-section", "bounds-not-numbers", "missing-bounds", "bounds-too-small"])
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
    # Bounds centred 4 m ahead: the unit cube reaches 18 m behind the sensor,
    # so of 16 azimuths only the 20 m ray pointing straight back (azimuth 8)
    # leaves it on frame 0.
    with open(SCENE) as fh:
        text = fh.read()
    cut = tmp_path / "cut_room.txt"
    cut.write_text(text.replace("bounds = -22 -22 -3 22 22 3", "bounds = -17 -22 -3 25 22 3"))
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


def test_an_internal_error_propagates_out_of_main(monkeypatch):
    # Exit 1 with a traceback: main turns only PlinkError and OSError into codes.
    def broken(args):
        raise RuntimeError("internal")

    monkeypatch.setitem(cli.COMMANDS, "gen", broken)
    with pytest.raises(RuntimeError, match="internal"):
        cli.main(["gen"])


def test_the_module_entry_point_exits_2_with_one_error_line(tmp_path):
    # ``python -m plink.cli``: a malformed cloud is one error line, not a traceback.
    good, bad = tmp_path / "good.xyz", tmp_path / "bad.ply"
    good.write_text("0 0 0\n")
    bad.write_bytes(BINARY_PLY)
    env = fresh_env()
    env.pop("PLINK_SEED", None)
    proc = subprocess.run([sys.executable, "-m", "plink.cli", "eval", "--gt", str(good),
                           "--synth", str(bad)], capture_output=True, text=True, env=env,
                          timeout=60)
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
           if line.strip().startswith(("python -m pip", "SCENES=", "plink "))]
    assert shown and shown == ran
