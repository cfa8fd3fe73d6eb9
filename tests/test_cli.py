"""The command line end to end on the shipped scene: gen -> train -> render
-> eval and compare, each byte-identical across two runs; eval on an empty
cloud, bad config files and the PLINK_SEED override."""

import os

import numpy as np
import pytest

from plink import cli, metrics, pipeline, simscene

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
    assert "warning: model rendered no points" in err
    assert "warning: baseline rendered no points" in err
    for row in rows:
        values = np.array(row[2:], dtype=float)
        assert np.all(np.isnan(values[:4])) and values[4] == 20.0


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
])
def test_bad_config_exits_2(tmp_path, capsys, text, message):
    cfg = write_config(tmp_path, text)
    code, _, err = run(capsys, "gen", "--config", cfg, "--scene", SCENE, "--path", PATH,
                       "--out", tmp_path / "data")
    assert code == cli.EXIT_CONFIG
    assert err.startswith("invalid config:") and message in err
    assert not (tmp_path / "data").exists()


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
