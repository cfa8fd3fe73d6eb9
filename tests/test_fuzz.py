"""Mutated input files through `cli.main`: never a raw traceback.

A tiny workspace is built once per module through the CLI: a scene, a
path, a config, a dataset (``poses.csv`` and ``scans.bin``), a checkpoint
and a cloud. Each example mutates one of those files (a token replaced, a
line deleted, duplicated or cut, a byte flipped, the file cut or padded)
and runs the subcommand that reads it, in process. Every run exits 0, 2
or 3; a non-zero exit prints a line naming its error class; no exception
escapes, a numpy RuntimeWarning included (the test configuration makes
one an error).
"""

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plink import cli
from tests.test_simscene import shipped_file

CONFIG = """\
elevations = 0.0
azimuth_count = 8
n_frames = 2
epochs = 1
hidden_layers = 2
hidden_width = 8
n_bins = 4
n_fine = 4
"""

# Each input kind: its file, relative to the workspace.
FILES = {"scene": "scene.txt", "path": "path.csv", "config": "run.cfg",
         "poses": "data/poses.csv", "scans": "data/scans.bin",
         "checkpoint": "train/model.ckpt", "cloud": "render/cloud_0000.ply"}
EDITS = ["token", "delete-line", "duplicate-line", "cut-line", "flip", "cut", "pad"]
TOKENS = [b"nan", b"NaN", b"inf", b"-inf", b"1e308", b"5e-324", b"word", b"\0", b"", b"-1",
          str(2**64).encode(), str(2**128 + 1).encode()]
MESSAGES = ("error:", "invalid config:", "training diverged:")


def argv(kind: str, good: Path, bad: Path) -> list:
    """The subcommand that reads ``kind``: every input from the workspace
    ``good`` but that one, which is ``bad``'s."""
    path = {k: str((bad if k == kind else good) / name) for k, name in FILES.items()}
    data = Path(path["poses"] if kind == "poses" else path["scans"]).parent
    common = ["--config", path["config"], "--scene", path["scene"], "--out", str(bad / "out")]
    if kind in ("scene", "path", "config"):
        return ["gen", "--path", path["path"]] + common
    if kind in ("poses", "scans"):
        return ["train", "--data", str(data)] + common
    if kind == "checkpoint":
        return ["render", "--checkpoint", path["checkpoint"], "--poses", path["poses"]] + common
    return ["eval", "--config", path["config"], "--gt", path["cloud"],
            "--synth", str(good / "render" / "cloud_0001.ply")]


def mutate(data: bytes, edit: str, where: int, token: bytes, mask: int) -> bytes:
    """``data`` with one edit; ``where`` picks its place, modulo the choices."""
    if edit == "token":
        tokens = list(re.finditer(rb"[^\s,]+", data))
        if not tokens:
            return data + token
        hit = tokens[where % len(tokens)]
        return data[:hit.start()] + token + data[hit.end():]
    if edit in ("delete-line", "duplicate-line", "cut-line"):
        lines = data.split(b"\n")
        i = where % len(lines)
        if edit == "delete-line":
            del lines[i]
        elif edit == "duplicate-line":
            lines.insert(i, lines[i])
        else:
            lines[i] = lines[i][:len(lines[i]) // 2]
        return b"\n".join(lines)
    if edit == "flip" and data:
        at = where % len(data)
        return data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]
    if edit == "cut":
        return data[:where % max(len(data), 1)]
    return data + bytes([mask]) * (where % 64 + 1)


def run(args) -> tuple:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("workspace")
    (root / "run.cfg").write_text(CONFIG)
    shutil.copy(shipped_file("panel_room.txt"), root / "scene.txt")
    shutil.copy(shipped_file("moving_path.csv"), root / "path.csv")
    for args in (["gen", "--path", str(root / "path.csv"), "--out", str(root / "data")],
                 ["train", "--data", str(root / "data"), "--out", str(root / "train")],
                 ["render", "--checkpoint", str(root / FILES["checkpoint"]),
                  "--poses", str(root / FILES["poses"]), "--out", str(root / "render")]):
        code, err = run(args + ["--config", str(root / "run.cfg"),
                                "--scene", str(root / "scene.txt")])
        assert code == cli.EXIT_OK, err
    return root


# 400 examples took 1.9–2.9 s on a 2-core machine, inside a 5 s budget.
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
# A vertex count past sys.maxsize raised islice's ValueError.
@example(kind="cloud", edit="token", where=6, token=str(2**64).encode(), mask=1)
# A sensor 1e308 m away overflowed the plane distances' division.
@example(kind="path", edit="token", where=9, token=b"1e308", mask=1)
# A surface normal of 1e308 overflowed its norm.
@example(kind="scene", edit="token", where=184, token=b"1e308", mask=1)
@given(kind=st.sampled_from(sorted(FILES)), edit=st.sampled_from(EDITS),
       where=st.integers(0, 2**16), token=st.sampled_from(TOKENS), mask=st.integers(1, 255))
def test_a_mutated_input_exits_cleanly(workspace, kind, edit, where, token, mask):
    with tempfile.TemporaryDirectory() as scratch:
        bad = Path(scratch)
        (bad / FILES[kind]).parent.mkdir(exist_ok=True)
        if kind in ("poses", "scans"):      # the dataset's other file, intact
            shutil.copytree(workspace / "data", bad / "data", dirs_exist_ok=True)
        data = (workspace / FILES[kind]).read_bytes()
        (bad / FILES[kind]).write_bytes(mutate(data, edit, where, token, mask))
        code, err = run(argv(kind, workspace, bad))
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DIVERGED), err
    if code != cli.EXIT_OK:
        assert any(line.startswith(MESSAGES) for line in err.splitlines()), err
