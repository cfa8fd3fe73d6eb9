"""The key = value file format, and the run configuration kept in it.

Run configs, a dataset's ``intrinsics.txt`` and scene files share one
format: ``key = value`` lines, ``#`` comments, and ``[name]`` lines that
open sections. ``fill`` types each value by its dataclass field's default:
bool, int, float, str, a list of numbers, or a tuple of as many numbers as
the default. Numbers must be finite. An unknown section or key, a mistyped
value and a missing required key are errors naming the file, the line and
the key (exit 2 at the CLI). A key given twice keeps its last value.

Every run hyperparameter has a default; CLI flags override the file, and
the PLINK_SEED environment variable, when set, overrides the seed last.
The seed keys every random stream that `stream` builds: weight init
``(seed, 0xC0A23E)``, coarse first; batch order ``(seed, 0x0BDE4)``;
training draws ``(seed, ray id, epoch)``; render draws ``(seed, ray id,
RENDER_STREAM)``; simulated pulses ``(seed, frame, beam, azimuth)``.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, InvalidInputError
from .net import check_shape
from .sensor import SensorIntrinsics

# Keys that size arrays, at most the checkpoint header's int32.
SIZE_KEYS = ("azimuth_count", "n_frames", "n_bins", "n_fine", "batch_rays", "encoding_levels",
             "dir_levels", "hidden_width", "hidden_layers", "render_draws")
INT32_MAX = 2 ** 31 - 1


def entropy_words(key) -> np.ndarray:
    """The uint32 words ``np.random.SeedSequence`` makes of a tuple of ints.

    Each entry becomes its 32-bit words, low first (one word for an entry
    below 2**32, and for 0), as SeedSequence's own coercion does, so a
    stream seeded with these words is the stream seeded with the tuple; it
    is built about three times faster. A negative entry raises ValueError.
    """
    words = []
    for n in key:
        n = operator.index(n)
        if n < 0:
            raise ValueError("expected non-negative integer")   # numpy's own message
        words.append(n & 0xFFFFFFFF)
        while n >> 32:
            n >>= 32
            words.append(n & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


def stream(*key) -> np.random.Generator:
    """The stream keyed on ``key``: the one place a ``SeedSequence`` is built."""
    return np.random.default_rng(np.random.SeedSequence(entropy_words(key)))


@dataclass
class RunConfig:
    # inputs / outputs
    scene: str = ""
    path: str = ""
    data_dir: str = ""
    out_dir: str = "out"
    seed: int = 1
    # sensor
    elevations: list = field(default_factory=lambda: [0.0])
    azimuth_count: int = 24
    s_max: float = 20.0
    scan_period: float = 0.1
    n_frames: int = 100
    # training
    n_bins: int = 64
    n_fine: int = 64
    lr: float = 5e-4
    epochs: int = 300
    batch_rays: int = 64
    alpha: float = 0.999
    encoding_levels: int = 8
    dir_levels: int = 2
    use_direction: bool = True
    hidden_width: int = 128
    hidden_layers: int = 4
    sigma_bias: float = -4.0
    checkpoint_every: int = 100
    # rendering
    render_mode: str = "stochastic"
    render_draws: int = 3
    confidence_level: float = 0.5
    peak_threshold: float = 0.05
    # evaluation
    threshold_cm: float = 20.0

    def validate(self) -> "RunConfig":
        """Reject bad values before any work; every comparison fails on NaN."""
        for key in SIZE_KEYS:
            if getattr(self, key) > INT32_MAX:
                raise ConfigError(f"{key} must be at most {INT32_MAX}")
        if self.seed < 0:   # a stream key takes no negative entry
            raise ConfigError("seed must be at least 0")
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError("alpha must lie in [0, 1]")
        if not (0.0 < self.lr < np.inf):
            raise ConfigError("lr must be positive and finite")
        if self.n_bins < 2 or self.n_fine < 1:
            raise ConfigError("n_bins must be at least 2, n_fine at least 1")
        if self.epochs < 1 or self.batch_rays < 1 or self.n_frames < 1:
            raise ConfigError("epochs, batch_rays, n_frames must be at least 1")
        if self.checkpoint_every < 1 or self.render_draws < 1:
            raise ConfigError("checkpoint_every and render_draws must be at least 1")
        if not (0.0 < self.confidence_level < 1.0):
            raise ConfigError("confidence_level must lie in (0, 1)")
        if not (0.0 < self.peak_threshold <= 1.0):
            raise ConfigError("peak_threshold must lie in (0, 1]")
        if not (0.0 < self.threshold_cm < np.inf):
            raise ConfigError("threshold_cm must be positive and finite")
        if self.render_mode not in ("stochastic", "confidence", "first-return",
                                    "strongest-return", "weighted-depth"):
            raise ConfigError(f"unknown render mode {self.render_mode!r}")
        try:
            check_shape(self.encoding_levels, self.dir_levels, self.hidden_layers,
                        self.hidden_width)
            intrinsics_from_config(self)
        except InvalidInputError as exc:
            raise ConfigError(str(exc)) from None
        return self


def intrinsics_from_config(config: RunConfig) -> SensorIntrinsics:
    return SensorIntrinsics(
        elevation_angles=np.asarray(config.elevations, dtype=float),
        azimuth_count=config.azimuth_count,
        s_max=config.s_max,
        scan_period=config.scan_period,
    )


# -- the key = value format -------------------------------------------------------


@dataclass
class Section:
    """The rows under one ``[name]`` header line; line 0 holds the rows above any."""

    source: str
    line: int
    error: type                               # the class of ``fail``'s errors
    rows: dict = field(default_factory=dict)  # key -> (line, raw value)

    def fail(self, message: str, line: int = 0) -> Exception:
        """An error naming the file and ``line``, or else the header's line."""
        line = line or self.line
        return self.error(f"{self.source}{f' line {line}' if line else ''}: {message}")


def read_sections(path, names=(), error=ConfigError) -> list:
    """The file's top section, then one per header; ``names`` are the headers allowed."""
    top = Section(str(path), 0, error)
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise top.fail(f"cannot read: {exc}") from exc
    sections = [top]
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            if line[1:-1].strip() not in names:
                raise top.fail(f"unknown section {line}", lineno)
            sections.append(Section(top.source, lineno, error))
        elif "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            sections[-1].rows[key] = (lineno, value)
        elif line:
            raise top.fail(f"expected key = value, got {line!r}", lineno)
    return sections


def fill(target, section: Section, keys=None, required=()):
    """Set dataclass ``target``'s fields from ``section`` and return it; ``keys``
    may appear (by default every field) and ``required`` must."""
    allowed = keys or [f.name for f in fields(target)]
    for key, (line, raw) in section.rows.items():
        if key not in allowed:
            raise section.fail(f"unknown key {key!r}", line)
        setattr(target, key, _typed(section, line, key, getattr(target, key), raw))
    for key in required:
        if key not in section.rows:
            raise section.fail(f"no {key} line")
    return target


_BOOL_STRINGS = {"true": True, "1": True, "yes": True,
                 "false": False, "0": False, "no": False}


def _typed(section: Section, line: int, key: str, default, raw: str):
    """``raw`` as a value of ``default``'s type (see the module docstring)."""
    kind = type(default)
    if kind is str:
        return raw
    try:
        if kind is bool:
            return _BOOL_STRINGS[raw.lower()]
        value = [float(v) for v in raw.split()] if kind in (list, tuple) else kind(raw)
        if kind is tuple and len(value) != len(default):
            raise ValueError
    except (KeyError, ValueError):
        expected = (f"{len(default)} numbers" if kind is tuple else
                    {bool: "a boolean", list: "numbers"}.get(kind, kind.__name__))
        raise section.fail(f"{key}: expected {expected}, got {raw!r}", line) from None
    if kind is not int and not all(map(math.isfinite, [value] if kind is float else value)):
        raise section.fail(f"{key}: {raw!r} is not finite", line)
    return tuple(value) if kind is tuple else value


def load_config(path) -> RunConfig:
    """The run config in the file at ``path``: one top section of RunConfig keys."""
    return fill(RunConfig(), read_sections(path)[0])


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Apply CLI flag values (already typed); None means 'not given'."""
    for key, value in overrides.items():
        if value is None:
            continue
        if not hasattr(config, key):
            raise ConfigError(f"unknown override {key!r}")
        setattr(config, key, value)
    seed_env = os.environ.get("PLINK_SEED")
    if seed_env is not None:
        try:
            config.seed = int(seed_env)
        except ValueError:
            raise ConfigError(f"PLINK_SEED must be an integer, got {seed_env!r}") from None
    return config
