"""The key = value file format, and the run configuration kept in it.

Run configs and scene files share one format: ``key = value`` lines,
``#`` comments, and ``[name]`` lines that open sections. ``fill`` types each
value by its dataclass field's default: bool, int, float, str, a list of
numbers, or a tuple of as many numbers as the default. Numbers must be
finite. An unknown section or key, a mistyped value and a missing required
key are errors naming the file, the line and the key (exit 2 at the CLI).
A key given twice keeps its last value.

Every run hyperparameter has a default; CLI flags override the file.
The seed, an integer in [0, 2**64), keys every random stream: batch
order ``(seed, 0x0BDE4, epoch)``; training draws ``(seed, ray id,
epoch)``; render draws ``(seed, ray id, RENDER_STREAM)``; simulated
pulses ``(seed, frame, beam, azimuth)``. One stateless kernel,
`stream_uniforms`, gives a batch of keys' first n uniforms: a key hashes
once to a uint64, then a Weyl sequence runs through the SplitMix64
finalizer, so a stream depends on its key alone and carries no state.
Weight init alone draws from numpy's generator keyed ``(seed, 0xC0A23E)``,
coarse first (`pipeline.models_from_config`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidInputError
from .net import check_shape
from .sensor import SensorIntrinsics

# Keys that size arrays, at most the checkpoint header's int32.
SIZE_KEYS = ("azimuth_count", "n_frames", "n_bins", "n_fine", "batch_rays", "encoding_levels",
             "dir_levels", "hidden_width", "hidden_layers", "render_draws")
INT32_MAX = 2 ** 31 - 1
SEED_MAX = 2 ** 64 - 1

# The render modes `pipeline.render_ray` picks ranges by; WEIGHTED_DEPTH, the
# mass-weighted mean depth, is the depth-L2 baseline's.
WEIGHTED_DEPTH = "weighted-depth"
RENDER_MODES = ("stochastic", "confidence", "first-return", "strongest-return", WEIGHTED_DEPTH)


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the Weyl sequence's
# increment and the finalizer's multipliers.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MULT_1, _MULT_2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _finalize(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer of every entry of uint64 array ``z``, in place.

    Array products wrap silently; uint64 *scalar* ones warn, so no scalar
    goes through here.
    """
    z ^= z >> 30
    z *= _MULT_1
    z ^= z >> 27
    z *= _MULT_2
    z ^= z >> 31
    return z


def stream_uniforms(keys, n: int) -> np.ndarray:
    """(N, n) uniforms in [0, 1): row i is the first n draws of ``keys[i]``'s stream.

    ``keys`` holds N keys of one length L, as tuples or an (N, L) array of
    integers in [0, 2**64); numpy raises OverflowError for an entry outside
    that range. A key hashes to h: its length, then each entry in turn,
    xor-ed in and finalized. Draw j is then the finalizer of h + (j + 1) *
    gamma, shifted to its top 53 bits and scaled by 2**-53. A stream
    depends on its key alone, and its first n draws are a prefix of its
    first m > n.
    """
    if not len(keys):
        return np.empty((0, n))
    words = np.asarray(keys, dtype=np.uint64)
    h = np.full(len(words), words.shape[1], dtype=np.uint64)
    for column in words.T:
        h = _finalize(h ^ column)
    counters = np.arange(1, n + 1, dtype=np.uint64) * _GAMMA
    return (_finalize(h[:, None] + counters) >> 11) * 2.0 ** -53


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
        if self.seed < 0:   # a stream key's entries are uint64
            raise ConfigError("seed must be at least 0")
        if self.seed > SEED_MAX:
            raise ConfigError(f"seed must be at most {SEED_MAX}")
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
        if self.render_mode not in RENDER_MODES:
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
    stripped = [raw.partition("#")[0].strip() for raw in lines]
    for lineno, line in enumerate(stripped, start=1):
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
            if line[1:-1].strip() not in names:
                raise top.fail(f"unknown section {line}", lineno)
            sections.append(Section(top.source, lineno, error))
            continue
        key, equals, value = line.partition("=")
        if not equals:
            raise top.fail(f"expected key = value, got {line!r}", lineno)
        sections[-1].rows[key.strip()] = (lineno, value.strip())
    return sections


def fill(target, section: Section, required=()):
    """Set dataclass ``target``'s fields from ``section`` and return it; any
    field may appear, and ``required`` must. The targets declare no ClassVar
    or InitVar, so their ``__dataclass_fields__`` are their fields, read
    without `dataclasses.fields`' per-call tuple."""
    allowed = target.__dataclass_fields__
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
        value = list(map(float, raw.split())) if kind in (list, tuple) else kind(raw)
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
    return config
