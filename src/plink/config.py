"""The key = value file format, and the run configuration kept in it.

Run configs and scene files share one format: ``key = value`` lines,
``#`` comments, and ``[name]`` lines that open sections. ``fill`` types each
value by its dataclass field's default: bool, int, float, str, a list of
numbers, or a tuple of as many numbers as the default. Numbers must be
finite. An unknown section or key, a mistyped value and a missing required
key are errors naming the file, the line and the key (exit 2 at the CLI).
A key given twice keeps its last value.

Every run hyperparameter has a default; CLI flags override the file.
The seed keys every random stream: weight init ``(seed, 0xC0A23E)``,
coarse first; batch order ``(seed, 0x0BDE4)``; training draws ``(seed, ray
id, epoch)``; render draws ``(seed, ray id, RENDER_STREAM)``; simulated
pulses ``(seed, frame, beam, azimuth)``. A key's stream is, bit for bit,
numpy's ``default_rng(SeedSequence(key))``, built one way for every key
(`_generators`): SeedSequence's hashing as uint32 array arithmetic over a
batch of keys, then numpy's own PCG64 from each key's state. `stream`
gives one key's Generator (init, batch order), `stream_uniforms` a batch's
first n uniforms (per-ray and per-pulse draws). No SeedSequence is built:
numpy's own is only the tests' reference.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, InvalidInputError
from .net import check_shape
from .sensor import SensorIntrinsics

# Keys that size arrays, at most the checkpoint header's int32.
SIZE_KEYS = ("azimuth_count", "n_frames", "n_bins", "n_fine", "batch_rays", "encoding_levels",
             "dir_levels", "hidden_width", "hidden_layers", "render_draws")
INT32_MAX = 2 ** 31 - 1

# The render modes `pipeline.render_ray` picks ranges by; WEIGHTED_DEPTH, the
# mass-weighted mean depth, is the depth-L2 baseline's.
WEIGHTED_DEPTH = "weighted-depth"
RENDER_MODES = ("stochastic", "confidence", "first-return", "strongest-return", WEIGHTED_DEPTH)


def _key_words(key) -> list:
    """SeedSequence's uint32 words of a tuple of ints: each entry's 32-bit
    words, low first. A negative entry raises numpy's ValueError."""
    words = []
    for n in key:
        n = operator.index(n)
        if n < 0:
            raise ValueError("expected non-negative integer")   # numpy's own message
        words.append(n & 0xFFFFFFFF)
        while n >> 32:
            n >>= 32
            words.append(n & 0xFFFFFFFF)
    return words


# numpy's SeedSequence (numpy/random/bit_generator.pyx) with its default pool
# of four words: the two hash-constant sequences' seeds and multipliers, and
# the mixer's multipliers.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**j`` mod 2**32 for j < count, as a (count, 1) uint32 column."""
    out = [init]
    while len(out) < count:
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


# The pool's hash constant before and after each of its hashmix calls: four
# to fill the pool, 4 * 3 to mix it, and four per entropy word past the pool.
@functools.lru_cache(maxsize=None)
def _pool_constants(n_words: int) -> np.ndarray:
    return _powers(_INIT_A, _MULT_A, 1 + _POOL * _POOL + _POOL * max(n_words - _POOL, 0))


# generate_state(4, uint64) takes eight uint32 words, cycling through the pool.
_STATE_CONSTANTS = _powers(_INIT_B, _MULT_B, 9)
_STATE_POOL_ROWS = np.arange(8) % _POOL


def _hashmix(value, constants, j: int, count: int):
    """SeedSequence's hashmix of ``value`` for its calls j to j + count - 1."""
    value = (value ^ constants[j:j + count]) * constants[j + 1:j + 1 + count]
    return value ^ (value >> _SHIFT)


def _mix(x, y):
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> _SHIFT)


def _seed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(w).generate_state(4, np.uint64)`` for every column w of
    ``words`` (n_words, N) uint32, as an (N, 4) uint64 array.

    SeedSequence's loops run in their order, each step on all N keys at once;
    the mixing steps from one source word to the other three pool words
    read nothing that step writes, so they run as one. The arithmetic is on
    uint32 arrays, whose products wrap silently: no scalar overflow warns.
    """
    n_words, n = words.shape
    constants = _pool_constants(n_words)
    pool = np.zeros((_POOL, n), dtype=np.uint32)
    pool[:min(n_words, _POOL)] = words[:_POOL]
    pool = _hashmix(pool, constants, 0, _POOL)
    j = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants, j, _POOL - 1))
        j += _POOL - 1
    for src in range(_POOL, n_words):
        pool = _mix(pool, _hashmix(words[src], constants, j, _POOL))
        j += _POOL
    state = _hashmix(pool[_STATE_POOL_ROWS], _STATE_CONSTANTS, 0, 8)
    # Little-endian word pairs, as generate_state views them.
    return np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)


@functools.lru_cache(maxsize=None)
def _given_state():
    """The seed sequence that hands numpy's PCG64 a state computed beforehand.

    Built at the first draw, so that importing plink does not load
    ``numpy.random``.
    """
    class GivenState(np.random.bit_generator.ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state   # PCG64 asks only for its four uint64 words

    return GivenState


def _generators(keys):
    """Yield (i, the stream of ``keys[i]``) for every key: `_seed_states`
    hashes the keys of each word count at once, and numpy's own PCG64
    starts from each key's state."""
    rows = [_key_words(key) for key in keys]
    given_state, pcg64, generator = _given_state(), np.random.PCG64, np.random.Generator
    for count in set(map(len, rows)):
        index = [i for i, words in enumerate(rows) if len(words) == count]
        states = _seed_states(np.array([rows[i] for i in index], dtype=np.uint32).T)
        for i, state in zip(index, states):
            yield i, generator(pcg64(given_state(state)))


def stream(*key) -> np.random.Generator:
    """The stream keyed on ``key``; a negative entry raises ValueError."""
    return next(_generators([key]))[1]


def stream_uniforms(keys, n: int) -> np.ndarray:
    """(N, n) uniforms in [0, 1): row i is ``stream(*keys[i]).random(n)``,
    all N streams from one `_generators` pass."""
    out = np.empty((len(keys), n))
    for i, rng in _generators(keys):
        rng.random(out=out[i])
    return out


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


def fill(target, section: Section, required=()):
    """Set dataclass ``target``'s fields from ``section`` and return it; any
    field may appear, and ``required`` must."""
    allowed = [f.name for f in fields(target)]
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
    return config
