"""Run configuration: a flat key=value file with CLI-flag overrides.

Every hyperparameter has a default; unknown keys are rejected so typos
fail loudly (exit code 2 at the CLI). The PLINK_SEED environment variable,
when set, overrides the seed from both the file and the flags.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError


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
    render_fine: int = 0  # 0 = reuse n_fine
    # evaluation
    threshold_cm: float = 20.0

    def validate(self) -> "RunConfig":
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError("alpha must lie in [0, 1]")
        if self.s_max <= 0.0 or self.n_bins < 2 or self.n_fine < 1:
            raise ConfigError("s_max, n_bins, n_fine must be positive (n_bins >= 2)")
        if self.epochs < 1 or self.batch_rays < 1 or self.n_frames < 1:
            raise ConfigError("epochs, batch_rays, n_frames must be at least 1")
        if np.any(np.diff(np.asarray(self.elevations)) <= 0.0):
            raise ConfigError("elevations must be strictly increasing")
        if not (0.0 < self.confidence_level < 1.0):
            raise ConfigError("confidence_level must lie in (0, 1)")
        if self.render_mode not in ("stochastic", "confidence", "first-return",
                                    "strongest-return"):
            raise ConfigError(f"unknown render mode {self.render_mode!r}")
        return self


_BOOL_STRINGS = {"true": True, "1": True, "yes": True,
                 "false": False, "0": False, "no": False}


def _coerce(name: str, kind, raw: str):
    if kind is bool:
        try:
            return _BOOL_STRINGS[raw.strip().lower()]
        except KeyError:
            raise ConfigError(f"{name}: expected a boolean, got {raw!r}") from None
    if kind is list:
        return [float(v) for v in raw.split()]
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{name}: expected {kind.__name__}, got {raw!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse the flat key=value format ('#' starts a comment)."""
    defaults = RunConfig()
    types = {f.name: type(getattr(defaults, f.name)) for f in fields(RunConfig)}
    config = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(config, key, _coerce(key, types[key], value))
    return config


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


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
