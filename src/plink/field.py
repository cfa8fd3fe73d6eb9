"""Per-ray return distributions.

The core quantity is a differential reflection probability sigma(s) sampled
along a ray. Integrating it gives the cumulative probability C(s) that a
return is generated at or before path distance s:

    C(s) = 1 - exp(-integral_0^s sigma)

Survival P(s) = 1 - C(s) is the probability the pulse is transmitted past s.
The kernels take a batch of rays at once: (B, J) rows of samples, plain
arrays or autodiff Tensors. Training and rendering both call them on the
rows of `sampler.march`. The dataclasses describe one ray: a pulse with its
recorded ranges (`Ray`), and the exact jump-list distribution that
`simscene.trace_true_cdf` returns (`SampleGrid`, `CdfTrace`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError

UNIT_NORM_TOL = 1e-9
COMPLEMENT_TOL = 1e-9


class Drop:
    """Distinguished non-return outcome. A single shared instance, ``DROP``."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DROP"


DROP = Drop()


def is_drop(x) -> bool:
    return isinstance(x, Drop)


@dataclass
class Ray:
    """A single emitted pulse direction with its recorded range outcomes.

    ``measurements`` holds every recorded range for this emitted-ray identity
    (possibly several conflicting values). ``drop_flag`` is 1 when at least
    one return was observed, 0 for a pure ray drop.
    """

    origin: np.ndarray
    direction: np.ndarray
    s_max: float
    measurements: np.ndarray = field(default_factory=lambda: np.empty(0))
    drop_flag: int = 1
    ray_id: int = 0

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.direction = np.asarray(self.direction, dtype=float)
        self.measurements = np.asarray(self.measurements, dtype=float)
        if self.origin.shape != (3,) or self.direction.shape != (3,):
            raise InvalidInputError("origin and direction must be 3-vectors")
        if abs(np.linalg.norm(self.direction) - 1.0) > UNIT_NORM_TOL:
            raise InvalidInputError("direction must be unit-norm")
        if self.measurements.size and (
            np.any(self.measurements <= 0.0) or np.any(self.measurements > self.s_max)
        ):
            raise InvalidInputError("measurements must lie in (0, s_max]")
        if self.drop_flag == 0 and self.measurements.size:
            raise InvalidInputError("a dropped ray cannot carry measurements")


@dataclass
class SampleGrid:
    """Ascending path distances with their elements of integration.

    Interior deltas follow the trapezoid rule, 0.5 * (g[j+1] - g[j-1]).
    The first element additionally covers the gap from the sensor to the
    first sample, so the summed deltas span [0, g[-1]] exactly.
    """

    gammas: np.ndarray
    deltas: np.ndarray

    def __post_init__(self):
        self.gammas = np.asarray(self.gammas, dtype=float)
        self.deltas = np.asarray(self.deltas, dtype=float)
        if self.gammas.shape != self.deltas.shape or self.gammas.ndim != 1:
            raise InvalidInputError("gammas and deltas must be 1-d and congruent")
        if self.gammas.size:
            if np.any(np.diff(self.gammas) <= 0.0):
                raise InvalidInputError("gammas must be strictly increasing")
            if self.gammas[0] < 0.0:
                raise InvalidInputError("gammas must be nonnegative")
            if np.any(self.deltas <= 0.0):
                raise InvalidInputError("deltas must be positive")

    @classmethod
    def from_gammas(cls, gammas) -> "SampleGrid":
        gammas = np.asarray(gammas, dtype=float)
        if gammas.size < 2:
            raise InvalidInputError("need at least two samples to build a grid")
        return cls(gammas, trapezoid_deltas(gammas))

    def __len__(self):
        return self.gammas.size


def trapezoid_deltas(gammas: np.ndarray) -> np.ndarray:
    """Integration elements for a batch of ascending sample rows.

    Works on shape (J,) or (B, J). Boundary rule: the first element gets the
    one-sided half plus the distance from 0 to the first sample; the last
    gets the one-sided half only.
    """
    gammas = np.asarray(gammas, dtype=float)
    deltas = np.empty_like(gammas)
    deltas[..., 1:-1] = 0.5 * (gammas[..., 2:] - gammas[..., :-2])
    deltas[..., 0] = 0.5 * (gammas[..., 1] - gammas[..., 0]) + gammas[..., 0]
    deltas[..., -1] = 0.5 * (gammas[..., -1] - gammas[..., -2])
    return deltas


@dataclass
class CdfTrace:
    """Cumulative return probability and its complement along a ray."""

    grid: SampleGrid
    cdf: np.ndarray
    survival: np.ndarray

    def __post_init__(self):
        self.cdf = np.asarray(self.cdf, dtype=float)
        self.survival = np.asarray(self.survival, dtype=float)
        if self.cdf.shape != self.grid.gammas.shape or self.survival.shape != self.cdf.shape:
            raise InvalidInputError("cdf and survival must match the grid")
        if self.cdf.size:
            if np.any(self.cdf < -1e-12) or np.any(self.cdf > 1.0 + 1e-12):
                raise InvalidInputError("cdf values must lie in [0, 1]")
            if np.any(np.diff(self.cdf) < -1e-12):
                raise InvalidInputError("cdf must be nondecreasing")
            if np.any(np.abs(self.cdf + self.survival - 1.0) > COMPLEMENT_TOL):
                raise InvalidInputError("cdf and survival must be complementary")

    @property
    def total_mass(self) -> float:
        return float(self.cdf[-1]) if self.cdf.size else 0.0


# -- kernels shared by the numpy ops and the differentiable training path -----


def cdf_from_sigma_values(sigmas, deltas):
    """(cdf, survival) from sigma samples; accumulates in log space.

    Accepts ndarray or autodiff Tensor with shape (..., J). The running
    survival product is a single exponential of a cumulative sum, so long
    rays with many bins cannot underflow term by term.
    """
    integral = ad.cumsum(sigmas * deltas, axis=-1)
    survival = ad.exp(-integral)
    cdf = 1.0 - survival
    return cdf, survival


def bin_masses(cdf):
    """Per-bin probability mass from a cumulative trace; mass[0] = cdf[0]."""
    if isinstance(cdf, ad.Tensor):
        first = cdf[..., :1]
        rest = cdf[..., 1:] - cdf[..., :-1]
        return ad.concatenate([first, rest], axis=-1)
    return np.concatenate([cdf[..., :1], np.diff(cdf, axis=-1)], axis=-1)
