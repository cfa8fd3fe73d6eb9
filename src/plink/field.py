"""Per-ray return distributions.

The core quantity is a differential reflection probability sigma(s) sampled
along a ray. Integrating it gives the cumulative probability C(s) that a
return is generated at or before path distance s:

    C(s) = 1 - exp(-integral_0^s sigma)

Survival P(s) = 1 - C(s) is the probability the pulse is transmitted past s.
The kernels take a batch of rays at once, (B, J) rows of samples, and
training and rendering both call them on the rows of `sampler.march`;
training's gradients go back through the adjoints (``*_vjp``) beside them.
The dataclasses describe rays: one emitted pulse (`Ray`), the training
rays with their recorded ranges as columns (`RaySet`), and the exact
jump-list distribution that `simscene.trace_true_cdf` returns
(`SampleGrid`, `CdfTrace`). Each check states what must hold, so that NaN
fails it. The per-ray ones run on arrays of a few elements, where numpy's
fixed per-call cost outweighs the arithmetic: they use array methods and
slices, not numpy's Python-level wrappers such as ``np.any`` or ``np.diff``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

UNIT_NORM_TOL = 1e-9
COMPLEMENT_TOL = 1e-9


@dataclass
class Ray:
    """One emitted pulse: origin, unit direction and range limit."""

    origin: np.ndarray
    direction: np.ndarray
    s_max: float

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.direction = np.asarray(self.direction, dtype=float)
        if self.origin.shape != (3,) or self.direction.shape != (3,):
            raise InvalidInputError("origin and direction must be 3-vectors")
        d = self.direction
        if not abs(math.sqrt(d.dot(d)) - 1.0) <= UNIT_NORM_TOL:
            raise InvalidInputError("direction must be unit-norm")


@dataclass
class RaySet:
    """R training rays as columns, checked all at once.

    ``ranges`` (R, K) holds each ray's recorded ranges in ascending order,
    padded with ``inf``; a row of ``inf`` is a pure ray drop. ``ids`` (R,)
    key each ray's sample streams and default to the row numbers. Indexing
    with an array or slice gives a ``RaySet`` of those rows with their ids;
    with an integer, that row's ``Ray``.
    """

    origins: np.ndarray
    dirs: np.ndarray
    ranges: np.ndarray
    s_max: float
    ids: np.ndarray | None = None

    def __post_init__(self):
        self.origins = np.asarray(self.origins, dtype=float)
        self.dirs = np.asarray(self.dirs, dtype=float)
        self.ranges = np.asarray(self.ranges, dtype=float)
        n = len(self.origins)
        self.ids = np.arange(n) if self.ids is None else np.asarray(self.ids)
        if (self.origins.shape != (n, 3) or self.dirs.shape != (n, 3)
                or self.ranges.ndim != 2 or len(self.ranges) != n or self.ids.shape != (n,)):
            raise InvalidInputError("origins and dirs must be (R, 3), ranges (R, K), ids (R,)")
        if not (np.abs(np.linalg.norm(self.dirs, axis=1) - 1.0) <= UNIT_NORM_TOL).all():
            raise InvalidInputError("directions must be unit-norm")
        padded = self.ranges == np.inf
        if not np.all((self.ranges > 0.0) & (self.ranges <= self.s_max) | padded):
            raise InvalidInputError("ranges must lie in (0, s_max]")

    def __len__(self):
        return len(self.origins)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return Ray(self.origins[index], self.dirs[index], self.s_max)
        return RaySet(self.origins[index], self.dirs[index], self.ranges[index],
                      self.s_max, self.ids[index])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


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
        g = self.gammas
        if g.size:
            if not (g[1:] > g[:-1]).all():
                raise InvalidInputError("gammas must be strictly increasing")
            if not g[0] >= 0.0:
                raise InvalidInputError("gammas must be nonnegative")
            if not (self.deltas > 0.0).all():
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
        c = self.cdf
        if c.size:
            if not ((c >= -1e-12) & (c <= 1.0 + 1e-12)).all():
                raise InvalidInputError("cdf values must lie in [0, 1]")
            if not (c[1:] - c[:-1] >= -1e-12).all():
                raise InvalidInputError("cdf must be nondecreasing")
            if not (np.abs(c + self.survival - 1.0) <= COMPLEMENT_TOL).all():
                raise InvalidInputError("cdf and survival must be complementary")

    @property
    def total_mass(self) -> float:
        return float(self.cdf[-1]) if self.cdf.size else 0.0


# -- kernels and their adjoints -------------------------------------------------


def cdf_from_sigma_values(sigmas, deltas):
    """(cdf, survival) from (..., J) sigma samples; accumulates in log space.

    The running survival product is a single exponential of a cumulative
    sum, so long rays with many bins cannot underflow term by term.
    """
    survival = np.exp(-np.cumsum(sigmas * deltas, axis=-1))
    return 1.0 - survival, survival


def cdf_vjp(g_cdf, survival, deltas):
    """Gradient at the sigma samples from the gradient at the cdf."""
    return np.cumsum((g_cdf * survival)[..., ::-1], axis=-1)[..., ::-1] * deltas


def bin_masses(cdf):
    """Per-bin probability mass from a cumulative trace; mass[0] = cdf[0]."""
    return np.concatenate([cdf[..., :1], np.diff(cdf, axis=-1)], axis=-1)


def bin_masses_vjp(g_masses, g_cdf):
    """Add the gradient at the cdf from the one at the masses into ``g_cdf``.

    Element j adds mass[j]'s gradient, then subtracts mass[j + 1]'s: the
    order in which a reverse-mode tape accumulates them.
    """
    g_cdf[..., :1] += g_masses[..., :1]
    g_cdf[..., 1:] += g_masses[..., 1:]
    g_cdf[..., :-1] -= g_masses[..., 1:]
    return g_cdf
