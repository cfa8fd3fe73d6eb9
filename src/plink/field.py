"""Per-ray return distributions.

The core quantity is a differential reflection probability sigma(s) sampled
along a ray. Integrating it gives the cumulative probability C(s) that a
return is generated at or before path distance s:

    C(s) = 1 - exp(-integral_0^s sigma)

Survival P(s) = 1 - C(s) is the probability the pulse is transmitted past s.
The kernels take a batch of rays at once, (B, J) rows of samples, and
training and rendering both call them on the rows of `sampler.march`;
training's gradients go back through the adjoints (``*_vjp``) beside them.
Quadrature lives only in these kernels: `trapezoid_deltas` gives a row's
elements of integration and `cdf_from_sigma_values` integrates on them.
The dataclasses describe rays: one emitted pulse (`Ray`), the training
rays with their recorded ranges as columns (`RaySet`), and the exact
distribution that `simscene.trace_true_cdf` returns. On an analytic scene
returns arrive at specific distances, so that distribution is a jump list:
the jump locations (`SampleGrid`) and the cdf after each jump (`CdfTrace`),
with nothing to integrate. Each fact is checked once, where data enters,
and no record checks it again. A `RaySet` holds `pipeline.build_rays`'
rows of frames whose ranges the scan reader checked (or the generator drew
in (1e-9, s_max]), whose origins are `Pose`-checked and whose directions
come from normalised quaternions; a `Ray` is one row, a batch a slice.
`trace_true_cdf`, the one producer of `SampleGrid` and `CdfTrace`, builds
knots strictly increasing in (1e-9, s_max] (merged within 1e-9 m) and a
cdf that accumulates. Nor does any of the three records convert what it
is given: their producers hand them float64 arrays (`RaySet`'s rows, and
`trace_true_cdf`'s), and a caller that builds one does the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Ray:
    """One emitted pulse: finite origin, unit direction and range limit in (0, inf)."""

    origin: np.ndarray
    direction: np.ndarray
    s_max: float


@dataclass
class RaySet:
    """R training rays as columns: (R, 3) origins and unit directions.

    ``ranges`` (R, K) holds each ray's recorded ranges in (0, s_max],
    ascending and padded with ``inf``; a row of ``inf`` is a pure ray drop.
    ``ids`` (R,) key each ray's sample streams and default to the row
    numbers. Every ray fired ``pulses`` pulses, whose returns are its
    ranges, so none records more: the frame count for rays pooled across
    frames, and the default 1 when each frame's ray is its own row.
    Indexing with an array or slice gives a ``RaySet`` of those rows with
    their ids; with an integer, that row's ``Ray``.
    """

    origins: np.ndarray
    dirs: np.ndarray
    ranges: np.ndarray
    s_max: float
    ids: np.ndarray | None = None
    pulses: int = 1

    def __post_init__(self):
        self.origins = np.asarray(self.origins, dtype=float)
        self.dirs = np.asarray(self.dirs, dtype=float)
        self.ranges = np.asarray(self.ranges, dtype=float)
        self.ids = np.arange(len(self.origins)) if self.ids is None else np.asarray(self.ids)

    def __len__(self):
        return len(self.origins)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return Ray(self.origins[index], self.dirs[index], self.s_max)
        return RaySet(self.origins[index], self.dirs[index], self.ranges[index],
                      self.s_max, self.ids[index], self.pulses)

    def __iter__(self):
        return (Ray(o, d, self.s_max) for o, d in zip(self.origins, self.dirs))


@dataclass
class SampleGrid:
    """The knots of an exact trace: 1-d, strictly increasing, nonnegative."""

    gammas: np.ndarray

    def __len__(self):
        return self.gammas.size


@dataclass
class CdfTrace:
    """Cumulative return probability after each knot of a jump list."""

    grid: SampleGrid
    cdf: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(self.cdf[-1]) if self.cdf.size else 0.0


# -- kernels and their adjoints -------------------------------------------------


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
