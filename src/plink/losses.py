"""Training objectives.

Four terms drive the two networks:

* a squared mismatch between the predicted cumulative distribution and a
  unit step function per range measurement, integrated along the ray;
* an asymmetric hinge that punishes proposal-histogram bins whose mass
  underestimates the (normalized) fine-field integral over the bin;
* binary cross-entropy on a pooled per-ray drop estimate;
* the weighted combination of the first and third, alpha defaulting to 0.999.

Each term has one definition, a kernel over a batch of B rays: (B, J)
rows on the fine grid or (B, n_bins) rows of proposal masses, as plain
arrays or autodiff Tensors. `sampler.train_step` calls them on the rows of
its march, and rendering pools the drop channel with `pooled_drop_values`.
The kernels do not validate; their callers build well-formed rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError

BCE_EPS = 1e-7
DEFAULT_ALPHA = 0.999


@dataclass
class LossBreakdown:
    """All scalar loss terms for one training step."""

    l_c: float
    l_drop: float
    l_coarse: float
    l_fine: float
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if min(self.l_c, self.l_drop, self.l_coarse, self.l_fine) < 0.0:
            raise InvalidInputError("loss terms must be nonnegative")
        expected = self.alpha * self.l_c + (1.0 - self.alpha) * self.l_drop
        if abs(self.l_fine - expected) > 1e-9:
            raise InvalidInputError("fine loss must equal the alpha combination")


# -- kernels -------------------------------------------------------------------


def step_mismatch_values(cdf, deltas, counts, n_measurements):
    """Sum over measurements of the discretized step/cdf squared mismatch.

    ``counts[j]`` is the number of measurements d with d <= gamma_j, so the
    sum over the K individual step functions collapses to

        sum_j [ counts_j * (1 - C_j)^2 + (K - counts_j) * C_j^2 ] * delta_j

    which is exactly the K-term sum without materializing K step rows.
    Works on (..., J) arrays or Tensors; returns per-ray values (...,).
    """
    counts = np.asarray(counts, dtype=float)
    misses = n_measurements - counts if np.isscalar(n_measurements) \
        else np.asarray(n_measurements, dtype=float)[..., None] - counts
    above = (1.0 - cdf) ** 2 * counts
    below = cdf ** 2 * misses
    return ad.reduce_sum((above + below) * deltas, axis=-1)


def pooled_drop_values(phi, masses):
    """Sigmoid of the mass-weighted sum of the drop channel, per ray."""
    return ad.sigmoid(ad.reduce_sum(masses * phi, axis=-1))


def bce_values(q_true, q_hat):
    """Mean binary cross-entropy with the estimate clamped away from {0, 1}."""
    q_true = np.asarray(q_true, dtype=float)
    q = ad.clip(q_hat, BCE_EPS, 1.0 - BCE_EPS)
    per = q_true * ad.log(q) + (1.0 - q_true) * ad.log(1.0 - q)
    return -1.0 * ad.reduce_sum(per) * (1.0 / q_true.size)


def hinge_values(fine_bin_masses, histogram_masses):
    """Underestimation-only hinge between normalized per-bin masses."""
    gap = -1.0 * histogram_masses + fine_bin_masses
    return ad.reduce_sum(ad.maximum0(gap), axis=-1)


def measurement_counts(measurements_sorted: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """#measurements <= gamma_j for each grid point (measurements pre-sorted)."""
    return np.searchsorted(measurements_sorted, gammas, side="right").astype(float)


def bin_accumulate(per_sample: np.ndarray, grid: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Sum per-sample mass rows (..., J) into proposal bins (..., n_bins) by location."""
    n_bins = edges.size - 1
    lead = grid.shape[:-1]
    grid = grid.reshape(-1, grid.shape[-1])
    n_rays, _ = grid.shape
    idx = np.clip(np.searchsorted(edges, grid, side="right") - 1, 0, n_bins - 1)
    out = np.zeros((n_rays, n_bins))
    rows = np.repeat(np.arange(n_rays), grid.shape[1])
    np.add.at(out, (rows, idx.ravel()), np.ravel(per_sample))
    return out.reshape(lead + (n_bins,))
