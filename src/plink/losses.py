"""Training objectives.

Four terms drive the two networks:

* a squared mismatch between the predicted cumulative distribution and a
  unit step function per range measurement, integrated along the ray;
* an asymmetric hinge that punishes proposal-histogram bins whose mass
  underestimates the (normalized) fine-field integral over the bin;
* binary cross-entropy on a pooled per-ray drop estimate;
* the weighted combination of the first and third, alpha defaulting to 0.999.

The ``*_values`` kernels operate on plain arrays or autodiff Tensors; the
public operations validate their dataclass inputs and return floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DegenerateInputError, InvalidInputError
from .field import CdfTrace, SigmaTrace, bin_masses

BCE_EPS = 1e-7
NORMALIZATION_TOL = 1e-6
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


# -- public operations ---------------------------------------------------------


def cdf_loss(trace: CdfTrace, measurements) -> float:
    """Step-function mismatch of a cumulative trace against range measurements.

    Empty measurement lists mean a drop-only ray: no contribution, returns 0.
    """
    measurements = np.asarray(measurements, dtype=float)
    if measurements.size == 0:
        return 0.0
    s_max = trace.grid.gammas[-1]
    if np.any(measurements <= 0.0) or np.any(measurements > s_max + 1e-9):
        raise InvalidInputError("measurements must lie in (0, s_max]")
    counts = np.searchsorted(np.sort(measurements), trace.grid.gammas, side="right")
    value = step_mismatch_values(trace.cdf, trace.grid.deltas, counts, measurements.size)
    return float(value)


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


def normalize_for_coarse(histogram, fine_trace: SigmaTrace, fallback_uniform: bool = False):
    """Scale histogram masses to sum 1 and the fine field to unit integral.

    Raises on all-zero input unless ``fallback_uniform`` is set, in which
    case the degenerate side becomes a uniform distribution (used early in
    training when the fields have not yet produced any mass).
    """
    from .sampler import ProposalHistogram  # local import: avoids module cycle

    widths = np.diff(histogram.bin_edges)
    mass_total = float(np.sum(histogram.heights * widths))
    sigma_total = float(np.sum(fine_trace.sigmas * fine_trace.grid.deltas))

    if mass_total <= 0.0:
        if not fallback_uniform:
            raise DegenerateInputError("histogram carries no mass")
        heights = np.full_like(histogram.heights, 1.0 / widths.sum())
    else:
        heights = histogram.heights / mass_total
    norm_hist = ProposalHistogram(histogram.bin_edges, heights)

    if sigma_total <= 0.0:
        if not fallback_uniform:
            raise DegenerateInputError("fine field carries no mass")
        sigmas = np.full_like(fine_trace.sigmas, 1.0 / np.sum(fine_trace.grid.deltas))
    else:
        sigmas = fine_trace.sigmas / sigma_total
    norm_trace = SigmaTrace(fine_trace.grid, sigmas)
    return norm_hist, norm_trace


def coarse_loss(histogram, fine_trace: SigmaTrace) -> float:
    """Asymmetric proposal loss; both inputs must already be normalized."""
    widths = np.diff(histogram.bin_edges)
    hist_masses = histogram.heights * widths
    if abs(hist_masses.sum() - 1.0) > NORMALIZATION_TOL:
        raise InvalidInputError("histogram masses must sum to 1")
    fine_masses = bin_accumulate(fine_trace.sigmas * fine_trace.grid.deltas,
                                 fine_trace.grid.gammas, histogram.bin_edges)
    if abs(fine_masses.sum() - 1.0) > NORMALIZATION_TOL:
        raise InvalidInputError("fine field integral must equal 1")
    return float(hinge_values(fine_masses, hist_masses))


def pool_ray_drop(phi, trace: CdfTrace) -> float:
    """Pool the drop channel with per-bin return mass as the weighting.

    Occluded samples carry near-zero mass and therefore contribute
    near-zero weight, whatever their raw channel value.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != trace.grid.gammas.shape:
        raise InvalidInputError("phi must share the trace grid")
    return float(pooled_drop_values(phi, bin_masses(trace.cdf)))


def drop_bce(q_true, q_hat) -> float:
    """Binary cross-entropy between drop flags and pooled estimates."""
    q_true = np.asarray(q_true, dtype=float)
    q_hat = np.asarray(q_hat, dtype=float)
    if q_true.shape != q_hat.shape or q_true.size == 0:
        raise InvalidInputError("flag and estimate vectors must match and be nonempty")
    return float(bce_values(q_true, q_hat))


def fine_loss(l_c: float, l_drop: float, alpha: float = DEFAULT_ALPHA) -> float:
    """Weighted combination of the distribution and drop objectives."""
    if not (0.0 <= alpha <= 1.0):
        raise InvalidInputError("alpha must lie in [0, 1]")
    return alpha * l_c + (1.0 - alpha) * l_drop
