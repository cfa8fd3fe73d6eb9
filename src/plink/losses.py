"""Training objectives.

Four terms drive the two networks:

* a squared mismatch between the predicted cumulative distribution and a
  unit step function per range measurement, integrated along the ray;
* an asymmetric hinge that punishes proposal-histogram bins whose mass
  underestimates the (normalized) fine-field integral over the bin;
* binary cross-entropy on a pooled per-ray drop estimate;
* the weighted combination of the first and third, by the run's alpha.

Each term has one definition, a kernel over a batch of B rays: (B, J)
rows on the fine grid or (B, n_bins) rows of proposal masses. Beside each
is its adjoint (``*_vjp``): the gradient at the kernel's inputs from the
gradient at its output, written as a reverse-mode tape would run it, op by
op, so training's gradients round as the tape's would. `sampler.train_step`
calls them on the rows of its march, and rendering pools the drop channel
with `pooled_drop_values`. The kernels and `LossBreakdown` do not validate;
their callers build well-formed rows, and every term is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import sigmoid

BCE_EPS = 1e-7


@dataclass
class LossBreakdown:
    """All scalar loss terms for one training step; the fine loss is their alpha mix."""

    l_c: float
    l_drop: float
    l_coarse: float
    alpha: float

    @property
    def l_fine(self) -> float:
        return self.alpha * self.l_c + (1.0 - self.alpha) * self.l_drop


# -- kernels -------------------------------------------------------------------


def step_mismatch_values(cdf, deltas, counts, n_measurements):
    """Sum over measurements of the discretized step/cdf squared mismatch.

    ``counts[j]`` is the number of measurements d with d <= gamma_j, so the
    sum over the K individual step functions collapses to

        sum_j [ counts_j * (1 - C_j)^2 + (K - counts_j) * C_j^2 ] * delta_j

    which is exactly the K-term sum without materializing K step rows.
    Works on (..., J) rows; returns per-ray values (...,).
    """
    misses = np.asarray(n_measurements, dtype=float)[..., None] - counts
    return np.sum(((1.0 - cdf) ** 2 * counts + cdf ** 2 * misses) * deltas, axis=-1)


def step_mismatch_vjp(g, cdf, deltas, counts, n_measurements):
    """Gradient at the cdf from the per-ray gradient ``g`` (...,)."""
    g = g[..., None] * deltas
    misses = np.asarray(n_measurements, dtype=float)[..., None] - counts
    return g * misses * 2 * cdf - g * counts * 2 * (1.0 - cdf)


def pooled_drop_values(phi, masses):
    """Sigmoid of the mass-weighted sum of the drop channel, per ray."""
    return sigmoid(np.sum(masses * phi, axis=-1))


def pooled_drop_vjp(g, q, phi, masses):
    """(gradient at phi, gradient at masses) from the gradient at ``q``."""
    g = (g * q * (1.0 - q))[..., None]
    return g * masses, g * phi


def bce_values(q_true, q_hat):
    """Mean binary cross-entropy with the estimate clamped away from {0, 1}."""
    q_true = np.asarray(q_true, dtype=float)
    q = np.clip(q_hat, BCE_EPS, 1.0 - BCE_EPS)
    per = q_true * np.log(q) + (1.0 - q_true) * np.log(1.0 - q)
    return -1.0 * np.sum(per) * (1.0 / q_true.size)


def bce_vjp(g, q_true, q_hat):
    """Gradient at ``q_hat`` from the gradient at the mean; 0 where clamped."""
    q_true = np.asarray(q_true, dtype=float)
    q = np.clip(q_hat, BCE_EPS, 1.0 - BCE_EPS)
    g = g * (1.0 / q_true.size) * -1.0
    return (g * q_true / q - g * (1.0 - q_true) / (1.0 - q)) * (q == q_hat)


def hinge_values(fine_bin_masses, histogram_masses):
    """Underestimation-only hinge between normalized per-bin masses."""
    gap = fine_bin_masses - histogram_masses
    return np.sum(gap * (gap > 0), axis=-1)


def hinge_vjp(g, fine_bin_masses, histogram_masses):
    """Gradient at the histogram masses from the per-ray gradient ``g``."""
    return g[..., None] * (fine_bin_masses - histogram_masses > 0) * -1.0


def depth_l2_values(masses, grid, d_mean, d_var):
    """Deterministic baseline: squared error of the composited expected depth.

    Weights follow the standard opacity-compositing rule (per-bin
    ``masses`` of the cumulative trace), normalized per ray before the
    depth dot product. The target is each ray's mean measured range and
    the variance of its ranges: mean_k (d_k - D)^2 = (D - dbar)^2 + var(d).
    """
    depth = np.sum(masses * grid, axis=-1) * (1.0 / (np.sum(masses, axis=-1) + 1e-12))
    return (depth - d_mean) ** 2 + d_var


def depth_l2_vjp(g, masses, grid, d_mean):
    """Gradient at the masses from the per-ray gradient ``g``."""
    totals = np.sum(masses, axis=-1) + 1e-12
    weighted = np.sum(masses * grid, axis=-1)
    g_depth = g * 2 * (weighted * (1.0 / totals) - d_mean)
    g_totals = -(g_depth * weighted) / (totals * totals)
    return (g_depth * (1.0 / totals))[..., None] * grid + g_totals[..., None]


def measurement_counts(ranges: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """#measurements <= gamma_j per grid row (..., J), from inf-padded ranges (..., K)."""
    return np.count_nonzero(ranges[..., None, :] <= grid[..., :, None], axis=-1).astype(float)


def range_moments(ranges: np.ndarray, k: np.ndarray) -> tuple:
    """Per-row mean of the recorded ranges and of their squares, 0 where k = 0.

    ``ranges`` (..., K) are ascending and inf-padded, ``k`` counts each
    row's recorded ranges. The sums skip the padding rather than adding
    zeros for it, so each row sums as ``np.mean`` sums its k values.
    """
    recorded = ranges < np.inf
    return tuple(np.divide(np.sum(x, axis=-1, where=recorded), k,
                           out=np.zeros(k.shape), where=k > 0)
                 for x in (ranges, ranges ** 2))


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
