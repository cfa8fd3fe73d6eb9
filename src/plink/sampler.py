"""Coarse-to-fine ray marching and the joint training step.

One batched march serves training and rendering. A proposal network is
evaluated on uniform bin centers along each ray; its normalized output is a
histogram whose masses place the fine test points, and the fine network is
evaluated on the union of those points and the bin edges. The callers differ
only in what they pass in: training runs each network through a
`net.ModelGraph`, whose `(sigma, phi)` leaves start the autodiff tape, and
places points by stratified importance sampling on per-ray streams;
rendering runs the plain forward and takes deterministic mass-quantile
midpoints. The tape records only the loss head; the MLPs have a
hand-written backward in `net`. The fine network is trained on the
distribution and drop objectives, the proposal on the underestimation hinge
against the (detached) fine field, one optimizer step each per batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import net as nets
from .errors import DivergenceError, InvalidInputError
from .field import cdf_from_sigma_values, bin_masses, trapezoid_deltas
from .losses import (DEFAULT_ALPHA, LossBreakdown, bce_values, bin_accumulate,
                     hinge_values, measurement_counts, pooled_drop_values,
                     step_mismatch_values)

MIN_GAP = 1e-9


@dataclass
class ProposalHistogram:
    """Normalized per-ray bin heights driving importance sampling."""

    bin_edges: np.ndarray
    heights: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        self.bin_edges = np.asarray(self.bin_edges, dtype=float)
        self.heights = np.asarray(self.heights, dtype=float)
        if self.bin_edges.size != self.heights.size + 1:
            raise InvalidInputError("need one more edge than heights")
        if np.any(np.diff(self.bin_edges) <= 0.0):
            raise InvalidInputError("bin edges must be strictly increasing")
        if np.any(self.heights < 0.0):
            raise InvalidInputError("heights must be nonnegative")

    @property
    def masses(self) -> np.ndarray:
        return self.heights * np.diff(self.bin_edges)


@dataclass
class FinePointSet:
    """Importance-sampled path distances plus their source bin indices."""

    points: np.ndarray
    provenance: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.provenance = np.asarray(self.provenance, dtype=int)
        if self.points.shape != self.provenance.shape:
            raise InvalidInputError("points and provenance must be congruent")


def uniform_bin_centers(s_max: float, n_bins: int) -> np.ndarray:
    width = s_max / n_bins
    return (np.arange(n_bins) + 0.5) * width


def uniform_bin_edges(s_max: float, n_bins: int) -> np.ndarray:
    return np.linspace(0.0, s_max, n_bins + 1)


def histogram_from_coarse(model, origins, dirs, s_max: float, n_bins: int, scale,
                          forward):
    """Normalized proposal masses (B, n_bins) from the coarse field at the bin centers.

    ``forward(model, feats)`` is the network pass; the result is a Tensor
    when sigma is a tape leaf, a plain array otherwise.
    """
    if n_bins < 2:
        raise InvalidInputError("need at least two coarse bins")
    centers = uniform_bin_centers(s_max, n_bins)
    widths = np.diff(uniform_bin_edges(s_max, n_bins))
    points = origins[:, None, :] + centers[None, :, None] * dirs[:, None, :]
    sigma, _ = forward(model, _encode_batch(model, points, dirs, scale))
    masses = sigma.reshape(len(origins), n_bins) * widths
    return masses / (masses.sum(axis=-1, keepdims=True) + 1e-12)


def histogram_from_heights(edges: np.ndarray, raw_heights: np.ndarray) -> ProposalHistogram:
    widths = np.diff(edges)
    total = float(np.sum(raw_heights * widths))
    if total <= 0.0:
        uniform = np.full(widths.size, 1.0 / (edges[-1] - edges[0]))
        return ProposalHistogram(edges, uniform, degenerate=True)
    return ProposalHistogram(edges, raw_heights / total)


def importance_sample(histogram: ProposalHistogram, n_fine: int, rng) -> FinePointSet:
    """Stratified draws from the histogram, sorted ascending.

    Bin selection inverts the mass CDF on stratified uniforms; placement
    within the chosen bin is uniform.
    """
    if n_fine < 1:
        raise InvalidInputError("need at least one fine point")
    masses = histogram.masses
    cdf = np.cumsum(masses)
    cdf[-1] = max(cdf[-1], 1.0)  # guard against round-off shortfall at the top
    u = (np.arange(n_fine) + rng.random(n_fine)) / n_fine
    bins = np.searchsorted(cdf, u, side="left")
    left = histogram.bin_edges[bins]
    width = np.diff(histogram.bin_edges)[bins]
    points = left + rng.random(n_fine) * width
    order = np.argsort(points, kind="stable")
    return FinePointSet(points[order], bins[order])


def quantile_points(histograms: list, n_fine: int) -> np.ndarray:
    """Deterministic render placement: mass-quantile bin midpoints, (B, n_fine).

    All histograms share their bin edges; rows come out ascending.
    """
    edges = histograms[0].bin_edges
    cdf = np.cumsum([h.masses for h in histograms], axis=-1)
    cdf[:, -1] = np.maximum(cdf[:, -1], 1.0)
    u = (np.arange(n_fine) + 0.5) / n_fine
    # Per row, the count of cdf values below u is searchsorted(cdf, u, "left").
    bins = np.count_nonzero(cdf[:, None, :] < u[:, None], axis=-1)
    return edges[bins] + 0.5 * np.diff(edges)[bins]


def strictify(gammas: np.ndarray, min_gap: float = MIN_GAP) -> np.ndarray:
    """Force strictly increasing rows by nudging duplicate values forward.

    Left to right, a value not above its (already nudged) left neighbour
    becomes that neighbour plus ``min_gap``: one pass over the columns, on
    every row that stalls anywhere at once.
    """
    gammas = np.array(gammas, dtype=float, copy=True)
    flat = np.atleast_2d(gammas)
    rows = np.flatnonzero((np.diff(flat, axis=1) <= 0.0).any(axis=1))
    if rows.size:
        stalled = flat[rows]
        for j in range(1, flat.shape[1]):
            left = stalled[:, j - 1]
            stalled[:, j] = np.where(stalled[:, j] <= left, left + min_gap, stalled[:, j])
        flat[rows] = stalled
    return gammas


def fine_grid_rows(fine_points: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Sorted union of sampled points and bin edges, per ray row.

    Including the edges guarantees every proposal bin has integration
    support, so the per-bin hinge integral is never empty.
    """
    fine_points = np.atleast_2d(fine_points)
    tiled = np.broadcast_to(edges, (fine_points.shape[0], edges.size))
    merged = np.sort(np.concatenate([fine_points, tiled], axis=1), axis=1)
    return strictify(merged)


def ray_rng(seed: int, ray_id: int, epoch: int) -> np.random.Generator:
    """Dedicated stream per (seed, ray, epoch); reproducible batch order free."""
    return np.random.default_rng(np.random.SeedSequence((seed, ray_id, epoch)))


@dataclass
class TrainState:
    """Both networks with their optimizer accumulators."""

    coarse: nets.FieldModel
    fine: nets.FieldModel
    opt_coarse: nets.AdamState
    opt_fine: nets.AdamState

    @classmethod
    def fresh(cls, coarse: nets.FieldModel, fine: nets.FieldModel) -> "TrainState":
        return cls(coarse, fine, nets.AdamState.for_model(coarse),
                   nets.AdamState.for_model(fine))


@dataclass
class StepConfig:
    """Hyperparameters consumed by one training step."""

    n_bins: int = 64
    n_fine: int = 64
    lr: float = 5e-4
    alpha: float = DEFAULT_ALPHA
    seed: int = 0
    depth_l2: bool = False  # deterministic weighted-depth baseline objective


def march(state: TrainState, origins: np.ndarray, dirs: np.ndarray, s_max: float,
          n_bins: int, scale, forward, place) -> tuple:
    """Coarse -> proposal -> fine evaluation of a batch of B rays.

    ``forward(model, feats) -> (sigma, phi)`` runs a network (tape leaves
    or plain arrays); ``place(histograms) -> (B, n_fine)`` puts the fine
    points from the per-ray proposal histograms. Returns ``(hist_masses, grid,
    deltas, sigma, phi, cdf)``, each with B rows.
    """
    hist_masses = histogram_from_coarse(state.coarse, origins, dirs, s_max, n_bins,
                                        scale, forward)
    # Placement happens outside any graph: sample positions are constants
    # with respect to both parameter vectors.
    edges = uniform_bin_edges(s_max, n_bins)
    widths = np.diff(edges)
    histograms = [histogram_from_heights(edges, row / widths)
                  for row in ad.value_of(hist_masses)]
    grid = fine_grid_rows(place(histograms), edges)          # (B, J)
    deltas = trapezoid_deltas(grid)
    points = origins[:, None, :] + grid[:, :, None] * dirs[:, None, :]
    sigma, phi = forward(state.fine, _encode_batch(state.fine, points, dirs, scale))
    sigma, phi = sigma.reshape(grid.shape), phi.reshape(grid.shape)
    cdf, _ = cdf_from_sigma_values(sigma, deltas)
    return hist_masses, grid, deltas, sigma, phi, cdf


def train_step(state: TrainState, rays: list, config: StepConfig, scale,
               epoch: int = 0):
    """One joint optimization step over a ray batch.

    The march runs both networks through a `net.ModelGraph`, whose
    ``(sigma, phi)`` leaves start the tape, and places the fine points by
    stratified draws on each ray's (seed, ray, epoch) stream. Then the fine
    loss on the cumulative trace, and the proposal hinge against the
    detached fine field; `net.backward` takes each loss through the tape
    to the leaves and on through the hand-written MLP backward. Fine and
    coarse parameters each receive one optimizer step, fine first.
    """
    if not rays:
        raise InvalidInputError("ray batch must be nonempty")
    if not state.fine.has_phi_head:
        raise InvalidInputError("the fine model must carry the drop channel head")
    s_max = rays[0].s_max
    if any(r.s_max != s_max for r in rays):
        raise InvalidInputError("all rays in a batch must share s_max")
    graphs = []

    def record(model, feats):
        graphs.append(nets.ModelGraph(model))
        return graphs[-1].forward(feats)

    def stratified(histograms):
        return np.stack([
            importance_sample(h, config.n_fine, ray_rng(config.seed, r.ray_id, epoch)).points
            for h, r in zip(histograms, rays)])

    hist_masses, grid, deltas, sigma_f, phi_f, cdf = march(
        state, np.stack([r.origin for r in rays]), np.stack([r.direction for r in rays]),
        s_max, config.n_bins, scale, record, stratified)
    coarse_graph, fine_graph = graphs

    if config.depth_l2:
        l_c = _depth_l2_term(cdf, grid, rays)
    else:
        l_c = _cdf_term(cdf, deltas, grid, rays)

    q_true = np.array([float(r.drop_flag) for r in rays])
    q_hat = pooled_drop_values(phi_f, bin_masses(cdf))
    l_drop = bce_values(q_true, q_hat)
    l_fine = config.alpha * l_c + (1.0 - config.alpha) * l_drop

    fine_tape = nets.backward(fine_graph, l_fine)
    if not np.isfinite(fine_tape.loss):
        raise DivergenceError("fine loss is non-finite")

    # Proposal hinge: fine masses are detached constants (stop gradient).
    edges = uniform_bin_edges(s_max, config.n_bins)
    fine_bin_mass = bin_accumulate(ad.value_of(sigma_f) * deltas, grid, edges)
    totals = fine_bin_mass.sum(axis=-1, keepdims=True)
    fine_bin_mass = np.where(totals > 1e-12, fine_bin_mass / np.maximum(totals, 1e-300),
                             1.0 / config.n_bins)
    l_coarse = hinge_values(fine_bin_mass, hist_masses).mean()
    coarse_tape = nets.backward(coarse_graph, l_coarse)
    if not np.isfinite(coarse_tape.loss):
        raise DivergenceError("coarse loss is non-finite")

    nets.opt_step(state.fine, fine_tape, config.lr, state.opt_fine)
    nets.opt_step(state.coarse, coarse_tape, config.lr, state.opt_coarse)

    return LossBreakdown(
        l_c=float(ad.value_of(l_c)),
        l_drop=float(ad.value_of(l_drop)),
        l_coarse=coarse_tape.loss,
        l_fine=fine_tape.loss,
        alpha=config.alpha,
    )


def _encode_batch(model, points_world, dirs, scale) -> np.ndarray:
    """Flatten (B, J, 3) world points into encoded features (B*J, D).

    The B ray directions are encoded once per ray, not once per point.
    """
    flat = scale.apply(points_world.reshape(-1, 3))
    return nets.encode(flat, dirs if model.use_direction else None,
                       model.encoding_levels, model.dir_levels)


def _cdf_term(cdf, deltas, grid, rays):
    """Batch-mean step-mismatch over the rays that carry measurements."""
    n_rays, n_points = grid.shape
    counts = np.zeros((n_rays, n_points))
    k = np.zeros(n_rays)
    for i, ray in enumerate(rays):
        if ray.measurements.size:
            counts[i] = measurement_counts(np.sort(ray.measurements), grid[i])
            k[i] = ray.measurements.size
    return _measured_mean(step_mismatch_values(cdf, deltas, counts, k), k)


def _depth_l2_term(cdf, grid, rays):
    """Deterministic baseline: squared error of the composited expected depth.

    Weights follow the standard opacity-compositing rule (per-bin mass of
    the cumulative trace), normalized per ray before the depth dot product.
    """
    masses = bin_masses(cdf)
    totals = ad.reduce_sum(masses, axis=-1, keepdims=True) + 1e-12
    depth = ad.reduce_sum(masses * grid, axis=-1) / totals.reshape(len(rays))
    d_mean = np.zeros(len(rays))
    d_var = np.zeros(len(rays))
    k = np.zeros(len(rays))
    for i, ray in enumerate(rays):
        if ray.measurements.size:
            d_mean[i] = ray.measurements.mean()
            d_var[i] = max(0.0, float(np.mean(ray.measurements ** 2)) - d_mean[i] ** 2)
            k[i] = ray.measurements.size
    # mean_k (d_k - D)^2 expands to (D - dbar)^2 + var(d).
    return _measured_mean((depth - d_mean) ** 2 + d_var, k)


def _measured_mean(per_ray, k):
    """Batch mean of a per-ray term over the rays with measurements (k > 0)."""
    contributing = float(np.count_nonzero(k))
    if contributing == 0.0:
        return per_ray.sum() * 0.0
    return ad.reduce_sum(per_ray * ((k > 0).astype(float) / contributing))
