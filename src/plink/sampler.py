"""Coarse-to-fine ray marching and the joint training step.

One batched march serves training and rendering. A proposal network is
evaluated on uniform bin centers along each ray; its densities there are
the heights of one (B, n_bins) histogram, normalized once by
`histogram_from_heights` (a row without mass becomes uniform). The hinge
and the placement read the same masses: one placement kernel,
`importance_sample`, inverts every row's mass cdf at once to put the fine
test points. The fine network is evaluated on the union of those points
and the bin edges. The callers differ only in what they pass in: training
runs each network through a `net.ModelGraph`, which keeps what its
backward needs, and draws stratified offsets from per-ray streams
(`ray_draws`); rendering runs the plain forward and places at the
mass quantiles (`quantile_points`, every draw 0.5). The fine network is
trained on the distribution and drop objectives, the proposal on the
underestimation hinge against the (detached) fine field, one optimizer
step each per batch. Each gradient runs back through the loss kernels'
adjoints to the networks' outputs, then through `net.backward`.

A fine grid row is the sorted union of its fine points and the bin edges,
and it may repeat a knot: quantile placement puts every point it draws in
one bin at that bin's midpoint, and a stratified point can land on an
edge. Nothing downstream needs distinct knots: a repeat adds a zero-width
side to the trapezoid deltas, and the cdf, the measurement counts, the
hinge bins and the render pickers read the row as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import net as nets
from .errors import DivergenceError
from .config import RunConfig, stream, stream_uniforms
from .field import (RaySet, bin_masses, bin_masses_vjp, cdf_from_sigma_values, cdf_vjp,
                    trapezoid_deltas)
from .losses import (LossBreakdown, bce_values, bce_vjp, bin_accumulate, depth_l2_values,
                     depth_l2_vjp, hinge_values, hinge_vjp, measurement_counts,
                     pooled_drop_values, pooled_drop_vjp, range_moments,
                     step_mismatch_values, step_mismatch_vjp)


def uniform_bin_centers(s_max: float, n_bins: int) -> np.ndarray:
    width = s_max / n_bins
    return (np.arange(n_bins) + 0.5) * width


def uniform_bin_edges(s_max: float, n_bins: int) -> np.ndarray:
    return np.linspace(0.0, s_max, n_bins + 1)


def histogram_from_coarse(model, origins, dirs, s_max: float, n_bins: int, scale,
                          forward) -> Proposal:
    """The proposal (B, n_bins) with the coarse densities at the bin centers as heights.

    ``forward(model, feats) -> (sigma, phi)`` is the network pass.
    """
    centers = uniform_bin_centers(s_max, n_bins)
    points = origins[:, None, :] + centers[None, :, None] * dirs[:, None, :]
    sigma, _ = forward(model, _encode_batch(model, points, dirs, scale))
    return histogram_from_heights(uniform_bin_edges(s_max, n_bins),
                                  sigma.reshape(len(origins), n_bins))


class Proposal(NamedTuple):
    """Masses (..., n_bins) normalized over the bin ``edges``; the count of uniform rows."""

    masses: np.ndarray
    degenerate: int
    edges: np.ndarray


def histogram_from_heights(edges: np.ndarray, raw_heights: np.ndarray) -> Proposal:
    """Bin heights (..., n_bins) normalized to unit mass per row.

    A row without positive mass falls back to the uniform histogram; the
    result counts such rows in ``degenerate``.
    """
    widths = np.diff(edges)
    total = np.sum(raw_heights * widths, axis=-1, keepdims=True)
    flat = total <= 0.0
    heights = np.where(flat, 1.0 / (edges[-1] - edges[0]),
                       raw_heights * (1.0 / np.where(flat, 1.0, total)))
    return Proposal(heights * widths, int(np.count_nonzero(flat)), edges)


def histogram_vjp(g, raw_heights, edges):
    """Gradient at the heights from ``g`` at the masses, in the tape's order; 0 on flat rows."""
    widths = np.diff(edges)
    total = np.sum(raw_heights * widths, axis=-1, keepdims=True)
    safe = np.where(total <= 0.0, 1.0, total)
    g_heights = g * widths
    g_total = -np.sum(g_heights * raw_heights, axis=-1, keepdims=True) / (safe * safe)
    return np.where(total <= 0.0, 0.0, g_heights * (1.0 / safe) + g_total * widths)


def importance_sample(masses: np.ndarray, edges: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Stratified placement of n_fine points per row of ``masses``, unsorted.

    ``draws`` (B, 2 n_fine) holds uniforms in [0, 1): the first half offsets
    each stratum, and bin selection inverts the mass cdf at those levels;
    the second half places each point inside its bin. Returns (B, n_fine).
    """
    n_fine = draws.shape[-1] // 2
    cdf = np.cumsum(masses, axis=-1)
    cdf[..., -1] = np.maximum(cdf[..., -1], 1.0)  # round-off shortfall at the top
    u = (np.arange(n_fine) + draws[..., :n_fine]) / n_fine
    # Per row, the count of cdf values below u is searchsorted(cdf, u, "left").
    bins = np.count_nonzero(cdf[..., None, :] < u[..., None], axis=-1)
    return edges[bins] + draws[..., n_fine:] * np.diff(edges)[bins]


def quantile_points(masses: np.ndarray, edges: np.ndarray, n_fine: int) -> np.ndarray:
    """Deterministic render placement: mass-quantile bin midpoints, (B, n_fine)."""
    return importance_sample(masses, edges, np.full(masses.shape[:-1] + (2 * n_fine,), 0.5))


def fine_grid_rows(fine_points: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Sorted union of sampled points, in any order, and bin edges, per ray row.

    Including the edges guarantees every proposal bin has integration
    support, so the per-bin hinge integral is never empty. A row may repeat
    a knot (see the module docstring).
    """
    fine_points = np.atleast_2d(fine_points)
    tiled = np.broadcast_to(edges, (fine_points.shape[0], edges.size))
    return np.sort(np.concatenate([fine_points, tiled], axis=1), axis=1)


def ray_rng(seed: int, ray_id: int, epoch: int) -> np.random.Generator:
    """Dedicated stream per (seed, ray, epoch); reproducible batch order free.

    `ray_draws` draws from these streams through `stream_uniforms`, which
    builds no Generator per ray; this one stream is the tests' reference.
    """
    return stream(seed, ray_id, epoch)


def ray_draws(seed: int, ray_ids, epoch: int, n: int) -> np.ndarray:
    """(B, n) uniforms in [0, 1): row i is the first n draws of ray
    ``ray_ids[i]``'s (seed, ray id, epoch) stream (`ray_rng`), all B rows
    from one `stream_uniforms` call."""
    return stream_uniforms([(seed, int(i), epoch) for i in ray_ids], n)


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


def march(state: TrainState, origins: np.ndarray, dirs: np.ndarray, s_max: float,
          n_bins: int, scale, forward, place) -> tuple:
    """Coarse -> proposal -> fine evaluation of a batch of B rays.

    ``forward(model, feats) -> (sigma, phi)`` runs a network. The proposal
    holds (B, n_bins) normalized masses and their edges, and ``place(masses,
    edges) -> (B, n_fine)`` puts every ray's fine points from them at once.
    Returns ``(proposal, grid, deltas, sigma, phi, cdf, survival)``, the
    `Proposal` and then arrays with B rows.
    """
    proposal = histogram_from_coarse(state.coarse, origins, dirs, s_max, n_bins, scale,
                                     forward)
    # Sample positions are constants with respect to both parameter vectors.
    grid = fine_grid_rows(place(proposal.masses, proposal.edges), proposal.edges)   # (B, J)
    deltas = trapezoid_deltas(grid)
    points = origins[:, None, :] + grid[:, :, None] * dirs[:, None, :]
    sigma, phi = forward(state.fine, _encode_batch(state.fine, points, dirs, scale))
    sigma, phi = sigma.reshape(grid.shape), phi.reshape(grid.shape)
    cdf, survival = cdf_from_sigma_values(sigma, deltas)
    return proposal, grid, deltas, sigma, phi, cdf, survival


def train_step(state: TrainState, rays: RaySet, config: RunConfig, scale,
               epoch: int = 0, depth_l2: bool = False):
    """One joint optimization step over a nonempty batch of rays.

    The batch's columns go in whole: the drop target is the share of a
    ray's pulses that recorded a range (k of ``pulses``), and the (B, K)
    inf-padded ranges feed the step mismatch (or, with ``depth_l2``, the
    deterministic weighted-depth baseline), averaged over the rays that
    recorded one. The march runs both networks through a `net.ModelGraph`
    and places the fine points by stratified draws on each ray's (seed, id,
    epoch) stream. Each loss's gradient runs back through the kernels'
    adjoints to the network outputs, adding the terms that meet at the cdf
    in a fixed order, and `net.backward` takes it on through the MLP.

    The proposal goes first: its hinge against the detached fine field and
    its backward run right after the march, and the step then drops the
    coarse graph, so the fine loss and the fine backward run with one graph
    alive instead of two. Neither part reads the other's results, so the
    order changes no value. A divergence in the proposal's backward is held
    until the fine backward has run: when both diverge the report names the
    fine network, whose non-finite field would also poison the hinge. Fine
    and coarse parameters each receive one optimizer step, fine first.
    """
    ranges, s_max, alpha = rays.ranges, rays.s_max, config.alpha
    k = np.count_nonzero(ranges < np.inf, axis=1).astype(float)
    draws = ray_draws(config.seed, rays.ids, epoch, 2 * config.n_fine)
    graphs = []

    def record(model, feats):
        graphs.append(nets.ModelGraph(model))
        return graphs[-1].forward(feats)

    proposal, grid, deltas, sigma_f, phi_f, cdf, survival = march(
        state, rays.origins, rays.dirs, s_max, config.n_bins, scale, record,
        lambda masses, edges: importance_sample(masses, edges, draws))
    coarse_graph, fine_graph = graphs
    graphs.clear()

    # Proposal hinge: fine masses are detached constants (stop gradient).
    fine_bin_mass = bin_accumulate(sigma_f * deltas, grid, proposal.edges)
    totals = fine_bin_mass.sum(axis=-1, keepdims=True)
    fine_bin_mass = np.where(totals > 1e-12, fine_bin_mass / np.maximum(totals, 1e-300),
                             1.0 / config.n_bins)
    hinge = hinge_values(fine_bin_mass, proposal.masses)
    g_hist = hinge_vjp(np.full(len(hinge), 1.0 / len(hinge)), fine_bin_mass, proposal.masses)
    coarse_error = None
    try:
        g_coarse = nets.backward(coarse_graph, histogram_vjp(
            g_hist, coarse_graph.sigma.reshape(proposal.masses.shape), proposal.edges).ravel())
    except DivergenceError as exc:
        coarse_error = exc
    del coarse_graph        # its last reference: the fine part runs with one graph alive

    # l_c is the batch mean over the rays with measurements (k > 0).
    weights = (k > 0) / max(np.count_nonzero(k), 1)
    masses = bin_masses(cdf)
    if depth_l2:
        d_mean, d_sq = range_moments(ranges, k)
        per_ray = depth_l2_values(masses, grid, d_mean, np.maximum(0.0, d_sq - d_mean ** 2))
        g_cdf = bin_masses_vjp(depth_l2_vjp(alpha * weights, masses, grid, d_mean),
                               np.zeros_like(cdf))
    else:
        counts = measurement_counts(ranges, grid)
        per_ray = step_mismatch_values(cdf, deltas, counts, k)
        g_cdf = step_mismatch_vjp(alpha * weights, cdf, deltas, counts, k)
    l_c = np.sum(per_ray * weights)
    q_hat = pooled_drop_values(phi_f, masses)
    returned = k / rays.pulses      # the share of the ray's pulses that returned
    l_drop = bce_values(returned, q_hat)
    g_phi, g_masses = pooled_drop_vjp(bce_vjp(1.0 - alpha, returned, q_hat), q_hat, phi_f, masses)
    g_sigma = cdf_vjp(bin_masses_vjp(g_masses, g_cdf), survival, deltas)
    g_fine = nets.backward(fine_graph, g_sigma.ravel(), g_phi.ravel())
    if coarse_error is not None:
        raise coarse_error

    losses = LossBreakdown(float(l_c), float(l_drop), float(np.sum(hinge) * (1.0 / len(hinge))),
                           alpha)
    for name, value in (("fine", losses.l_fine), ("coarse", losses.l_coarse)):
        if not np.isfinite(value):
            raise DivergenceError(f"{name} loss is non-finite")
    nets.opt_step(state.fine, g_fine, config.lr, state.opt_fine)
    nets.opt_step(state.coarse, g_coarse, config.lr, state.opt_coarse)
    return losses


def _encode_batch(model, points_world, dirs, scale) -> np.ndarray:
    """Flatten (B, J, 3) world points into encoded features (B*J, D), in the model's dtype.

    The B ray directions are encoded once per ray, not once per point.
    """
    flat = scale.apply(points_world.reshape(-1, 3))
    return nets.encode(flat, dirs if model.use_direction else None,
                       model.encoding_levels, model.dir_levels, model.params.dtype)
