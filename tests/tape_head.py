"""Reference: the loss head of a training step recorded on the autodiff tape.

The package differentiates the loss head by hand, through the adjoint
beside each kernel (`losses`, `field`, `sampler.histogram_vjp`). This
module is the same head written once more as `Tensor` ops: the proposal's
normalization, the cdf, the bin masses, the step mismatch or depth-L2
baseline, the pooled drop, its BCE and the proposal hinge.
`train_step_tapes` runs one training step's march with the networks'
outputs as tape leaves, places the fine points from the tape's proposal
masses, and returns each network's gradient and the step's losses, for
exact comparison with what `sampler.train_step` hands to the optimizer
and returns.
"""

import numpy as np

from plink import autodiff as ad
from plink import net as nets
from plink import sampler
from plink.losses import bin_accumulate, measurement_counts, range_moments

Tensor = ad.Tensor


def cdf_from_sigma(sigmas, deltas):
    survival = ad.exp(-(sigmas * deltas).cumsum(axis=-1))
    return 1.0 - survival


def bin_masses(cdf):
    rest = cdf[..., 1:] - cdf[..., :-1]
    return ad.concatenate([cdf[..., :1], rest], axis=-1)


def step_mismatch(cdf, deltas, counts, n_measurements):
    misses = np.asarray(n_measurements, dtype=float)[..., None] - counts
    above = (1.0 - cdf) ** 2 * counts
    below = cdf ** 2 * misses
    return ((above + below) * deltas).sum(axis=-1)


def pooled_drop(phi, masses):
    return ad.sigmoid((masses * phi).sum(axis=-1))


def bce(q_true, q_hat, eps=1e-7):
    q_true = np.asarray(q_true, dtype=float)
    q = ad.clip(q_hat, eps, 1.0 - eps)
    per = q_true * ad.log(q) + (1.0 - q_true) * ad.log(1.0 - q)
    return -1.0 * per.sum() * (1.0 / q_true.size)


def hinge(fine_bin_masses, histogram_masses):
    gap = -1.0 * histogram_masses + fine_bin_masses
    return ad.maximum0(gap).sum(axis=-1)


def unit_masses(sigma, widths):
    return sigma / (sigma * widths).sum(axis=-1, keepdims=True) * widths


def depth_l2(masses, grid, d_mean, d_var):
    totals = masses.sum(axis=-1, keepdims=True) + 1e-12
    depth = (masses * grid).sum(axis=-1) / totals.reshape(len(d_mean))
    return (depth - d_mean) ** 2 + d_var


def measured_mean(per_ray, k):
    contributing = float(np.count_nonzero(k))
    if contributing == 0.0:
        return per_ray.sum() * 0.0
    return (per_ray * ((k > 0).astype(float) / contributing)).sum()


def tape_backward(graph, loss, sigma, phi=None):
    """The flat gradient, by ``net.backward``, of a tape-recorded ``loss`` of the
    graph's output leaves.

    ``sigma`` and ``phi`` are the `Tensor` leaves the loss was built on; a
    leaf the loss does not reach gets a zero gradient.
    """
    loss.backward()
    zeros = np.zeros(len(graph.pre_sigma))
    g_phi = None if phi is None else (zeros if phi.grad is None else phi.grad)
    return nets.backward(graph, zeros if sigma.grad is None else sigma.grad, g_phi)


def train_step_tapes(state, rays, config, scale, epoch=0, depth_l2_baseline=False):
    """(fine gradient, coarse gradient, (l_c, l_drop, l_fine, l_coarse)) of one
    step, the head on the tape."""
    ranges, s_max, n_bins = rays.ranges, rays.s_max, config.n_bins
    k = np.count_nonzero(ranges < np.inf, axis=1).astype(float)
    draws = sampler.ray_draws(config.seed, rays.ids, epoch, 2 * config.n_fine)
    edges = sampler.uniform_bin_edges(s_max, n_bins)

    def run(model, centers):
        points = rays.origins[:, None, :] + centers[:, :, None] * rays.dirs[:, None, :]
        graph = nets.ModelGraph(model)
        sigma, phi = graph.forward(sampler._encode_batch(model, points, rays.dirs, scale))
        return graph, Tensor(sigma), None if phi is None else Tensor(phi)

    centers = np.broadcast_to(sampler.uniform_bin_centers(s_max, n_bins), (len(k), n_bins))
    coarse_graph, sigma_c, _ = run(state.coarse, centers)
    hist = unit_masses(sigma_c.reshape(len(k), n_bins), np.diff(edges))
    grid = sampler.fine_grid_rows(sampler.importance_sample(hist.value, edges, draws), edges)
    deltas = sampler.trapezoid_deltas(grid)
    fine_graph, sigma_leaf, phi_leaf = run(state.fine, grid)
    sigma, phi = sigma_leaf.reshape(grid.shape), phi_leaf.reshape(grid.shape)
    cdf = cdf_from_sigma(sigma, deltas)

    if depth_l2_baseline:
        d_mean, d_sq = range_moments(ranges, k)
        per_ray = depth_l2(bin_masses(cdf), grid, d_mean, np.maximum(0.0, d_sq - d_mean ** 2))
    else:
        per_ray = step_mismatch(cdf, deltas, measurement_counts(ranges, grid), k)
    l_c = measured_mean(per_ray, k)
    l_drop = bce(k / rays.pulses, pooled_drop(phi, bin_masses(cdf)))
    l_fine = config.alpha * l_c + (1.0 - config.alpha) * l_drop
    fine = tape_backward(fine_graph, l_fine, sigma_leaf, phi_leaf)

    fine_bin_mass = bin_accumulate(sigma.value * deltas, grid, edges)
    totals = fine_bin_mass.sum(axis=-1, keepdims=True)
    fine_bin_mass = np.where(totals > 1e-12, fine_bin_mass / np.maximum(totals, 1e-300),
                             1.0 / n_bins)
    l_coarse = hinge(fine_bin_mass, hist).mean()
    coarse = tape_backward(coarse_graph, l_coarse, sigma_c)
    return fine, coarse, tuple(loss.item() for loss in (l_c, l_drop, l_fine, l_coarse))
