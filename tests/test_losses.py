"""Training-objective values against hand-rolled oracles, plus gradients.

The per-ray losses here (`cdf_loss` to `fine_loss`) are references: the
package computes each term only as a batched kernel, and the kernels are
checked against these ray by ray.
"""

import numpy as np
import pytest
from scipy.special import expit

import tests.tape_head as tape
from plink.config import RunConfig
from plink.errors import InvalidInputError
from plink.field import (CdfTrace, bin_masses, bin_masses_vjp, cdf_from_sigma_values,
                         cdf_vjp, trapezoid_deltas)
from plink.losses import (BCE_EPS, LossBreakdown, bce_values, bce_vjp, bin_accumulate,
                          depth_l2_values, depth_l2_vjp, hinge_values, hinge_vjp,
                          measurement_counts, pooled_drop_values, pooled_drop_vjp,
                          range_moments, step_mismatch_values, step_mismatch_vjp)
from plink.net import softplus
from plink.pipeline import build_rays, resample_path
from plink.sampler import (fine_grid_rows, histogram_from_heights, histogram_vjp,
                           quantile_points, uniform_bin_edges)
from plink.sensor import SensorIntrinsics, read_poses
from plink.simscene import (SceneSpec, SceneSurface, generate_dataset, load_scene,
                            trace_true_cdf)
from tests.test_field import (QuadGrid, SigmaTrace, cumulative_from_sigma, near_step_trace,
                              uniform_grid)
from tests.test_sampler import ProposalHistogram
from tests.test_simscene import shipped_file

NORMALIZATION_TOL = 1e-6


def cdf_loss(trace: CdfTrace, measurements) -> float:
    """Step-function mismatch of one ray's cumulative trace against its ranges.

    ``counts[j]`` measurements lie at or before gamma_j, so the sum of the K
    step mismatches is sum_j [counts_j (1 - C_j)^2 + (K - counts_j) C_j^2] delta_j.
    Empty measurement lists mean a drop-only ray: no contribution, returns 0.
    """
    measurements = np.asarray(measurements, dtype=float)
    if measurements.size == 0:
        return 0.0
    s_max = trace.grid.gammas[-1]
    if np.any(measurements <= 0.0) or np.any(measurements > s_max + 1e-9):
        raise InvalidInputError("measurements must lie in (0, s_max]")
    counts = np.searchsorted(np.sort(measurements), trace.grid.gammas, side="right")
    misses = measurements.size - counts
    cdf = trace.cdf
    return float(np.sum(((1.0 - cdf) ** 2 * counts + cdf ** 2 * misses) * trace.grid.deltas))


def normalize_for_coarse(histogram, fine_trace: SigmaTrace, fallback_uniform: bool = False):
    """Scale histogram masses to sum 1 and the fine field to unit integral.

    Raises on all-zero input unless ``fallback_uniform`` is set, in which
    case the degenerate side becomes a uniform distribution.
    """
    widths = np.diff(histogram.bin_edges)
    mass_total = float(np.sum(histogram.heights * widths))
    sigma_total = float(np.sum(fine_trace.sigmas * fine_trace.grid.deltas))
    if mass_total <= 0.0:
        if not fallback_uniform:
            raise InvalidInputError("histogram carries no mass")
        heights = np.full_like(histogram.heights, 1.0 / widths.sum())
    else:
        heights = histogram.heights / mass_total
    if sigma_total <= 0.0:
        if not fallback_uniform:
            raise InvalidInputError("fine field carries no mass")
        sigmas = np.full_like(fine_trace.sigmas, 1.0 / np.sum(fine_trace.grid.deltas))
    else:
        sigmas = fine_trace.sigmas / sigma_total
    return (ProposalHistogram(histogram.bin_edges, heights),
            SigmaTrace(fine_trace.grid, sigmas))


def coarse_loss(histogram, fine_trace: SigmaTrace) -> float:
    """Asymmetric proposal loss of one ray; both inputs must be normalized."""
    widths = np.diff(histogram.bin_edges)
    hist_masses = histogram.heights * widths
    if abs(hist_masses.sum() - 1.0) > NORMALIZATION_TOL:
        raise InvalidInputError("histogram masses must sum to 1")
    n_bins = widths.size
    bins = np.clip(np.searchsorted(histogram.bin_edges, fine_trace.grid.gammas,
                                   side="right") - 1, 0, n_bins - 1)
    fine_masses = np.zeros(n_bins)
    for b, mass in zip(bins, fine_trace.sigmas * fine_trace.grid.deltas):
        fine_masses[b] += mass
    if abs(fine_masses.sum() - 1.0) > NORMALIZATION_TOL:
        raise InvalidInputError("fine field integral must equal 1")
    return float(np.sum(np.maximum(fine_masses - hist_masses, 0.0)))


def pool_ray_drop(phi, trace: CdfTrace) -> float:
    """Sigmoid of the drop channel weighted by one ray's per-bin return mass."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != trace.grid.gammas.shape:
        raise InvalidInputError("phi must share the trace grid")
    return float(expit(np.dot(np.diff(trace.cdf, prepend=0.0), phi)))


def drop_bce(q_true, q_hat) -> float:
    """Binary cross-entropy between drop flags and pooled estimates."""
    q_true = np.asarray(q_true, dtype=float)
    q_hat = np.asarray(q_hat, dtype=float)
    if q_true.shape != q_hat.shape or q_true.size == 0:
        raise InvalidInputError("flag and estimate vectors must match and be nonempty")
    q = np.clip(q_hat, BCE_EPS, 1.0 - BCE_EPS)
    return float(-np.mean(q_true * np.log(q) + (1.0 - q_true) * np.log(1.0 - q)))


def fine_loss(l_c: float, l_drop: float, alpha: float) -> float:
    """Weighted combination of the distribution and drop objectives."""
    if not (0.0 <= alpha <= 1.0):
        raise InvalidInputError("alpha must lie in [0, 1]")
    return alpha * l_c + (1.0 - alpha) * l_drop


def brute_force_cdf_loss(trace, measurements):
    """Literal sum over measurements of the discretized step mismatch."""
    total = 0.0
    for d in measurements:
        step = (trace.grid.gammas >= d).astype(float)
        total += float(np.sum((step - trace.cdf) ** 2 * trace.grid.deltas))
    return total


class TestCdfLoss:
    def test_exact_step_has_zero_loss(self):
        trace = near_step_trace([(5.0, 1.0)], 20.0)
        assert cdf_loss(trace, [5.0]) == pytest.approx(0.0, abs=1e-9)

    def test_zero_cdf_integrates_tail(self):
        n = 4000
        grid = uniform_grid(20.0, n)
        trace = CdfTrace(grid, np.zeros(n))
        # closed form: integral of 1 over [5, 20] = 15
        assert cdf_loss(trace, [5.0]) == pytest.approx(15.0, abs=0.02)

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = rng.integers(5, 60)
            grid = uniform_grid(20.0, int(n))
            sigma = rng.exponential(0.2, size=int(n))
            trace = cumulative_from_sigma(SigmaTrace(grid, sigma))
            measurements = rng.uniform(0.5, 20.0, size=rng.integers(1, 8))
            assert cdf_loss(trace, measurements) == pytest.approx(
                brute_force_cdf_loss(trace, measurements), rel=1e-12)

    def test_two_step_beats_single_full_step(self):
        # conflicting measurements: the half/half staircase wins over any
        # single step, including one at the phantom midpoint
        grid = uniform_grid(20.0, 2000)
        measurements = [5.0, 10.0]
        two_step = near_step_trace([(5.0, 0.5), (10.0, 0.5)], 20.0)
        loss_two = brute_force_cdf_loss_on_grid(two_step, grid, measurements)
        single = near_step_trace([(7.5, 1.0)], 20.0)
        loss_single = brute_force_cdf_loss_on_grid(single, grid, measurements)
        assert loss_two < loss_single
        # sweep single-step locations: none reaches the two-step loss
        for c in np.linspace(1.0, 19.0, 37):
            candidate = near_step_trace([(float(c), 1.0)], 20.0)
            assert loss_two < brute_force_cdf_loss_on_grid(candidate, grid, measurements)

    def test_single_measurement_minimized_at_measurement(self):
        grid = uniform_grid(20.0, 2000)
        d = 7.0
        locations = np.linspace(1.0, 19.0, 91)
        losses = [brute_force_cdf_loss_on_grid(near_step_trace([(float(c), 1.0)], 20.0),
                                               grid, [d]) for c in locations]
        assert locations[int(np.argmin(losses))] == pytest.approx(d, abs=0.25)

    def test_empty_measurements_contribute_nothing(self):
        trace = near_step_trace([(5.0, 1.0)], 20.0)
        assert cdf_loss(trace, []) == 0.0

    def test_rejects_out_of_range_measurements(self):
        trace = near_step_trace([(5.0, 1.0)], 20.0)
        with pytest.raises(InvalidInputError):
            cdf_loss(trace, [25.0])


def brute_force_cdf_loss_on_grid(step_trace, grid, measurements):
    """Evaluate a candidate cdf (given as a trace) on a reference grid."""
    knots_s = np.concatenate([[0.0], step_trace.grid.gammas])
    knots_c = np.concatenate([[0.0], step_trace.cdf])
    cdf = np.interp(grid.gammas, knots_s, knots_c)
    total = 0.0
    for d in measurements:
        step = (grid.gammas >= d).astype(float)
        total += float(np.sum((step - cdf) ** 2 * grid.deltas))
    return total


class TestCoarseLoss:
    def make_pair(self, hist_masses, fine_masses, s_max=8.0):
        n = len(hist_masses)
        edges = np.linspace(0.0, s_max, n + 1)
        widths = np.diff(edges)
        hist = ProposalHistogram(edges, np.asarray(hist_masses) / widths)
        # one fine sample at each bin center carrying exactly that bin's mass
        centers = 0.5 * (edges[:-1] + edges[1:])
        grid = QuadGrid(centers)
        sigmas = np.asarray(fine_masses) / grid.deltas
        return hist, SigmaTrace(grid, sigmas)

    def test_matched_masses_give_zero(self):
        hist, trace = self.make_pair([0.25, 0.25, 0.5], [0.25, 0.25, 0.5])
        assert coarse_loss(hist, trace) == pytest.approx(0.0, abs=1e-12)

    def test_only_underestimation_contributes(self):
        m = 0.15
        hist, trace = self.make_pair([0.5, 0.5], [0.5 - m, 0.5 + m])
        assert coarse_loss(hist, trace) == pytest.approx(m)

    def test_uniform_vs_concentrated(self):
        n = 8
        hist, trace = self.make_pair([1.0 / n] * n, [0.0] * (n - 1) + [1.0])
        # hand oracle: only the loaded bin underestimates, by 1 - 1/n
        assert coarse_loss(hist, trace) == pytest.approx(1.0 - 1.0 / n)

    def test_rejects_unnormalized(self):
        hist, trace = self.make_pair([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(InvalidInputError):
            coarse_loss(hist, trace)

    def test_scale_invariance_via_normalization(self):
        rng = np.random.default_rng(11)
        raw_hist = rng.uniform(0.1, 2.0, size=6)
        raw_sigma = rng.uniform(0.1, 2.0, size=30)
        edges = np.linspace(0.0, 12.0, 7)
        gammas = np.sort(rng.uniform(0.1, 12.0, size=30))
        grid = QuadGrid(gammas)
        values = []
        for scale_h, scale_s in ((1.0, 1.0), (10.0, 1.0), (1.0, 250.0), (3.0, 0.01)):
            hist = ProposalHistogram(edges, raw_hist * scale_h)
            trace = SigmaTrace(grid, raw_sigma * scale_s)
            n_hist, n_trace = normalize_for_coarse(hist, trace)
            values.append(coarse_loss(n_hist, n_trace))
        np.testing.assert_allclose(values, values[0], rtol=1e-9)


class TestNormalizeForCoarse:
    def test_already_normalized_unchanged(self):
        edges = np.linspace(0.0, 4.0, 5)
        hist = ProposalHistogram(edges, np.full(4, 0.25))
        gammas = np.linspace(0.5, 3.5, 4)
        grid = QuadGrid(gammas)
        trace = SigmaTrace(grid, 1.0 / (grid.deltas * 4))
        n_hist, n_trace = normalize_for_coarse(hist, trace)
        np.testing.assert_allclose(n_hist.heights, hist.heights)
        np.testing.assert_allclose(n_trace.sigmas, trace.sigmas)

    def test_example_masses(self):
        edges = np.array([0.0, 1.0, 2.0, 3.0])
        hist = ProposalHistogram(edges, np.array([2.0, 2.0, 4.0]))
        grid = QuadGrid(np.array([0.5, 1.5, 2.5]))
        trace = SigmaTrace(grid, np.ones(3))
        n_hist, _ = normalize_for_coarse(hist, trace)
        np.testing.assert_allclose(n_hist.masses, [0.25, 0.25, 0.5])

    def test_degenerate_raises_without_fallback(self):
        edges = np.array([0.0, 1.0, 2.0])
        hist = ProposalHistogram(edges, np.zeros(2))
        grid = QuadGrid(np.array([0.5, 1.5]))
        trace = SigmaTrace(grid, np.ones(2))
        with pytest.raises(InvalidInputError):
            normalize_for_coarse(hist, trace)

    def test_degenerate_fallback_is_uniform(self):
        edges = np.array([0.0, 1.0, 2.0])
        hist = ProposalHistogram(edges, np.zeros(2))
        grid = QuadGrid(np.array([0.5, 1.5]))
        trace = SigmaTrace(grid, np.zeros(2))
        n_hist, n_trace = normalize_for_coarse(hist, trace, fallback_uniform=True)
        assert n_hist.masses.sum() == pytest.approx(1.0)
        assert np.sum(n_trace.sigmas * grid.deltas) == pytest.approx(1.0)


class TestPoolRayDrop:
    def test_zero_phi_gives_half(self):
        trace = near_step_trace([(5.0, 0.8)], 10.0)
        assert pool_ray_drop(np.zeros(len(trace.grid)), trace) == pytest.approx(0.5)

    def test_constant_phi_scales_with_total_mass(self):
        trace = near_step_trace([(5.0, 0.8)], 10.0)
        c = 1.7
        expected = 1.0 / (1.0 + np.exp(-c * trace.total_mass))
        got = pool_ray_drop(np.full(len(trace.grid), c), trace)
        assert got == pytest.approx(expected)

    def test_concentrated_mass_dominates(self):
        # 0.999 of the mass in one bin: pooled output tracks that bin's phi
        gammas = np.array([2.0, 5.0, 8.0])
        grid = QuadGrid(gammas)
        cdf = np.array([0.0005, 0.9995, 1.0])
        trace = CdfTrace(grid, cdf)
        phi = np.array([-0.8, 1.0, 0.9])
        got = pool_ray_drop(phi, trace)
        expected = 1.0 / (1.0 + np.exp(-phi[1]))
        assert abs(got - expected) < 0.01

    def test_grid_mismatch_rejected(self):
        trace = near_step_trace([(5.0, 0.8)], 10.0)
        with pytest.raises(InvalidInputError):
            pool_ray_drop(np.zeros(len(trace.grid) + 1), trace)


class TestDropBce:
    def test_perfect_prediction_near_zero(self):
        assert drop_bce([1, 1, 0], [1.0, 1.0, 0.0]) == pytest.approx(0.0, abs=1e-5)

    def test_half_everywhere_is_ln2(self):
        for q in ([1, 0, 1], [0, 0, 0], [1, 1, 1]):
            assert drop_bce(q, [0.5] * 3) == pytest.approx(np.log(2.0))

    def test_direct_evaluation_oracle(self):
        expected = -0.5 * (np.log(0.9) + np.log(0.8))
        assert drop_bce([1, 0], [0.9, 0.2]) == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            drop_bce([1, 0], [0.5])


class TestFineLoss:
    def test_alpha_extremes(self):
        assert fine_loss(2.0, 1.0, alpha=1.0) == 2.0
        assert fine_loss(2.0, 1.0, alpha=0.0) == 1.0

    def test_default_combination(self):
        alpha = RunConfig().alpha
        assert fine_loss(2.0, 1.0, alpha) == pytest.approx(1.999, abs=1e-12)
        assert LossBreakdown(2.0, 1.0, 0.5, alpha).l_fine == fine_loss(2.0, 1.0, alpha)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            fine_loss(1.0, 1.0, alpha=1.5)


class TestLossGradients:
    """Each kernel's adjoint vs central finite differences of the kernel."""

    def fd(self, fn, x, eps=1e-6):
        grad = np.zeros_like(x)
        for i in range(x.size):
            orig = x.ravel()[i]
            x.ravel()[i] = orig + eps
            hi = fn(x)
            x.ravel()[i] = orig - eps
            lo = fn(x)
            x.ravel()[i] = orig
            grad.ravel()[i] = (hi - lo) / (2 * eps)
        return grad

    def assert_close(self, analytic, numeric, rtol=1e-4):
        scale = np.maximum(np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / scale) < rtol

    def test_step_mismatch_gradient(self):
        rng = np.random.default_rng(3)
        n = 20
        deltas = rng.uniform(0.1, 0.5, size=n)
        counts = rng.integers(0, 5, size=n).astype(float)
        counts = np.sort(counts)
        k = counts[-1]
        cdf0 = np.sort(rng.uniform(0.0, 1.0, size=n))

        def value(c):
            return float(step_mismatch_values(c, deltas, counts, k))

        analytic = step_mismatch_vjp(np.array(1.0), cdf0, deltas, counts, k)
        self.assert_close(analytic, self.fd(value, cdf0.copy()))

    def test_bce_gradient(self):
        rng = np.random.default_rng(4)
        q_true = rng.integers(0, 2, size=8).astype(float)
        q0 = rng.uniform(0.05, 0.95, size=8)
        analytic = bce_vjp(1.0, q_true, q0)
        self.assert_close(analytic, self.fd(lambda q: float(bce_values(q_true, q)), q0.copy()))

    def test_pooled_drop_gradient(self):
        rng = np.random.default_rng(6)
        masses0 = rng.dirichlet(np.ones(10))
        phi0 = rng.normal(size=10)
        q = pooled_drop_values(phi0, masses0)
        g_phi, g_masses = pooled_drop_vjp(np.array(1.0), q, phi0, masses0)
        self.assert_close(g_phi, self.fd(lambda phi: float(pooled_drop_values(phi, masses0)),
                                         phi0.copy()))
        self.assert_close(g_masses, self.fd(lambda m: float(pooled_drop_values(phi0, m)),
                                            masses0.copy()))

    def test_hinge_gradient_off_kink(self):
        rng = np.random.default_rng(8)
        fine = rng.dirichlet(np.ones(12))
        hist0 = rng.dirichlet(np.ones(12))
        # keep probes away from the hinge kink
        assert np.min(np.abs(fine - hist0)) > 1e-5
        analytic = hinge_vjp(np.array(1.0), fine, hist0)
        self.assert_close(analytic, self.fd(lambda h: float(hinge_values(fine, h)), hist0.copy()))

    def test_cdf_and_bin_mass_gradients(self):
        rng = np.random.default_rng(9)
        grid = np.sort(rng.uniform(0.1, 8.0, size=15))
        deltas = trapezoid_deltas(grid)
        sigma0 = rng.exponential(0.4, size=15)
        weights = rng.normal(size=15)

        def value(sigma):
            return float(np.dot(weights, bin_masses(cdf_from_sigma_values(sigma, deltas)[0])))

        _, survival = cdf_from_sigma_values(sigma0, deltas)
        analytic = cdf_vjp(bin_masses_vjp(weights, np.zeros(15)), survival, deltas)
        self.assert_close(analytic, self.fd(value, sigma0.copy()))

    def test_depth_l2_gradient(self):
        rng = np.random.default_rng(10)
        grid = np.sort(rng.uniform(0.1, 8.0, size=(3, 12)), axis=1)
        masses0 = rng.dirichlet(np.ones(12), size=3) * 0.7
        d_mean, d_var = np.array([2.0, 5.0, 7.5]), np.array([0.0, 0.3, 1.0])
        g = np.array([0.5, 1.0, 2.0])

        def value(m):
            return float(np.dot(g, depth_l2_values(m, grid, d_mean, d_var)))

        analytic = depth_l2_vjp(g, masses0, grid, d_mean)
        self.assert_close(analytic, self.fd(value, masses0.copy()))

    def test_unit_mass_gradient(self):
        rng = np.random.default_rng(11)
        sigma0 = rng.exponential(0.5, size=(2, 6))
        edges = np.linspace(0.0, 9.0, 7)
        g = rng.normal(size=(2, 6))

        def value(sigma):
            return float(np.sum(g * histogram_from_heights(edges, sigma).masses))

        self.assert_close(histogram_vjp(g, sigma0, edges), self.fd(value, sigma0.copy()))


class TestAdjointsMatchTheTape:
    """Each kernel and its adjoint equal the tape-recorded head bit for bit."""

    def grad_of(self, fn, *inputs):
        """(value, gradient at each input) of a scalar tape loss."""
        leaves = [tape.Tensor(x) for x in inputs]
        out = fn(*leaves)
        out.backward()
        return out.value, [leaf.grad for leaf in leaves]

    def test_cdf_step_mismatch_and_drop(self):
        # The cdf gathers the (1-C)^2 term, the C^2 term, then the drop's
        # bin-mass slices; ray 1 has no ranges, ray 2 a zero field.
        rng = np.random.default_rng(40)
        grid, deltas, sigma, _ = random_rows(rng)
        sigma[2] = 0.0
        phi = rng.normal(scale=2.0, size=grid.shape)
        ranges = np.sort(rng.uniform(0.1, 12.0, size=(7, 4)), axis=1)
        ranges[1], ranges[3, 2:] = np.inf, np.inf
        k = np.count_nonzero(ranges < np.inf, axis=1).astype(float)
        counts = measurement_counts(ranges, grid)
        g_ray = rng.uniform(0.1, 1.0, size=7)

        def loss(s, p):
            cdf = tape.cdf_from_sigma(s, deltas)
            q = tape.pooled_drop(p, tape.bin_masses(cdf))
            return (tape.step_mismatch(cdf, deltas, counts, k) * g_ray).sum() + tape.bce(k > 0, q)

        want, (g_sigma, g_phi) = self.grad_of(loss, sigma, phi)
        cdf, survival = cdf_from_sigma_values(sigma, deltas)
        masses = bin_masses(cdf)
        q = pooled_drop_values(phi, masses)
        g_p, g_m = pooled_drop_vjp(bce_vjp(1.0, k > 0, q), q, phi, masses)
        g_cdf = bin_masses_vjp(g_m, step_mismatch_vjp(g_ray, cdf, deltas, counts, k))
        assert np.sum(step_mismatch_values(cdf, deltas, counts, k) * g_ray) \
            + bce_values(k > 0, q) == want
        assert np.array_equal(cdf_vjp(g_cdf, survival, deltas), g_sigma)
        assert np.array_equal(g_p, g_phi)

    def test_depth_l2_then_drop(self):
        # The baseline's own bin-mass slices reach the cdf before the drop's.
        rng = np.random.default_rng(41)
        grid, deltas, sigma, _ = random_rows(rng)
        phi = rng.normal(scale=2.0, size=grid.shape)
        d_mean, d_var = rng.uniform(1.0, 10.0, size=7), rng.uniform(0.0, 2.0, size=7)
        g_ray = rng.uniform(0.1, 1.0, size=7)

        def loss(s, p):
            cdf = tape.cdf_from_sigma(s, deltas)
            per_ray = tape.depth_l2(tape.bin_masses(cdf), grid, d_mean, d_var)
            return (per_ray * g_ray).sum() + tape.bce(np.arange(7) % 2,
                                                       tape.pooled_drop(p, tape.bin_masses(cdf)))

        _, (g_sigma, g_phi) = self.grad_of(loss, sigma, phi)
        cdf, survival = cdf_from_sigma_values(sigma, deltas)
        masses = bin_masses(cdf)
        q = pooled_drop_values(phi, masses)
        g_p, g_m = pooled_drop_vjp(bce_vjp(1.0, np.arange(7) % 2, q), q, phi, masses)
        g_cdf = bin_masses_vjp(depth_l2_vjp(g_ray, masses, grid, d_mean), np.zeros_like(cdf))
        g_cdf = bin_masses_vjp(g_m, g_cdf)
        assert np.array_equal(cdf_vjp(g_cdf, survival, deltas), g_sigma)
        assert np.array_equal(g_p, g_phi)

    def test_bce_clamped_at_both_bounds(self):
        q_true = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        q_hat = np.array([0.0, 1.0, 1.0 - BCE_EPS, BCE_EPS, 0.3])
        want, (g,) = self.grad_of(lambda q: tape.bce(q_true, q), q_hat)
        assert bce_values(q_true, q_hat) == want
        got = bce_vjp(1.0, q_true, q_hat)
        assert np.array_equal(got, g) and np.all(got[:2] == 0.0) and np.all(got[2:] != 0.0)

    @pytest.mark.parametrize("shift", [0.0, 1.0, -1.0])
    def test_hinge_and_unit_masses(self, shift):
        # shift 1 puts every gap below 0, so no gradient reaches sigma; -1, above.
        rng = np.random.default_rng(42)
        sigma = rng.exponential(0.5, size=(4, 6))
        edges = np.linspace(0.0, 9.0, 7)
        fine = rng.dirichlet(np.ones(6), size=4) - shift

        def loss(s):
            return tape.hinge(fine, tape.unit_masses(s, np.diff(edges))).mean()

        want, (g_sigma,) = self.grad_of(loss, sigma)
        hist = histogram_from_heights(edges, sigma).masses
        hinge = hinge_values(fine, hist)
        assert np.sum(hinge) * (1.0 / 4) == want
        got = histogram_vjp(hinge_vjp(np.full(4, 0.25), fine, hist), sigma, edges)
        assert np.array_equal(got, g_sigma)
        assert np.any(got != 0.0) or shift > 0.0
        assert np.all(got == 0.0) or shift <= 0.0


def random_rows(rng, n_rays=7, n_points=25, s_max=12.0):
    """(grid, deltas, sigma, cdf) rows of ascending samples, as the march makes."""
    grid = np.sort(rng.uniform(0.05, s_max, size=(n_rays, n_points)), axis=1)
    deltas = trapezoid_deltas(grid)
    sigma = rng.exponential(0.3, size=grid.shape)
    sigma[1] = 0.0                  # a ray that returns nothing
    cdf = 1.0 - np.exp(-np.cumsum(sigma * deltas, axis=1))
    return grid, deltas, sigma, cdf


class TestBatchedAgainstPerRay:
    """Each batched kernel equals its per-ray reference, ray by ray."""

    def test_step_mismatch_matches_cdf_loss(self):
        rng = np.random.default_rng(31)
        grid, deltas, _, cdf = random_rows(rng)
        ranges = [np.sort(rng.uniform(0.1, 12.0, size=k)) for k in (1, 3, 0, 5, 2, 8, 1)]
        k = np.array([r.size for r in ranges], dtype=float)
        padded = np.full((len(ranges), 8), np.inf)     # inf-padded, unsorted rows
        for row, r in zip(padded, ranges):
            row[:r.size] = rng.permutation(r)
        counts = measurement_counts(padded, grid)
        got = step_mismatch_values(cdf, deltas, counts, k)
        for i, r in enumerate(ranges):
            np.testing.assert_array_equal(counts[i], np.searchsorted(r, grid[i], side="right"))
            trace = CdfTrace(QuadGrid(grid[i], deltas[i]), cdf[i])
            assert got[i] == pytest.approx(cdf_loss(trace, r), rel=1e-13, abs=0.0)

    def test_bin_accumulate_and_hinge_match_coarse_loss(self):
        rng = np.random.default_rng(32)
        grid, deltas, sigma, _ = random_rows(rng)
        sigma[1] = rng.exponential(0.3, size=grid.shape[1])
        edges = np.linspace(0.0, 12.0, 7)
        hist_masses = rng.dirichlet(np.ones(6), size=len(grid))
        fine = bin_accumulate(sigma * deltas, grid, edges)
        fine /= fine.sum(axis=1, keepdims=True)
        got = hinge_values(fine, hist_masses)
        for i in range(len(grid)):
            hist = ProposalHistogram(edges, hist_masses[i] / np.diff(edges))
            trace = SigmaTrace(QuadGrid(grid[i], deltas[i]), sigma[i])
            want = coarse_loss(*normalize_for_coarse(hist, trace))
            assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_pooled_drop_matches_pool_ray_drop(self):
        rng = np.random.default_rng(33)
        grid, deltas, _, cdf = random_rows(rng)
        phi = rng.normal(scale=3.0, size=grid.shape)
        got = pooled_drop_values(phi, bin_masses(cdf))
        for i in range(len(grid)):
            trace = CdfTrace(QuadGrid(grid[i], deltas[i]), cdf[i])
            assert got[i] == pytest.approx(pool_ray_drop(phi[i], trace), rel=1e-14, abs=0.0)

    def test_bce_matches_drop_bce(self):
        rng = np.random.default_rng(34)
        q_true = rng.integers(0, 2, size=9).astype(float)
        q_hat = rng.uniform(0.0, 1.0, size=9)
        q_hat[:2] = [0.0, 1.0]          # clamped away from {0, 1}
        for i in range(q_true.size):
            one = slice(i, i + 1)
            assert float(bce_values(q_true[one], q_hat[one])) == pytest.approx(
                drop_bce(q_true[one], q_hat[one]), rel=1e-14, abs=0.0)
        assert float(bce_values(q_true, q_hat)) == pytest.approx(drop_bce(q_true, q_hat),
                                                                 rel=1e-14)

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 20])
    def test_range_moments_equal_per_ray_mean_bitwise(self, width):
        # Eight and more values sum pairwise in np.mean, so summing inf
        # padding as zeros would round differently.
        rng = np.random.default_rng(35 + width)
        ranges = np.full((40, width + 3), np.inf)
        k = rng.integers(0, width + 1, size=40)
        k[0] = width
        for row, n in zip(ranges, k):
            row[:n] = np.sort(rng.uniform(0.1, 20.0, size=n))
        mean, mean_sq = range_moments(ranges, k.astype(float))
        for i, n in enumerate(k):
            values = ranges[i, :n]
            want = (values.mean(), np.mean(values ** 2)) if n else (0.0, 0.0)
            assert (mean[i], mean_sq[i]) == want


def panel_rays(seed, scene=None, truth_cdf=(0.5, 1.0)):
    """The rays of a scene, by default the shipped one, whose exact cdf is
    ``truth_cdf``: on the shipped scene the rays through its p = 0.5 panel,
    20 returns each.

    The static path resampled to 20 frames of one beam at elevation 0 by 64
    azimuths, pooled by `build_rays`. Returns (ranges (R, 20), the jump
    locations (R, J) of the rays' exact cdfs).
    """
    scene = scene or load_scene(shipped_file("panel_room.txt"))
    path = resample_path(read_poses(shipped_file("static_path.csv")), 20)
    intrinsics = SensorIntrinsics(np.array([0.0]), 64, 20.0)
    rays = build_rays(generate_dataset(scene, path, intrinsics, seed))
    ranges, jumps = [], []
    for i in range(len(rays)):
        truth = trace_true_cdf(scene, rays[i])
        if np.array_equal(truth.cdf, truth_cdf):
            ranges.append(rays.ranges[i])
            jumps.append(truth.grid.gammas)
    return np.array(ranges), np.array(jumps)


def three_return_scene():
    """The shipped scene with a second p = 0.5 panel at x = 6.5 m, wide
    enough that every ray through the first panel crosses it: such a ray
    returns at 4, 6.5 and 9 m with probabilities 0.5, 0.25 and 0.25."""
    shipped = load_scene(shipped_file("panel_room.txt"))
    panel = SceneSurface(np.array([6.5, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]),
                         np.array([2.6, 1.0]), 0.5)
    return SceneSpec(shipped.surfaces + [panel], shipped.bounds)


def adam_step(theta, g, m, v, t, lr=0.05):
    """One adaptive-moment step (0.9, 0.999, 1e-8) on ``theta`` in place."""
    m[...] = 0.9 * m + 0.1 * g
    v[...] = 0.999 * v + 0.001 * g * g
    theta -= lr * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)


def fit_free_field(ranges, knots, depth_l2):
    """A free per-knot density, sigma = softplus(theta), fitted to each ray's
    returns through the package's kernels and adjoints: 3,000 `adam_step`
    steps at lr 0.05 from theta = -4. Returns the cdf."""
    return cdf_from_sigma_values(free_field_sigma(ranges, knots, depth_l2),
                                 trapezoid_deltas(knots))[0]


def free_field_sigma(ranges, knots, depth_l2):
    """`fit_free_field`'s fitted density (R, J) at the knots."""
    deltas = trapezoid_deltas(knots)
    k = np.count_nonzero(ranges < np.inf, axis=1).astype(float)
    counts = measurement_counts(ranges, knots)
    d_mean, _ = range_moments(ranges, k)
    theta = np.full((len(ranges), knots.size), -4.0)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    ones = np.ones(len(ranges))
    for t in range(1, 3001):
        cdf, survival = cdf_from_sigma_values(softplus(theta), deltas)
        if depth_l2:
            g_cdf = bin_masses_vjp(depth_l2_vjp(ones, bin_masses(cdf), knots, d_mean),
                                   np.zeros_like(cdf))
        else:
            g_cdf = step_mismatch_vjp(ones, cdf, deltas, counts, k)
        adam_step(theta, cdf_vjp(g_cdf, survival, deltas) * expit(theta), m, v, t)
    return softplus(theta)


def phantom_masses(cdf, knots, windows):
    """Each ray's cdf mass inside its phantom window over its total mass,
    the cdf taken linear between the knots."""
    return np.array([np.diff(np.interp(w, knots, c))[0] / c[-1]
                     for c, w in zip(cdf, windows)])


def test_step_mismatch_fits_the_panel_where_depth_l2_puts_a_phantom():
    # The paper's claim at the loss level, with no network: over K returns
    # the step mismatch is K times the CRPS of the cdf, a proper score whose
    # per-knot minimiser is counts / K, so a free field fitted to it puts
    # its mass at the panel and the wall. Any cdf with the measured mean
    # minimises depth-L2, and its fit leaves mass between them: a phantom
    # surface. Measured on data seeds 1-5 (7 panel rays each): median
    # phantom mass 0.017 against 0.354-0.371, and the step mismatch fit
    # within 0.065-0.067 m (W1) of counts / K. Thresholds were fixed before
    # the margins were seen.
    ranges, jumps = panel_rays(seed=1)
    windows = jumps + [0.5, -0.5]
    assert ranges.shape == (7, 20) and np.all(ranges < np.inf)
    knots = np.linspace(0.0, 20.0, 130)[1:]
    fits = {loss: fit_free_field(ranges, knots, loss == "depth_l2")
            for loss in ("step_mismatch", "depth_l2")}
    phantom = {loss: np.median(phantom_masses(cdf, knots, windows))
               for loss, cdf in fits.items()}
    assert phantom["step_mismatch"] <= 0.05 and phantom["depth_l2"] >= 0.15, phantom
    cdf = fits["step_mismatch"]
    empirical = measurement_counts(ranges, knots) / ranges.shape[1]
    w1 = np.sum(np.abs(cdf / cdf[:, -1:] - empirical) * trapezoid_deltas(knots), axis=1)
    assert np.median(w1) <= 0.15, w1


def window_masses(cdf, knots, centres, half_width):
    """Each ray's cdf mass within ``half_width`` of each of its ``centres``
    (R, J) over its total mass, (R, J), the cdf taken linear between the
    knots."""
    return np.array([[np.diff(np.interp([x - half_width, x + half_width], knots, c))[0] / c[-1]
                      for x in row] for c, row in zip(cdf, centres)])


def test_step_mismatch_resolves_three_returns_where_depth_l2_does_not():
    # A second p = 0.5 panel behind the first: each of the 7 rays through
    # both panels returns from the planes x = 4, 6.5 and 9 m with
    # probabilities 0.5, 0.25 and 0.25, so the truth has one answer at each
    # of three depths. Fitted free fields, as in the phantom test: the step
    # mismatch's median mass within 0.4 m of each of a ray's three jumps
    # lies within 0.15 of its probability, with at most 0.1 outside the
    # three windows; depth-L2's fit leaves at least 0.2 outside them.
    # Thresholds were fixed before the first run; CHANGES.md records data
    # seeds 1-5.
    ranges, jumps = panel_rays(1, three_return_scene(), (0.5, 0.75, 1.0))
    assert ranges.shape == (7, 20) and np.all(ranges < np.inf)
    assert jumps[0].tolist() == [4.0, 6.5, 9.0]      # the ray along x
    knots = np.linspace(0.0, 20.0, 130)[1:]
    masses = {}
    for loss in ("step_mismatch", "depth_l2"):
        cdf = fit_free_field(ranges, knots, loss == "depth_l2")
        masses[loss] = window_masses(cdf, knots, jumps, 0.4)
    plink = np.median(masses["step_mismatch"], axis=0)
    outside = {loss: np.median(1.0 - m.sum(axis=1)) for loss, m in masses.items()}
    assert np.all(np.abs(plink - [0.5, 0.25, 0.25]) <= 0.15), plink
    assert outside["step_mismatch"] <= 0.1 and outside["depth_l2"] >= 0.2, outside


def hinge_proposal(target, edges):
    """A free proposal, per-bin heights softplus(eta) normalised by
    `histogram_from_heights`, fitted to each row of ``target`` by the hinge
    through `hinge_vjp` and `histogram_vjp`: 2,000 `adam_step` steps at lr
    0.05 from the uniform proposal. Returns its masses (R, n_bins)."""
    eta = np.zeros(target.shape)
    m, v = np.zeros_like(eta), np.zeros_like(eta)
    ones = np.ones(len(target))
    for t in range(1, 2001):
        heights = softplus(eta)
        masses = histogram_from_heights(edges, heights).masses
        g = histogram_vjp(hinge_vjp(ones, target, masses), heights, edges)
        adam_step(eta, g * expit(eta), m, v, t)
    return histogram_from_heights(edges, softplus(eta)).masses


def mass_target(cdf):
    """The hinge's mass target on 32 bins from a cdf (R, 128) at knots
    whose every fourth is a bin edge: C(e_{i+1}) - C(e_i) over C(s_max)."""
    return np.diff(cdf[:, 3::4], prepend=0.0) / cdf[:, -1:]


def test_the_mass_target_gives_the_panel_its_bin_where_todays_target_does_not():
    # The proposal's hinge target, on the phantom test's free field:
    # today's target sums sigma * delta into the bins, normalised, and so
    # counts the density behind the opaque wall, which no pulse reaches and
    # the step mismatch leaves almost untrained. The mass target, C(e_{i+1})
    # - C(e_i) over C(s_max), counts only the probability of a return in the
    # bin. The panel holds about half of each panel ray's returns. Measured
    # on data seeds 1-5: the panel's bin gets 0.427-0.526 of the proposal
    # with the mass target and 0.063-0.086 with today's. Thresholds were
    # fixed before any margin was seen.
    ranges, jumps = panel_rays(seed=1)
    knots = np.linspace(0.0, 20.0, 129)[1:]     # every fourth knot is a bin edge
    edges = uniform_bin_edges(20.0, 32)
    sigma = free_field_sigma(ranges, knots, depth_l2=False)
    deltas = trapezoid_deltas(knots)
    today = bin_accumulate(sigma * deltas, np.broadcast_to(knots, sigma.shape), edges)
    cdf = cdf_from_sigma_values(sigma, deltas)[0]
    targets = {"today": today / today.sum(axis=1, keepdims=True),
               "mass": mass_target(cdf)}
    panel_bin = (jumps[:, 0] // (edges[1] - edges[0])).astype(int)[:, None]
    share = {name: np.median(np.take_along_axis(hinge_proposal(target, edges), panel_bin, 1))
             for name, target in targets.items()}
    assert share["mass"] >= 0.30 and share["today"] <= 0.15, share


def inverted_points(masses, edges, n):
    """n points per row at the proposal's mass quantiles (i + 0.5) / n,
    linear inside each bin: NeRF's ``sample_pdf`` without its jitter."""
    cdf = np.concatenate([np.zeros((len(masses), 1)), np.cumsum(masses, axis=1)], axis=1)
    u = (np.arange(n) + 0.5) / n
    # Each u's bin starts at the last cdf value at or below u; the next
    # lies above u, so hi > lo.
    i = np.count_nonzero(cdf[:, None, :] <= u[:, None], axis=2) - 1
    lo, hi = np.take_along_axis(cdf, i, 1), np.take_along_axis(cdf, i + 1, 1)
    return edges[i] + (u - lo) / (hi - lo) * np.diff(edges)[i]


def render_w1(grid, cdf, knots, jumps):
    """W1 between the render cdf, the fitted ``cdf`` read at the grid's knots
    and taken linear between them, and the exact cdf (0.5 at each jump),
    both over their total mass, on 4,000 cells over [0, 20] m."""
    cells = (np.arange(4000) + 0.5) * 0.005
    w1 = []
    for row, c, jump in zip(grid, cdf, jumps):
        render = np.interp(cells, row, np.interp(row, knots, c))
        exact = 0.5 * np.searchsorted(jump, cells, side="right")
        w1.append(np.sum(np.abs(render / render[-1] - exact)) * 0.005)
    return np.array(w1)


def test_continuous_inversion_resolves_the_panel_where_quantile_points_repeat_knots():
    # Placement from the mass target's proposal on the phantom test's free
    # field: `quantile_points` puts every point that lands in a bin on its
    # midpoint, so the render grid repeats knots; continuous inversion of
    # the proposal's cdf spreads them through the bin. The render grid is
    # `fine_grid_rows` of the points and the 33 edges. Thresholds were fixed
    # before any value was seen; CHANGES.md has seeds 1-5.
    ranges, jumps = panel_rays(seed=1)     # the exact cdf's jumps are 0.5 each
    knots = np.linspace(0.0, 20.0, 129)[1:]
    edges = uniform_bin_edges(20.0, 32)
    cdf = fit_free_field(ranges, knots, depth_l2=False)
    masses = hinge_proposal(mass_target(cdf), edges)
    grids = {name: fine_grid_rows(place(masses, edges, 32), edges)
             for name, place in (("quantile", quantile_points), ("inverted", inverted_points))}
    repeats = {name: np.count_nonzero(np.diff(grid, axis=1) == 0.0, axis=1)
               for name, grid in grids.items()}
    assert np.all(repeats["quantile"] > 0) and not repeats["inverted"].any(), repeats
    w1 = render_w1(grids["inverted"], cdf, knots, jumps)
    assert np.median(w1) <= 0.75, w1
