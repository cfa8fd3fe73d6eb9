"""Cumulative-distribution math: examples, invariants, and convergence.

The per-ray operations here (`QuadGrid` to `baseline_weighted_depth`)
are references: the package computes each of them only in batched form,
and the batched kernels are checked against these ray by ray.
"""

from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plink.errors import InvalidInputError
from plink.field import (CdfTrace, Ray, RaySet, SampleGrid, bin_masses, cdf_from_sigma_values,
                         trapezoid_deltas)


@dataclass
class QuadGrid(SampleGrid):
    """One ray's knots with their elements of integration, for the quadrature
    references; `SampleGrid` keeps knots alone, as an exact trace is a jump
    list. ``deltas`` default to `trapezoid_deltas` of the knots."""

    deltas: np.ndarray | None = None

    def __post_init__(self):
        self.gammas = np.asarray(self.gammas, dtype=float)
        self.deltas = np.asarray(trapezoid_deltas(self.gammas) if self.deltas is None
                                 else self.deltas, dtype=float)


@dataclass
class SigmaTrace:
    """Differential reflection probability sampled on one ray's grid (per meter)."""

    grid: QuadGrid
    sigmas: np.ndarray

    def __post_init__(self):
        self.sigmas = np.asarray(self.sigmas, dtype=float)
        if self.sigmas.shape != self.grid.gammas.shape:
            raise InvalidInputError("sigmas must match the grid")
        if self.sigmas.size and np.any(self.sigmas < 0.0):
            raise InvalidInputError("sigma values must be nonnegative")


def survival_from_sigma(trace: SigmaTrace) -> np.ndarray:
    """Transmission past each knot of one sigma trace: exp(-running integral)."""
    return np.exp(-np.cumsum(trace.sigmas * trace.grid.deltas))


def cumulative_from_sigma(trace: SigmaTrace) -> CdfTrace:
    """Integrate one sigma trace: C = 1 - exp(-running integral)."""
    return CdfTrace(trace.grid, 1.0 - survival_from_sigma(trace))


def pdf_from_cdf(trace: CdfTrace) -> np.ndarray:
    """Per-bin return mass; sums to the cdf value at the far end of the grid."""
    return np.diff(trace.cdf, prepend=0.0)


def inverse_transform_sample(trace: CdfTrace, x: float):
    """Invert the cumulative distribution at level x in (0, 1).

    Returns the smallest s with C(s) >= x, linearly interpolated between
    grid knots (the trace is anchored at C(0) = 0). Returns None (a drop) when x
    exceeds the total return mass. Flat segments resolve to their left edge.
    """
    if not (0.0 < x < 1.0):
        raise InvalidInputError("inversion level must lie strictly in (0, 1)")
    if trace.cdf.size == 0 or x > trace.total_mass:
        return None
    s_knots = np.concatenate([[0.0], trace.grid.gammas])
    c_knots = np.concatenate([[0.0], trace.cdf])
    hi = int(np.searchsorted(c_knots, x, side="left"))
    lo = hi - 1
    rise = c_knots[hi] - c_knots[lo]
    if rise <= 0.0:
        return float(s_knots[hi])
    frac = (x - c_knots[lo]) / rise
    return float(s_knots[lo] + frac * (s_knots[hi] - s_knots[lo]))


def render_confidence(trace: CdfTrace, level: float):
    """Deterministic range at a fixed confidence level (None when unreached)."""
    return inverse_transform_sample(trace, level)


def baseline_weighted_depth(weights, grid: SampleGrid) -> float:
    """Expected depth under normalized nonnegative weights over the grid."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != grid.gammas.shape:
        raise InvalidInputError("weights must match the grid")
    if np.any(weights < 0.0):
        raise InvalidInputError("weights must be nonnegative")
    total = weights.sum()
    if total <= 0.0:
        raise InvalidInputError("all-zero weights: depth is undefined")
    return float(np.dot(weights / total, grid.gammas))


def uniform_grid(s_max, n):
    return QuadGrid(np.linspace(0.0, s_max, n + 1)[1:])


def near_step_trace(jumps, s_max, eps=1e-6):
    """CdfTrace approximating a pure jump function (knee just before each jump),
    on a `QuadGrid` that the quadrature references integrate on."""
    gammas, cdf = [], []
    level = 0.0
    for d, height in jumps:
        gammas.extend([d - eps, d])
        cdf.extend([level, level + height])
        level += height
    if gammas[-1] < s_max:
        gammas.append(s_max)
        cdf.append(level)
    return CdfTrace(QuadGrid(gammas), np.array(cdf))


class TestSampleGrid:
    def test_trapezoid_deltas_cover_full_path(self):
        gammas = np.array([1.0, 2.0, 4.0, 7.0])
        deltas = trapezoid_deltas(gammas)
        # interior: half the straddling span; first adds the sensor gap
        np.testing.assert_allclose(deltas, [1.5, 1.5, 2.5, 1.5])
        assert deltas.sum() == pytest.approx(gammas[-1])


class TestRay:
    def test_holds_only_origin_direction_and_range_limit(self):
        assert [f.name for f in fields(Ray)] == ["origin", "direction", "s_max"]


def ray_set(**changes):
    """Three rays along the axes, two pulses each: two and one recorded
    ranges, and a drop."""
    columns = dict(origins=np.zeros((3, 3)), dirs=np.eye(3),
                   ranges=[[1.0, 2.0], [3.0, np.inf], [np.inf, np.inf]], s_max=10.0,
                   pulses=2)
    return RaySet(**dict(columns, **changes))


class TestRaySet:
    def test_rows_keep_their_ids(self):
        rays = ray_set()
        assert len(rays) == 3
        np.testing.assert_array_equal(rays.ids, [0, 1, 2])
        picked = rays[np.array([2, 0])]
        assert isinstance(picked, RaySet) and len(picked) == 2
        np.testing.assert_array_equal(picked.ids, [2, 0])
        np.testing.assert_array_equal(picked.ranges, [[np.inf, np.inf], [1.0, 2.0]])
        np.testing.assert_array_equal(picked.dirs, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(picked[np.array([1])].ids, [0])

    def test_rows_keep_their_pulse_count(self):
        rays = ray_set()
        assert rays[np.array([2, 0])].pulses == rays[1:].pulses == 2
        # Without a count each ray is one frame's, and fired one pulse.
        assert RaySet(np.zeros((1, 3)), np.eye(3)[:1], [[1.0]], 10.0).pulses == 1

    def test_integer_index_and_iteration_give_rays(self):
        rays = ray_set()
        for i, ray in enumerate(rays):
            assert isinstance(ray, Ray) and ray.s_max == 10.0
            np.testing.assert_array_equal(ray.direction, np.eye(3)[i])
        np.testing.assert_array_equal(rays[np.int64(1)].direction, [0.0, 1.0, 0.0])


class TestCumulativeFromSigma:
    def test_zero_sigma_gives_empty_distribution(self):
        grid = uniform_grid(10.0, 8)
        trace = cumulative_from_sigma(SigmaTrace(grid, np.zeros(8)))
        np.testing.assert_array_equal(trace.cdf, np.zeros(8))

    def test_single_bin_ln2_gives_half(self):
        grid = QuadGrid(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        trace = cumulative_from_sigma(SigmaTrace(grid, np.array([np.log(2.0), 0.0])))
        assert trace.cdf[0] == pytest.approx(0.5)
        assert trace.cdf[1] == pytest.approx(0.5)

    def test_two_ln2_bins_match_product_oracle(self):
        grid = QuadGrid(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        sigma = np.array([np.log(2.0), np.log(2.0)])
        trace = cumulative_from_sigma(SigmaTrace(grid, sigma))
        # independent oracle: direct running product of per-bin transmissions
        survival = np.cumprod(np.exp(-sigma * grid.deltas))
        np.testing.assert_allclose(trace.cdf, 1.0 - survival)
        assert trace.cdf[-1] == pytest.approx(0.75)

    def test_rejects_negative_sigma(self):
        grid = uniform_grid(10.0, 4)
        with pytest.raises(InvalidInputError):
            SigmaTrace(grid, np.array([0.1, -0.1, 0.1, 0.1]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2 ** 31))
    def test_monotone_bounded_complementary(self, n, seed):
        rng = np.random.default_rng(seed)
        gammas = np.sort(rng.uniform(0.01, 30.0, size=n))
        gammas += np.arange(n) * 1e-6  # enforce strict ascent
        grid = QuadGrid(gammas)
        sigma = rng.exponential(scale=rng.uniform(0.01, 3.0), size=n)
        trace = cumulative_from_sigma(SigmaTrace(grid, sigma))
        assert np.all(np.diff(trace.cdf) >= -1e-15)
        assert np.all(trace.cdf >= 0.0) and np.all(trace.cdf <= 1.0)
        # the complement of the running product of per-bin transmissions
        transmitted = np.cumprod(np.exp(-sigma * grid.deltas))
        np.testing.assert_allclose(trace.cdf + transmitted, 1.0, atol=1e-9)

    def test_trapezoid_convergence_is_second_order(self):
        # smooth analytic field: sigma(s) = 0.3 * (1 + sin s); exact integral known
        s_max = 10.0
        exact = 0.3 * (s_max + 1.0 - np.cos(s_max))
        errors = []
        for n in (64, 128, 256, 512):
            gammas = np.linspace(0.0, s_max, n + 1)[1:]
            grid = QuadGrid(gammas)
            sigma = 0.3 * (1.0 + np.sin(gammas))
            # the sensor-gap element uses a one-sided rectangle; keep the
            # first sample at the origin-adjacent position so the composite
            # rule stays trapezoid throughout
            approx = -np.log(survival_from_sigma(SigmaTrace(grid, sigma))[-1])
            errors.append(abs(approx - exact))
        rates = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        assert all(rate > 1.7 for rate in rates), rates


class TestPdfFromCdf:
    def test_flat_cdf_gives_zero_masses(self):
        grid = uniform_grid(10.0, 5)
        trace = CdfTrace(grid, np.full(5, 0.4))
        np.testing.assert_allclose(pdf_from_cdf(trace), [0.4, 0, 0, 0, 0])

    def test_two_step_masses(self):
        trace = near_step_trace([(5.0, 0.5), (10.0, 0.5)], 12.0)
        masses = pdf_from_cdf(trace)
        jump_bins = np.isin(trace.grid.gammas, [5.0, 10.0])
        np.testing.assert_allclose(masses[jump_bins], [0.5, 0.5])
        np.testing.assert_allclose(masses[~jump_bins], 0.0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=2 ** 31))
    def test_masses_telescope_to_total(self, n, seed):
        rng = np.random.default_rng(seed)
        grid = uniform_grid(20.0, n)
        sigma = rng.exponential(scale=0.2, size=n)
        trace = cumulative_from_sigma(SigmaTrace(grid, sigma))
        masses = pdf_from_cdf(trace)
        assert np.all(masses >= -1e-15)
        assert masses.sum() == pytest.approx(trace.cdf[-1], abs=1e-12)


class TestInverseTransform:
    def test_two_step_structure_forces_bins(self):
        trace = near_step_trace([(5.0, 0.5), (10.0, 0.5)], 12.0)
        assert inverse_transform_sample(trace, 0.25) == pytest.approx(5.0, abs=1e-3)
        assert inverse_transform_sample(trace, 0.75) == pytest.approx(10.0, abs=1e-3)

    def test_linear_cdf_midpoint(self):
        gammas = np.linspace(0.5, 20.0, 40)
        grid = SampleGrid(gammas)
        cdf = gammas / 20.0
        trace = CdfTrace(grid, cdf)
        assert inverse_transform_sample(trace, 0.5) == pytest.approx(10.0, abs=0.5)

    def test_exceeding_total_mass_is_drop(self):
        gammas = np.linspace(1.0, 10.0, 10)
        grid = SampleGrid(gammas)
        cdf = np.linspace(0.05, 0.4, 10)
        trace = CdfTrace(grid, cdf)
        assert inverse_transform_sample(trace, 0.9) is None

    def test_rejects_levels_outside_unit_interval(self):
        trace = near_step_trace([(5.0, 1.0)], 10.0)
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(InvalidInputError):
                inverse_transform_sample(trace, bad)

    def test_flat_segments_resolve_left(self):
        gammas = np.array([2.0, 4.0, 6.0, 8.0])
        cdf = np.array([0.5, 0.5, 0.5, 1.0])
        grid = SampleGrid(gammas)
        trace = CdfTrace(grid, cdf)
        # smallest s attaining 0.5 is the first knot of the plateau
        assert inverse_transform_sample(trace, 0.5) == pytest.approx(2.0)


class TestRenderConfidence:
    def test_two_step_near_and_far(self):
        trace = near_step_trace([(5.0, 0.5), (10.0, 0.5)], 12.0)
        assert render_confidence(trace, 0.10) == pytest.approx(5.0, abs=1e-3)
        assert render_confidence(trace, 0.90) == pytest.approx(10.0, abs=1e-3)

    def test_opaque_wall_identical_at_any_level(self):
        trace = near_step_trace([(8.0, 1.0)], 12.0)
        values = [render_confidence(trace, lvl) for lvl in (0.05, 0.5, 0.95)]
        assert all(v == pytest.approx(8.0, abs=1e-3) for v in values)

    def test_low_mass_is_drop(self):
        gammas = np.linspace(1.0, 10.0, 10)
        cdf = np.linspace(0.03, 0.3, 10)
        trace = CdfTrace(SampleGrid(gammas), cdf)
        assert render_confidence(trace, 0.5) is None


class TestBaselineWeightedDepth:
    def test_single_unit_weight(self):
        grid = SampleGrid(np.array([3.0, 7.0, 11.0]))
        assert baseline_weighted_depth([0.0, 1.0, 0.0], grid) == pytest.approx(7.0)

    def test_equal_weights_phantom_midpoint(self):
        grid = SampleGrid(np.array([5.0, 10.0]))
        assert baseline_weighted_depth([1.0, 1.0], grid) == pytest.approx(7.5)

    def test_weighted_example(self):
        grid = SampleGrid(np.array([4.0, 8.0]))
        assert baseline_weighted_depth([0.25, 0.75], grid) == pytest.approx(7.0)

    def test_all_zero_weights_error(self):
        grid = SampleGrid(np.array([4.0, 8.0]))
        with pytest.raises(InvalidInputError):
            baseline_weighted_depth([0.0, 0.0], grid)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=2 ** 31))
    def test_matches_brute_force(self, n, seed):
        rng = np.random.default_rng(seed)
        gammas = np.sort(rng.uniform(0.1, 30.0, size=n)) + np.arange(n) * 1e-5
        grid = SampleGrid(gammas)
        weights = rng.uniform(0.0, 2.0, size=n) + 1e-9
        expected = sum(w * g for w, g in zip(weights, gammas)) / weights.sum()
        got = baseline_weighted_depth(weights, grid)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


class TestSamplingCorrectness:
    def test_inverse_draws_match_target_distribution(self):
        # fixed cdf from a smooth field; 1e4 draws; KS < 0.05 conditioned on returns
        rng = np.random.default_rng(123)
        gammas = np.linspace(0.0, 20.0, 400)[1:]
        grid = QuadGrid(gammas)
        sigma = 0.25 * np.exp(-0.5 * ((gammas - 8.0) / 1.5) ** 2) \
            + 0.1 * np.exp(-0.5 * ((gammas - 15.0) / 1.0) ** 2)
        trace = cumulative_from_sigma(SigmaTrace(grid, sigma))
        draws = [inverse_transform_sample(trace, rng.uniform(1e-12, 1.0))
                 for _ in range(10_000)]
        returns = np.sort([d for d in draws if d is not None])
        drop_rate = 1.0 - len(returns) / len(draws)
        assert abs(drop_rate - (1.0 - trace.total_mass)) <= 0.02

        # conditional target cdf evaluated at the sampled points
        target = np.interp(returns, np.concatenate([[0.0], grid.gammas]),
                           np.concatenate([[0.0], trace.cdf])) / trace.total_mass
        empirical_hi = np.arange(1, len(returns) + 1) / len(returns)
        empirical_lo = np.arange(0, len(returns)) / len(returns)
        ks = max(np.max(np.abs(empirical_hi - target)),
                 np.max(np.abs(empirical_lo - target)))
        assert ks < 0.05


class TestBatchedKernels:
    """The batched kernels against the per-ray references above, ray by ray."""

    def test_cdf_rows_match_per_ray_integration(self):
        rng = np.random.default_rng(21)
        gammas = np.sort(rng.uniform(0.1, 20.0, size=(6, 30)), axis=1)
        deltas = trapezoid_deltas(gammas)
        sigma = rng.exponential(0.3, size=gammas.shape)
        cdf, survival = cdf_from_sigma_values(sigma, deltas)
        for g, d, s, c, p in zip(gammas, deltas, sigma, cdf, survival):
            trace = SigmaTrace(QuadGrid(g, d), s)
            want = cumulative_from_sigma(trace)
            np.testing.assert_array_equal(c, want.cdf)
            np.testing.assert_array_equal(p, survival_from_sigma(trace))
            np.testing.assert_array_equal(bin_masses(c[None])[0], pdf_from_cdf(want))
