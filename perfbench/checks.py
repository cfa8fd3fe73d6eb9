"""Correctness checks and quality measures on the benchmark's outputs.

Every check returns a ``Check``; a run is correct only when all pass. The
functions take plain arrays and ``plink`` records, so a test can hand them
a planted bad output and see them fail.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

JUMP_TOL = 1e-9
MASS_TOL = 1e-12
METRIC_RTOL = 1e-9


@dataclass
class Check:
    """``bad`` of ``total`` checked items failed."""

    name: str
    bad: int
    total: int
    what: str

    @property
    def ok(self) -> bool:
        return self.bad == 0

    @property
    def detail(self) -> str:
        return f"{self.bad} of {self.total} {self.what}"


def merged(found) -> list:
    """One check per name, summing items over the runs of that check."""
    out = {}
    for c in found:
        if c.name in out:
            out[c.name].bad += c.bad
            out[c.name].total += c.total
        else:
            out[c.name] = Check(c.name, c.bad, c.total, c.what)
    return list(out.values())


# -- quality -----------------------------------------------------------------


def true_cdf_on(trace, s) -> np.ndarray:
    """Right-continuous exact cdf of a jump-list trace at distances ``s``."""
    idx = np.searchsorted(trace.grid.gammas, s, side="right") - 1
    return np.where(idx >= 0, trace.cdf[np.maximum(idx, 0)], 0.0)


def w1_grid(model_cdf: np.ndarray, grid: np.ndarray, step: float, traces) -> np.ndarray:
    """Per-ray integral of |C_model - C_true| by the midpoint rule.

    ``model_cdf`` is (rays, G) on the cell midpoints ``grid`` of a uniform
    partition of [0, s_max] with cell width ``step``.
    """
    true = np.stack([true_cdf_on(t, grid) for t in traces])
    return np.abs(model_cdf - true).sum(axis=1) * step


def w1_empirical(outcomes, trace, s_max: float) -> float:
    """Exact integral over [0, s_max] of |C_emp - C_true| for one ray.

    ``outcomes`` holds one entry per simulated pulse: a range, or None for a
    drop. Both cdfs are step functions, so the integral is a finite sum.
    """
    returns = np.sort([r for r in outcomes if r is not None])
    knots = np.unique(np.concatenate([[0.0, s_max], returns, trace.grid.gammas]))
    knots = knots[(knots >= 0.0) & (knots <= s_max)]
    left = knots[:-1]
    emp = np.searchsorted(returns, left, side="right") / len(outcomes)
    return float(np.sum(np.abs(emp - true_cdf_on(trace, left)) * np.diff(knots)))


# -- simulate ----------------------------------------------------------------


def returns_on_jumps(ranges, returned, traces) -> Check:
    """Every returned range is a jump location of its ray's exact cdf."""
    bad = 0
    for r, ok, trace in zip(ranges, returned, traces):
        if ok:
            gammas = trace.grid.gammas
            if gammas.size == 0 or np.min(np.abs(gammas - r)) > JUMP_TOL:
                bad += 1
    return Check("returns_on_jumps", bad, int(np.count_nonzero(returned)), "returns off a jump")


def drop_probability(hits, direction) -> float:
    """P(no return) from a ray's (distance, surface) hit list.

    Counted from the drop side, independently of the cdf: a pulse drops
    when it reflects off a surface beyond that surface's oblique limit, or
    when no surface reflects it.
    """
    reach, drop = 1.0, 0.0
    for _, surface in hits:
        if surface.incidence_angle(direction) > surface.oblique_drop_angle:
            drop += reach * surface.return_prob
        reach *= 1.0 - surface.return_prob
    return drop + reach


def mass_plus_drop(traces, drops) -> Check:
    """Return mass of the exact cdf plus drop probability is 1 per ray."""
    bad = sum(abs(t.total_mass + d - 1.0) > MASS_TOL for t, d in zip(traces, drops))
    return Check("mass_plus_drop", bad, len(traces), "rays off 1")


def brute_force_report(gt: np.ndarray, synth: np.ndarray, threshold_cm: float) -> tuple:
    """(completion_cm, accuracy_cm, f_score_pct) by an all-pairs scan."""
    d = np.sqrt(((gt[:, None, :] - synth[None, :, :]) ** 2).sum(axis=-1))
    to_synth, to_gt = d.min(axis=1), d.min(axis=0)
    thr = threshold_cm / 100.0
    precision = float(np.mean(to_gt <= thr)) * 100.0
    recall = float(np.mean(to_synth <= thr)) * 100.0
    f = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
    return float(np.mean(to_synth)) * 100.0, float(np.mean(to_gt)) * 100.0, f


def metrics_match_brute_force(pairs) -> Check:
    """``metrics.evaluate`` agrees with an all-pairs scan to round-off.

    ``pairs`` holds (gt_points, synth_points, report) triples.
    """
    bad = 0
    for gt, synth, report in pairs:
        want = brute_force_report(gt, synth, report.threshold_cm)
        got = (report.completion_cm, report.accuracy_cm, report.f_score_pct)
        if not np.allclose(got, want, rtol=METRIC_RTOL, atol=1e-9):
            bad += 1
    return Check("metrics_match_brute_force", bad, len(pairs), "reports off")


# -- train -------------------------------------------------------------------


def losses_finite(history) -> Check:
    values = np.asarray(history, dtype=float)
    bad = int(np.count_nonzero(~np.isfinite(values)))
    return Check("losses_finite", bad, values.size, "non-finite loss values")


def cdf_monotone_unit(cdf: np.ndarray) -> Check:
    """Model cdf rows lie in [0, 1] and never decrease."""
    cdf = np.atleast_2d(cdf)
    bad_rows = (np.any(cdf < 0.0, axis=1) | np.any(cdf > 1.0, axis=1)
                | np.any(np.diff(cdf, axis=1) < 0.0, axis=1) | ~np.all(np.isfinite(cdf), axis=1))
    return Check("cdf_monotone_unit", int(np.count_nonzero(bad_rows)), cdf.shape[0],
                 "rays off [0, 1] or decreasing")


def identical(name: str, digests) -> Check:
    """Every digest equals the first (repeats are bit-identical)."""
    bad = sum(d != digests[0] for d in digests)
    return Check(name, bad, len(digests), "differ from the first")


# -- render ------------------------------------------------------------------


def points_in_range(points: np.ndarray, origins: np.ndarray, s_max: float) -> Check:
    """Rendered points are finite and within s_max of some ray origin."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    finite = np.all(np.isfinite(points), axis=1)
    bad = int(np.count_nonzero(~finite))
    if finite.any():
        d = np.sqrt(((points[finite][:, None, :] - origins[None, :, :]) ** 2).sum(axis=-1))
        bad += int(np.count_nonzero(d.min(axis=1) > s_max + 1e-9))
    return Check("points_in_range", bad, points.shape[0], "points non-finite or out of range")


# -- digests -----------------------------------------------------------------


def sha256_of(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def array_bytes(a) -> bytes:
    return np.ascontiguousarray(np.asarray(a, dtype="<f8")).tobytes()
