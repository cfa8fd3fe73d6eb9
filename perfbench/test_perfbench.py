"""Tests of the benchmark's own code: span arithmetic, probes and checks."""

import json
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import run
from spans import JOB_SPAN, Probe, Span, Tracer, installed, self_times, summarize, traced_executor

ROOT = Path(__file__).resolve().parent.parent


def _selfs(spans):
    got = self_times(spans)
    return [pytest.approx(got[id(s)]) for s in spans]


# -- self time -----------------------------------------------------------------


def test_self_time_nested_same_thread():
    a = Span("a", None, 1, 0.0, 10.0)
    b = Span("b", a, 1, 1.0, 4.0)
    c = Span("c", a, 1, 5.0, 9.0)
    d = Span("d", b, 1, 2.0, 3.0)
    assert _selfs([a, b, c, d]) == [3.0, 2.0, 4.0, 1.0]


def test_self_time_counts_overlapping_cross_thread_children_once():
    frame = Span("frame", None, 1, 0.0, 10.0)
    j1 = Span(JOB_SPAN, frame, 2, 1.0, 6.0)
    j2 = Span(JOB_SPAN, frame, 3, 3.0, 8.0)
    inner = Span("work", j1, 2, 2.0, 5.0)
    assert _selfs([frame, j1, j2, inner]) == [3.0, 2.0, 5.0, 3.0]


def test_self_time_clips_children_to_the_parent_interval():
    parent = Span("p", None, 1, 0.0, 5.0)
    late = Span("c", parent, 2, 4.0, 7.0)
    assert _selfs([parent, late]) == [4.0, 3.0]


def test_summarize_sums_by_name_and_counts_failures():
    root = Span("r", None, 1, 0.0, 4.0)
    spans = [root, Span("x", root, 1, 0.0, 1.0), Span("x", root, 1, 2.0, 3.0, failed=True)]
    rows = summarize(spans)
    assert rows["x"].calls == 2 and rows["x"].failed == 1
    assert rows["x"].self_s == pytest.approx(2.0)
    assert rows["r"].self_s == pytest.approx(2.0)


# -- tracer and probes ---------------------------------------------------------


def test_probe_restores_the_attribute_and_marks_failures():
    def work(x):
        if x < 0:
            raise ValueError("negative")
        return 2 * x

    mod = types.SimpleNamespace(work=work)
    tracer = Tracer()
    with installed(tracer, [Probe(mod, "work", "mod.work")]):
        assert mod.work(3) == 6
        with pytest.raises(ValueError):
            mod.work(-1)
    assert mod.work is work
    assert [(s.name, s.failed) for s in tracer.spans] == [("mod.work", False), ("mod.work", True)]


def test_close_out_of_order_is_an_error():
    tracer = Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_pool_jobs_are_parented_to_the_submitting_span_under_contention():
    """More workers than cores and a short switch interval: no span is lost
    and every job hangs under the span that submitted it."""
    def leaf(i):
        return sum(range(200 + i))

    mod = types.SimpleNamespace(leaf=leaf)
    tracer = Tracer()
    executor = traced_executor(tracer)
    n_jobs, n_frames = 64, 3
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with installed(tracer, [Probe(mod, "leaf", "leaf")]):
            for _ in range(n_frames):
                frame = tracer.open("frame")
                with executor(max_workers=8) as pool:
                    results = list(pool.map(mod.leaf, range(n_jobs)))
                tracer.close(frame)
                assert results == [leaf(i) for i in range(n_jobs)]
    finally:
        sys.setswitchinterval(old)
    frames = [s for s in tracer.spans if s.name == "frame"]
    jobs = [s for s in tracer.spans if s.name == JOB_SPAN]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(frames) == n_frames and len(jobs) == len(leaves) == n_frames * n_jobs
    assert all(j.parent in frames and j.thread != j.parent.thread for j in jobs)
    assert all(s.parent in jobs and s.thread == s.parent.thread for s in leaves)
    assert tracer.counts["pool.executors"] == n_frames
    assert tracer.counts["pool.worker_slots"] == 8 * n_frames


def test_tracer_threads_keep_separate_stacks():
    tracer = Tracer()
    outer = tracer.open("main")
    seen = []

    def other():
        span = tracer.open("other")
        seen.append(span.parent)
        tracer.close(span)

    t = threading.Thread(target=other)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    tracer.close(outer)
    assert seen == [None]


# -- checks catch planted bad outputs ---------------------------------------------


class _Grid:
    def __init__(self, gammas):
        self.gammas = np.asarray(gammas, dtype=float)


class _Trace:
    """Duck-typed jump-list trace: jumps at ``gammas`` to ``cdf`` values."""

    def __init__(self, gammas, cdf):
        self.grid = _Grid(gammas)
        self.cdf = np.asarray(cdf, dtype=float)

    @property
    def total_mass(self):
        return float(self.cdf[-1]) if self.cdf.size else 0.0


BIMODAL = _Trace([4.0, 9.0], [0.5, 1.0])


def test_returns_on_jumps_catches_a_range_between_jumps():
    assert checks.returns_on_jumps([4.0, 9.0, 0.0], [True, True, False], [BIMODAL] * 3).ok
    assert not checks.returns_on_jumps([6.5], [True], [BIMODAL]).ok
    assert not checks.returns_on_jumps([4.0], [True], [_Trace([], [])]).ok


def test_mass_plus_drop_catches_a_leak():
    partial = _Trace([4.0], [0.75])
    assert checks.mass_plus_drop([partial, BIMODAL], [0.25, 0.0]).ok
    assert not checks.mass_plus_drop([partial], [0.3]).ok


def test_drop_probability_counts_oblique_reflections_and_misses():
    class Surface:
        def __init__(self, p, incidence, limit):
            self.return_prob, self.oblique_drop_angle, self._i = p, limit, incidence

        def incidence_angle(self, direction):
            return self._i

    panel = Surface(0.5, 0.1, 1.0)
    oblique = Surface(0.4, 1.2, 1.0)
    # Drops: reach panel, pass (0.5), reflect off the oblique face (0.4) -> 0.2;
    # pass both -> 0.5 * 0.6 = 0.3.
    assert checks.drop_probability([(4.0, panel), (6.0, oblique)], None) == pytest.approx(0.5)


def test_metrics_check_catches_a_wrong_report():
    from plink import metrics

    rng = np.random.default_rng(0)
    gt, synth = rng.normal(size=(30, 3)), rng.normal(size=(25, 3))
    report = metrics.evaluate(metrics.PointCloud(gt), metrics.PointCloud(synth), 20.0)
    assert checks.metrics_match_brute_force([(gt, synth, report)]).ok
    bad = types.SimpleNamespace(completion_cm=report.completion_cm * (1 + 1e-6),
                                accuracy_cm=report.accuracy_cm,
                                f_score_pct=report.f_score_pct, threshold_cm=20.0)
    assert not checks.metrics_match_brute_force([(gt, synth, bad)]).ok


def test_losses_finite_catches_nan():
    assert checks.losses_finite([[0, 1.0, 2.0], [1, 0.5, 1.0]]).ok
    assert not checks.losses_finite([[0, 1.0, np.nan]]).ok


def test_cdf_check_catches_decrease_and_overshoot():
    assert checks.cdf_monotone_unit(np.array([[0.0, 0.2, 0.2, 0.9]])).ok
    assert not checks.cdf_monotone_unit(np.array([[0.0, 0.3, 0.2]])).ok
    assert not checks.cdf_monotone_unit(np.array([[0.0, 0.5, 1.0 + 1e-9]])).ok
    assert not checks.cdf_monotone_unit(np.array([[0.0, np.nan]])).ok


def test_points_in_range_catches_far_and_non_finite_points():
    origins = np.zeros((2, 3))
    assert checks.points_in_range(np.array([[3.0, 4.0, 0.0]]), origins, 5.0).ok
    assert not checks.points_in_range(np.array([[3.0, 4.1, 0.0]]), origins, 5.0).ok
    assert not checks.points_in_range(np.array([[np.inf, 0.0, 0.0]]), origins, 5.0).ok


def test_identical_catches_a_differing_repeat():
    assert checks.identical("x", ["a", "a"]).ok
    assert not checks.identical("x", ["a", "b"]).ok


# -- quality measures ------------------------------------------------------------


def test_w1_empirical_is_exact_for_step_functions():
    # One return at 4, one drop: C_emp = 0.5 on [4, 20]; truth 0.5 on [4, 9), 1 after.
    assert checks.w1_empirical((4.0, None), BIMODAL, 20.0) == pytest.approx(0.5 * 11.0)
    assert checks.w1_empirical((4.0, 9.0), BIMODAL, 20.0) == pytest.approx(0.0)


def test_w1_grid_integrates_the_gap_by_midpoints():
    step = 20.0 / 4
    grid = (np.arange(4) + 0.5) * step              # 2.5, 7.5, 12.5, 17.5
    model = np.full((1, 4), 0.5)
    # truth on the midpoints: 0, 0.5, 1, 1 -> |gaps| 0.5, 0, 0.5, 0.5
    assert checks.w1_grid(model, grid, step, [BIMODAL])[0] == pytest.approx(1.5 * step)


# -- timing estimate ---------------------------------------------------------------


def _unit(parts_ms, rays, wall_s):
    from workloads import UnitResult
    return UnitResult(op_ms=[sum(p) for p in parts_ms], op_parts_ms=parts_ms,
                      op_rays=rays, wall_s=wall_s)


def test_fastest_repeats_takes_each_part_from_its_fastest_repeat():
    # op 0 has two parts whose fastest repeats fall in different units
    a = _unit([[10.0, 50.0], [30.0]], [100, 50], 0.095)   # 5 ms outside the ops
    b = _unit([[40.0, 20.0], [35.0]], [100, 50], 0.097)   # 2 ms outside
    rays_per_s, best_ms = run.fastest_repeats([a, b])
    assert best_ms == [30.0, 30.0]
    assert rays_per_s == pytest.approx(150 / 0.062)


def test_fastest_repeats_is_zero_without_a_successful_operation():
    assert run.fastest_repeats([_unit([], [], 0.5), _unit([], [], 0.4)]) == (0.0, [])


# -- the benchmark's declared metrics ---------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_merged_sums_items_per_check():
    parts = [checks.Check("a", 0, 5, "x"), checks.Check("b", 1, 2, "y"), checks.Check("a", 2, 3, "x")]
    out = {c.name: (c.bad, c.total, c.ok) for c in checks.merged(parts)}
    assert out == {"a": (2, 8, False), "b": (1, 2, False)}
