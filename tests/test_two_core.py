"""The two-core split of the encoding and the MLP passes.

Every output of a split pass must equal, byte for byte, the unsplit
pass's, which is what a pass that cannot use the worker runs. Errors in
either half reach the caller, and the OpenBLAS thread count is restored
after every pass.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from plink import net as nets
from plink.errors import DivergenceError

SRC = Path(__file__).resolve().parent.parent / "src"


def model_of(hidden_layers, hidden_width, dtype, seed, has_phi=True):
    """A He-initialized model with the benchmark's 66 input features."""
    model = nets.FieldModel(8, 2, True, hidden_layers, hidden_width, has_phi, None)
    model = replace(model, params=model.params.astype(dtype))
    return nets.init_model(model, seed, -1.0)


def outputs(model, n, rays, seed):
    """Every array the split passes write, for n points on ``rays`` rays."""
    rng = np.random.default_rng(seed)
    feats = nets.encode(rng.uniform(-1.0, 1.0, (n, 3)), rng.normal(size=(rays, 3)),
                        model.encoding_levels, model.dir_levels)
    sigma_i, phi_i = nets.forward(model, feats)
    graph = nets.ModelGraph(model)
    sigma, phi = graph.forward(feats)
    grad = nets.backward(graph, rng.normal(size=n) * 1e-2, rng.normal(size=n) * 1e-2)
    return [feats, sigma_i, phi_i, sigma, phi, *graph.acts, grad]


def counted_halves(monkeypatch):
    """Count the halves the worker thread runs."""
    count = [0]
    submit = nets._WORKER.submit

    def counting(fn):
        count[0] += 1
        return submit(fn)

    monkeypatch.setattr(nets._WORKER, "submit", counting)
    return count


def assert_all_equal(got, expected):
    assert len(got) == len(expected)
    for i, (a, b) in enumerate(zip(got, expected)):
        assert a.dtype == b.dtype and np.array_equal(a, b), i


needs_two_cpus = pytest.mark.skipif(
    nets._cpus() < 2 or nets._blas_threads() is None,
    reason="the worker runs a half only with two CPUs and a settable OpenBLAS")


@needs_two_cpus
@pytest.mark.parametrize("dtype, n, rays, layers, width", [
    (np.float32, 8256, 64, 4, 128),     # the benchmark's fine and coarse passes
    (np.float32, 4096, 64, 4, 128),
    (np.float64, 1001, 7, 4, 128),      # odd rows, float64
    (np.float64, 2, 2, 4, 128),         # too short to split
    (np.float32, 3, 3, 2, 16),
], ids=["f32-8256", "f32-4096", "f64-1001", "f64-2", "f32-3"])
def test_split_caller_only_and_unsplit_passes_are_byte_identical(monkeypatch, dtype, n,
                                                                 rays, layers, width):
    model = model_of(layers, width, dtype, seed=n)
    halves = counted_halves(monkeypatch)
    split = outputs(model, n, rays, seed=n)
    worker_halves = halves[0]
    # encode, forward, ModelGraph.forward, and backward's head split and layers
    assert worker_halves == (3 + 1 + layers if n > 3 else 0)
    with monkeypatch.context() as patch:
        patch.setattr(nets, "_cpus", lambda: 1)
        caller_only = outputs(model, n, rays, seed=n)
    with monkeypatch.context() as patch:
        patch.setattr(nets, "_halves", lambda count: None)
        unsplit = outputs(model, n, rays, seed=n)
    # Without a settable OpenBLAS the passes run at the process's thread
    # count, where they may round unlike ``split``; they must equal the
    # unsplit passes at that count.
    with monkeypatch.context() as patch:
        patch.setattr(nets, "_blas_threads", lambda: None)
        fixed_threads = outputs(model, n, rays, seed=n)
        patch.setattr(nets, "_halves", lambda count: None)
        fixed_threads_unsplit = outputs(model, n, rays, seed=n)
    assert halves[0] == worker_halves       # neither fallback used the worker
    assert_all_equal(split, caller_only)
    assert_all_equal(split, unsplit)
    assert_all_equal(fixed_threads, fixed_threads_unsplit)


@pytest.mark.parametrize("n", [4096, 8256])
def test_benchmark_passes_match_unsplit_ones_at_the_process_thread_count(monkeypatch, n):
    # The unsplit passes at the process's OpenBLAS thread count are the
    # program before the split. The weight gradient's row sum and the
    # heads' products round alike at one and two threads at these rows.
    model = model_of(4, 128, np.float32, seed=n)
    split = outputs(model, n, 64, seed=n)
    monkeypatch.setattr(nets, "_blas_threads", lambda: None)    # the pass runs whole
    assert_all_equal(split, outputs(model, n, 64, seed=n))


def test_no_split_below_the_small_gemm_size():
    model = model_of(2, 16, np.float32, seed=0)
    # A half's smallest GEMM: n // 2 rows, 8 of 16 columns, 16 inputs.
    assert nets._mlp_rows(model, 15624) is None
    assert nets._mlp_rows(model, 15626) == (slice(0, 7813), slice(7813, 15626))
    assert nets._mlp_rows(model_of(2, 3, np.float32, seed=0), 10 ** 7) is None
    assert nets._halves(3) is None and nets._halves(4) == (slice(0, 2), slice(2, 4))


@needs_two_cpus
@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_an_error_in_either_half_reaches_the_caller_after_both_finish(failing):
    caller, threads = threading.get_ident(), read_blas_threads()
    finished = []

    def work(rows):
        on_worker = threading.get_ident() != caller
        if on_worker:
            time.sleep(0.05)            # the caller fails first, then waits
        finished.append(rows)
        if on_worker == (failing == "worker"):
            raise ValueError(f"{failing} half")

    with pytest.raises(ValueError, match=f"^{failing} half$"):
        with nets._two_core_pass() as parallel:
            assert parallel
            nets._split_run(work, parallel, nets._halves(8))
    assert sorted(finished, key=lambda rows: rows.start) == [slice(0, 4), slice(4, 8)]
    assert read_blas_threads() == threads


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_floating_point_error_in_a_half_propagates_and_the_next_pass_works(failing):
    # The worker's half runs under the caller's numpy error settings: inf - inf
    # in the first layer's bias add raises in whichever half holds the rows.
    model = model_of(4, 128, np.float32, seed=5)
    rng = np.random.default_rng(5)
    feats = nets.encode(rng.uniform(-1.0, 1.0, (4096, 3)), rng.normal(size=(64, 3)),
                        model.encoding_levels, model.dir_levels)
    expected = nets.forward(model, feats)
    bad = model_of(4, 128, np.float32, seed=5)
    bad_w, bad_b = bad.param_views()[0]
    bad_w[:, 0], bad_b[0] = 1.0, -np.inf
    rows = slice(0, 2048) if failing == "worker" else slice(2048, 4096)
    planted = feats.copy()
    planted[rows, 0] = 1e300        # overflows the cast to float32: z = inf
    with np.errstate(invalid="raise", over="ignore"):
        with pytest.raises(FloatingPointError):
            nets.forward(bad, planted)
    got = nets.forward(model, feats)
    assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])


def read_blas_threads():
    """numpy's OpenBLAS thread count, or None when it cannot be read."""
    count = nets._blas_threads()
    return None if count is None else count[0]()


def test_blas_thread_count_is_unchanged_by_import_and_every_pass():
    if read_blas_threads() is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be read")
    script = f"""
import ctypes, glob, os, sys
import numpy as np
libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        get = getattr(lib, name, None)
        if get is not None:
            before = get()
            sys.path.insert(0, {str(SRC)!r})
            import plink
            print(before, get())
            sys.exit(0)
sys.exit(1)
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    before, after = map(int, result.stdout.split())
    assert after == before

    threads = read_blas_threads()
    model = model_of(4, 128, np.float32, seed=9)
    rng = np.random.default_rng(9)
    feats = nets.encode(rng.uniform(-1.0, 1.0, (4096, 3)), rng.normal(size=(64, 3)),
                        model.encoding_levels, model.dir_levels)
    assert read_blas_threads() == threads
    graph = nets.ModelGraph(model)
    sigma, _ = graph.forward(feats)
    assert read_blas_threads() == threads
    nets.backward(graph, np.ones_like(sigma))
    assert read_blas_threads() == threads
    graph = nets.ModelGraph(model)          # a graph takes one backward
    graph.forward(feats)
    with pytest.raises(DivergenceError):
        nets.backward(graph, np.full_like(sigma, np.nan))
    assert read_blas_threads() == threads
    seen = []
    with nets._two_core_pass():
        nets._split_run(lambda rows: seen.append(read_blas_threads()), True, nets._halves(4))
    assert seen == [1, 1] and read_blas_threads() == threads


def test_passes_from_more_threads_than_cores_agree_and_restore_the_count():
    # Passes run one at a time: each thread's outputs equal a lone pass's,
    # and the thread count is the process's again after all of them.
    model = model_of(2, 64, np.float32, seed=11)
    assert nets._mlp_rows(model, 1024) is not None
    expected = outputs(model, 1024, 16, seed=11)
    threads = read_blas_threads()
    results, interval = [], sys.getswitchinterval()

    def passes():
        for _ in range(25):
            results.append(outputs(model, 1024, 16, seed=11))

    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=passes) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(results) == 100
    for got in results:
        assert_all_equal(got, expected)
    assert read_blas_threads() == threads


def encode_in_halves():
    nets.encode(np.zeros((64, 3)), np.full((8, 3), 3 ** -0.5), 8, 2)


@needs_two_cpus
@pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform cannot fork")
def test_a_forked_child_starts_its_own_worker():
    # The parent's worker thread does not exist in a forked child; a split
    # there that waited on it would never return.
    encode_in_halves()
    child = multiprocessing.get_context("fork").Process(target=encode_in_halves)
    child.start()
    child.join(timeout=60)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive and child.exitcode == 0
