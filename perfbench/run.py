"""Benchmark of plink, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-pooled --seed 1 --seconds 30 --trace 0

Workloads: train-pooled, simulate, render (see workloads.py). With
``--trace 0`` the run measures end-to-end metrics with no probes installed.
With ``--trace 1`` it runs one unit of work untraced and with probes on
every layer, and reports per-layer metrics and the tracing overhead. The
report goes to stdout as JSON (environment, checks, digests, all
metrics); the last line is the result object. The run exits 1 when a
correctness check fails and 2 when the program under ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# A unit that starts after this much measured time is not run, so a slow
# program still exits within the time a run is allowed.
HARD_CAP_S = 120.0
# The result line's metrics. The report adds the all-units figures and
# l_fine_final. p90 is not in the result: on a shared 2-core virtual machine,
# bursts of contention a few seconds long set it, and its spread across seeds
# (0.35 of the median on simulate) exceeds any bound the benchmark may set.
END_TO_END = {"setup_s": "s", "rays_per_s": "rays/s", "step_ms_p50": "ms",
              "cdf_w1_m": "m", "peak_rss_mb": "MiB"}
REPORT_ONLY = {"rays_per_s_all_units": "rays/s", "step_ms_p50_all_units": "ms",
               "step_ms_p90_all_units": "ms", "l_fine_final": "loss"}


def import_plink():
    """Import the package from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "plink" / "__init__.py").is_file():
        raise ImportError(f"no plink package under {src}")
    sys.path.insert(0, str(src))
    import plink
    for module in ("autodiff", "config", "errors", "field", "metrics", "net",
                   "pipeline", "sampler", "sensor", "simscene"):
        importlib.import_module(f"plink.{module}")
    if Path(plink.__file__).resolve().parent != (src / "plink").resolve():
        raise ImportError(f"plink imported from {plink.__file__}, not from {src}")
    return plink


def pin_allocator():
    """Fix glibc's mmap and trim thresholds; returns a note for the report.

    By default glibc moves both thresholds as the heap changes. Whether
    training arrays then come from a heap that is trimmed and refaulted on
    every step depends on the layout set-up left behind, so the same code
    reads 220 or 300 rays/s depending on the seed. Fixed thresholds keep
    arrays up to 32 MiB on a heap that is never trimmed, on every run.
    """
    libc_name = ctypes.util.find_library("c")
    libc = ctypes.CDLL(libc_name) if libc_name else None
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return "default (no mallopt)"
    m_trim_threshold, m_mmap_threshold = -1, -3
    if mallopt(m_trim_threshold, 1 << 30) and mallopt(m_mmap_threshold, 32 << 20):
        return "glibc mallopt M_MMAP_THRESHOLD=32MiB M_TRIM_THRESHOLD=1GiB"
    return "default (mallopt refused)"


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def commit_hash():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, allocator: str) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "allocator": allocator,
        "commit": commit_hash(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q):
    return float(np.percentile(values, q)) if values else None


def fastest_repeats(units) -> tuple:
    """(rays/s, per-operation ms) from the fastest repeat of each timed part.

    Operation ``i`` of every unit is a repeat of the same work, timed in
    one or more parts. The host's speed changes within seconds, by up to
    1.6x, so the fastest repeat of each part estimates its uncontended
    time, and an operation's time is the sum over its parts. Time a unit
    spends outside its operations (the training loop around its steps)
    counts once, at its own fastest. Returns (0.0, []) when no operation
    succeeded.
    """
    n = min(len(u.op_ms) for u in units)
    if n == 0:
        return 0.0, []
    best_ms = [sum(map(min, zip(*(u.op_parts_ms[i] for u in units)))) for i in range(n)]
    outside_s = min(max(u.wall_s - sum(u.op_ms) / 1e3, 0.0) for u in units)
    rays = sum(units[0].op_rays[:n])
    return rays / (sum(best_ms) / 1e3 + outside_s), best_ms


def run_untraced(workload, seconds: float, min_ops: int) -> tuple:
    """Set up, warm up, then run units with the set-up repeats among them.

    The repeats are spread over the measured time: the host's speed
    changes within seconds, and repeats made in one burst would all read
    the speed of that moment.
    """
    def timed_setup(i):
        t0 = time.perf_counter()
        workload.setup(i)
        return time.perf_counter() - t0

    repeats = workload.setup_repeats
    setup_s = [timed_setup(0)]
    workload.warmup()
    units, measured = [], 0.0
    while measured < HARD_CAP_S:
        result = workload.unit(len(units))
        workload.settle(result)
        units.append(result)
        measured += result.wall_s
        while len(setup_s) < repeats and measured >= seconds * len(setup_s) / repeats:
            setup_s.append(timed_setup(len(setup_s)))
        if measured >= seconds and sum(u.attempted for u in units) >= min_ops:
            break
    setup_s += [timed_setup(i) for i in range(len(setup_s), repeats)]
    quality, found, digests = workload.finish(units)
    rays_per_s, best_ms = fastest_repeats(units)
    op_ms = [ms for u in units for ms in u.op_ms]
    wall = sum(u.wall_s for u in units)
    values = {
        "setup_s": statistics.median(setup_s),
        "rays_per_s": rays_per_s,
        "step_ms_p50": percentile(best_ms, 50),
        "cdf_w1_m": quality["cdf_w1_m"],
        "peak_rss_mb": peak_rss_mb(),
        "rays_per_s_all_units": sum(u.rays for u in units) / wall,
        "step_ms_p50_all_units": percentile(op_ms, 50),
        "step_ms_p90_all_units": percentile(op_ms, 90),
        "l_fine_final": quality.get("l_fine_final"),
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    extra = {
        "all_metrics": {k: {"value": values[k], "unit": unit}
                        for k, unit in dict(END_TO_END, **REPORT_ONLY).items()},
        "ops_timed": len(op_ms),
        "repeats": len(units),
        "setup_samples_s": setup_s,
        "unit_walls_s": [u.wall_s for u in units],
        "fastest_op_ms": best_ms,
        "op_ms_by_unit": [u.op_ms for u in units],
        "measured_s": wall,
        "quality": quality,
    }
    return units, metrics, found, digests, extra


def run_traced(workload, plink, spans_path) -> tuple:
    """Unit 0 four times, untraced-traced-traced-untraced.

    The per-layer metrics come from the first traced pass; the order
    cancels a linear drift of the machine's speed out of the overhead.
    """
    import checks
    import layers
    from spans import Tracer, installed

    workload.setup(0)
    workload.warmup()

    def timed_unit(tracer=None):
        t0 = time.perf_counter()
        if tracer is None:
            result = workload.unit(0)
        else:
            with installed(tracer, layers.probes(plink), layers.replacements(plink, tracer)):
                result = workload.unit(0)
        wall = time.perf_counter() - t0
        workload.settle(result)
        return result, wall

    tracer = Tracer()
    plain, plain_wall = timed_unit()
    traced, traced_wall = timed_unit(tracer)
    traced2, traced_wall2 = timed_unit(Tracer())
    plain2, plain_wall2 = timed_unit()
    quality, found, digests = workload.finish([plain])
    found.append(checks.identical("traced_matches_untraced",
                                  [u.digest for u in (plain, traced, traced2, plain2)]))
    overhead = (traced_wall + traced_wall2 - plain_wall - plain_wall2) / 2
    metrics = layers.per_layer_metrics(tracer, overhead, render=workload.name == "render")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_csv(spans_path)
    extra = {"untraced_walls_s": [plain_wall, plain_wall2],
             "traced_walls_s": [traced_wall, traced_wall2],
             "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
             "quality": quality}
    return [traced], metrics, found, digests, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    allocator = pin_allocator()
    try:
        plink = import_plink()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import MIN_OPS, WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](plink, args.seed, str(work))
        if args.trace:
            spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.csv"
            units, metrics, found, digests, extra = run_traced(workload, plink, spans_path)
        else:
            units, metrics, found, digests, extra = run_untraced(workload, args.seconds, MIN_OPS)
    finally:
        shutil.rmtree(work)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    errors = {}
    for u in units:
        for key, n in u.errors.items():
            errors[key] = errors.get(key, 0) + n
    result = {
        "correct": all(c.ok for c in found),
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": metrics,
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(args.seed, allocator),
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in found],
        "digests": digests, "errors": errors, **extra,
    }
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
