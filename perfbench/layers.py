"""Which attributes of the program the traced run wraps, and how the recorded
spans become the per-layer metrics.

Layer times are reported in milliseconds per op (one Monte Carlo trial, or
one oracle check), so runs of different lengths compare directly.  "Self"
time is a span's duration minus the time its child spans cover: block 2 of
a trial is generated lazily inside `cluster_evd`, so its data generation is
a child span and is not counted as estimator time.
"""

from __future__ import annotations

import statistics

from spans import Tracer

# Eigensolves are wrapped at numpy, not at `ddnpca.linalg.sym_eig`, so that a
# refactor that calls `np.linalg.eigh` from a new helper is still counted.
# Computed operation counts (Golub & Van Loan): 9 n^3 with eigenvectors,
# 4 n^3 / 3 for eigenvalues only.
_EIG_FLOPS_PER_N3 = {"eigh": 9.0, "eigvalsh": 4.0 / 3.0}


def _eig_counter(kind):
    def count(counts, args, kwargs, result):
        shape = args[0].shape
        batch = 1
        for d in shape[:-2]:
            batch *= d
        counts["eig_calls"] += batch
        counts["eig_flop"] += batch * _EIG_FLOPS_PER_N3[kind] * float(shape[-1]) ** 3
    return count


def _count_frames(counts, args, kwargs, result):
    counts["dataset_calls"] += 1
    counts["frames"] += int(kwargs["alpha"] if "alpha" in kwargs else args[2])


def _count_gap(counts, args, kwargs, result):
    counts["gap_attempts"] += 1
    counts["gap_usable"] += 1


def _count_gap_error(counts, exc):
    counts["gap_attempts"] += 1


def make_tracer() -> Tracer:
    t = Tracer()
    # harness (ddnpca.bench): sweeps, trials, CSV formatting
    t.add("ddnpca.bench", "run_experiment", "bench.sweep")
    t.add("ddnpca.bench", "block_sum_bound_sweep", "bench.sweep")
    t.add("ddnpca.bench", "sin_theta_sweep", "bench.sweep")
    t.add("ddnpca.bench", "run_trial", "bench.trial")
    t.add("ddnpca.bench", "records_to_csv", "bench.io")
    t.add("ddnpca.bench", "summary_to_csv", "bench.io")
    t.add("ddnpca.bench", "emit_cluster_plot", "bench.io")
    # estimators, as the harness calls them
    t.add("ddnpca.bench", "simple_evd", "estimators.evd")
    t.add("ddnpca.bench", "cluster_evd", "estimators.cluster")
    t.add("ddnpca.estimators", "deflate", "estimators.deflate")
    t.add("ddnpca.estimators", "detect_cluster", "estimators.detect")
    # data generation
    t.add("ddnpca.datagen", "generate_support_schedule", "datagen.schedule")
    t.add("ddnpca.datagen", "generate_dataset", "datagen.dataset", on_result=_count_frames)
    t.add("ddnpca.datagen", "spectral_norm", "datagen.q")
    # dense linear algebra
    t.add("numpy.linalg", "eigh", "linalg.eig", on_result=_eig_counter("eigh"))
    t.add("numpy.linalg", "eigvalsh", "linalg.eig", on_result=_eig_counter("eigvalsh"))
    t.add("ddnpca.estimators", "empirical_covariance", "linalg.cov")
    t.add("ddnpca.theory", "empirical_covariance", "linalg.cov")
    t.add("ddnpca.bench", "subspace_error", "linalg.metric")
    # theory oracles and spectrum partition
    t.add("ddnpca.bench", "verify_m2_bound", "theory.m2")
    t.add("ddnpca.bench", "sin_theta_gap_check", "theory.sin_theta",
          on_result=_count_gap, on_error=_count_gap_error)
    t.add("ddnpca.cli", "g_partition", "spectrum.partition")
    t.add("ddnpca.bench", "g_partition", "spectrum.partition")
    return t


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest of a fixed ladder of percentiles that has at least ten samples
    beyond it, and its value; (0, 0) when there are fewer than 20 samples."""
    n = len(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            ordered = sorted(samples)
            return pct, ordered[min(n - 1, int(pct / 100.0 * n))]
    return 0.0, 0.0


def per_layer_metrics(tracer: Tracer, ops: int, trials: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of `ops` traced ops (`trials` of them
    Monte Carlo trials).  Layers the workload does not reach read zero."""
    inc, own, durations = tracer.totals()
    c = tracer.counts

    def per_op_ms(seconds):
        return 1e3 * seconds / ops

    trial_ms = [1e3 * d for d in durations.get("bench.trial", [])]
    pct, tail = tail_percentile(trial_ms)
    frames = c["frames"]
    return {
        "datagen.dataset_ms": (per_op_ms(inc["datagen.dataset"]), "ms/op"),
        "datagen.frames": (frames / ops, "frames/op"),
        "datagen.us_per_frame": (1e6 * inc["datagen.dataset"] / frames if frames else 0.0, "us/frame"),
        "datagen.schedule_ms": (per_op_ms(inc["datagen.schedule"]), "ms/op"),
        "datagen.q_ms": (per_op_ms(inc["datagen.q"]), "ms/op"),
        "linalg.eig_ms": (per_op_ms(inc["linalg.eig"]), "ms/op"),
        "linalg.eig_calls": (c["eig_calls"] / ops, "calls/op"),
        "linalg.eig_gflop": (c["eig_flop"] / 1e9 / ops, "GFLOP/op"),
        "linalg.cov_ms": (per_op_ms(inc["linalg.cov"]), "ms/op"),
        "linalg.metric_ms": (per_op_ms(inc["linalg.metric"]), "ms/op"),
        "estimators.evd_self_ms": (per_op_ms(own["estimators.evd"]), "ms/op"),
        "estimators.cluster_self_ms": (per_op_ms(own["estimators.cluster"]), "ms/op"),
        "estimators.deflate_ms": (per_op_ms(inc["estimators.deflate"]), "ms/op"),
        "estimators.detect_ms": (per_op_ms(inc["estimators.detect"]), "ms/op"),
        "estimators.blocks_per_trial": (c["dataset_calls"] / trials if trials else 0.0, "blocks"),
        "theory.m2_ms": (per_op_ms(inc["theory.m2"]), "ms/op"),
        "theory.sin_theta_ms": (per_op_ms(inc["theory.sin_theta"]), "ms/op"),
        "theory.gap_share": (c["gap_usable"] / c["gap_attempts"] if c["gap_attempts"] else 0.0,
                             "share"),
        "spectrum.partition_ms": (per_op_ms(inc["spectrum.partition"]), "ms/op"),
        "bench.trial_ms_p50": (statistics.median(trial_ms) if trial_ms else 0.0, "ms"),
        "bench.trial_ms_tail": (tail, "ms"),
        "bench.trial_tail_pct": (pct, "percentile"),
        "bench.trial_samples": (float(len(trial_ms)), "count"),
        "bench.trial_self_ms": (1e3 * own["bench.trial"] / trials if trials else 0.0, "ms/trial"),
        "bench.io_ms": (per_op_ms(inc["bench.io"]), "ms/op"),
        "bench.sweep_self_ms": (per_op_ms(own["bench.sweep"]), "ms/op"),
        "bench.cli_self_ms": (per_op_ms(own["cli"]), "ms/op"),
        "trace.absent": (float(len(tracer.absent)), "count"),
    }
