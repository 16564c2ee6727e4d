#!/usr/bin/env python3
"""Benchmark of the ddnpca Monte Carlo harness and oracles, through its CLI.

    python3 perfbench/run.py --workload {expt1,missing_tall,oracles} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from `src/`.
Ops are run in chunks through `ddnpca.cli.main`; each chunk's outputs are
checked.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics of a traced run (see NOTES.md).  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit code 0 when every check passed, 1 when a check failed, 2 when the
program under test cannot be found or run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from layers import make_tracer, per_layer_metrics
from spans import recording

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_BASE = ROOT / ".perfbench_out"

ACCURACY_CHUNKS = 16    # chunks 0..15 give the accuracy figures, whatever the run length
MIN_TIMED_CHUNKS = 10   # the rate is a median over at least this many chunks
SETUP_PROBES = 5        # fresh processes timed for setup_s, after one untimed warm-up
ONE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Reference-kernel time on a 2-core OpenBLAS box with no other load; the
# end-to-end times are reported at this machine speed (see MachineSpeed).
REF_NOMINAL_S = 0.018


class BenchError(Exception):
    """The program under test cannot be found or run; no result is printed."""


def load_cli():
    src = ROOT / "src"
    if not (src / "ddnpca" / "cli.py").is_file():
        raise BenchError(f"no ddnpca package under {src}")
    sys.path.insert(0, str(src))
    try:
        import ddnpca.cli
    except ImportError as exc:
        raise BenchError(f"cannot import ddnpca from {src}: {exc}") from exc
    if Path(ddnpca.cli.__file__).resolve().parent != src / "ddnpca":
        raise BenchError(f"imported ddnpca from {ddnpca.cli.__file__}, not from {src}")
    return ddnpca.cli.main


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it is OpenBLAS."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_rev() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest(),
    }


class MachineSpeed:
    """A fixed piece of numpy work, timed just before each timed chunk and
    set-up probe, that tracks how fast the shared machine runs at that moment.

    Load from other tenants moves every time on this kind of host by up to
    40%, switching within seconds, the same for this kernel as for the
    program.  Each chunk's rate (each probe's time) is scaled by the kernel's
    time just before it over REF_NOMINAL_S, which cancels that drift; the
    kernel does not use the program, so a change to the program still moves
    the scaled figures in full.  The mix (the eigenvalues of one 500 x 500
    matrix on the default BLAS threads, and 300 SVDs of 5 x 5 matrices in a
    Python loop) tracked all three workloads best of the mixes tried.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((500, 500))
        self._sym = (B + B.T) / 2.0
        self._small = rng.standard_normal((300, 5, 5))
        self.samples: list[float] = []

    def slowdown(self, reps: int = 2) -> float:
        """Time the kernel `reps` times now; mean time over REF_NOMINAL_S."""
        t0 = time.perf_counter()
        for _ in range(reps):
            np.linalg.eigvalsh(self._sym)
            for m in self._small:
                np.linalg.norm(m, 2)
        self.samples.append((time.perf_counter() - t0) / reps)
        return self.samples[-1] / REF_NOMINAL_S


# ---------------------------------------------------------------------------
# Running chunks
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, workload_name: str, seed: int, cli_main, out: Path):
        self.workload_name = workload_name
        self.workload = workloads.make(workload_name)
        self.seed = seed
        self.cli_main = cli_main
        self.out = out
        self.chunks: dict[int, object] = {}   # first execution of each chunk index
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _call(self, argv, tracer):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                if tracer is None:
                    rc = self.cli_main(argv)
                else:
                    with tracer.span("cli"):
                        rc = self.cli_main(argv)
            except Exception:  # a crash in the program is a failed op, not a crashed benchmark
                rc = -1
                sink.write(traceback.format_exc())
        return rc, sink.getvalue()

    def run_chunk(self, k: int, tracer=None):
        """Run chunk k; returns (chunk, seconds spent in the CLI calls)."""
        calls = self.workload.prepare(self.seed, k, self.out)
        with recording(self.workload.recorders):
            if tracer is None:
                t0 = time.perf_counter()
                results = [self._call(argv, None) for argv in calls]
                seconds = time.perf_counter() - t0
            else:
                with tracer.installed():
                    t0 = time.perf_counter()
                    results = [self._call(argv, tracer) for argv in calls]
                    seconds = time.perf_counter() - t0
        chunk = self.workload.check(k, self.out, results)
        self.attempted += chunk.ops
        self.failed += chunk.failed
        self.problems.extend(chunk.problems)
        self.chunks.setdefault(k, chunk)
        return chunk, seconds

    def accuracy(self) -> dict[str, float]:
        merged: dict[str, list[float]] = {}
        for k in range(ACCURACY_CHUNKS):
            for key, values in self.chunks[k].accuracy.items():
                merged.setdefault(key, []).extend(values)
        figures, problems = self.workload.summarize(merged)
        self.problems.extend(problems)
        return figures


def _enough(window_start: float, seconds: float, timed: int, next_k: int) -> bool:
    return (time.perf_counter() - window_start >= seconds and timed >= MIN_TIMED_CHUNKS
            and next_k >= ACCURACY_CHUNKS)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure_setup(runner: Runner, speed: MachineSpeed) -> float:
    """Median seconds, at nominal machine speed, of SETUP_PROBES fresh
    processes, each importing the package and running the workload's first
    op.  One untimed probe runs first so that the file cache is warm in every
    timed one."""
    probe_out = runner.out / "probe"
    probe_out.mkdir()
    calls = json.dumps(runner.workload.probe_calls(runner.seed, probe_out))
    times = []
    for i in range(SETUP_PROBES + 1):
        slowdown = speed.slowdown()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(ROOT), calls],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        if i:
            times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"] / slowdown)
    return statistics.median(times)


def run_untraced(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    speed = MachineSpeed()
    setup_s = measure_setup(runner, speed)
    runner.run_chunk(0)  # warm-up: lazy set-up and first-call costs stay out of the rate
    rates = []
    k = 1
    start = time.perf_counter()
    while not _enough(start, seconds, len(rates), k):
        slowdown = speed.slowdown()
        chunk, spent = runner.run_chunk(k)
        rates.append((chunk.ops / spent, slowdown))
        k += 1
    acc = runner.accuracy()
    print(f"measured: median ops/s {statistics.median(r for r, _ in rates)!r} unscaled; "
          f"reference kernel median {1e3 * statistics.median(speed.samples)!r} ms "
          f"(nominal {1e3 * REF_NOMINAL_S} ms)")
    return {
        "ops_per_s": (statistics.median(r * slowdown for r, slowdown in rates), "ops/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_share": (1.0 - runner.failed / runner.attempted, "share"),
        "se_evd_mean": (acc["se_evd_mean"], "sin-theta"),
        "se_cluster_mean": (acc["se_cluster_mean"], "sin-theta"),
        "detect_rate": (acc["detect_rate"], "share"),
    }


def run_traced(runner: Runner, seconds: float, interleave: bool) -> dict[str, tuple[float, str]]:
    """Traced chunks, alternating with untraced ones when `interleave` is set
    so that the tracing overhead is measured under the same load."""
    tracer = make_tracer()
    reference, _ = runner.run_chunk(0)
    again, _ = runner.run_chunk(0, tracer)
    if again.products != reference.products:
        runner.problems.append("traced outputs differ from untraced outputs outside time_ms")
    traced_ops, traced_trials = again.ops, again.trials
    traced_rates, plain_rates = [], []
    k = 1
    start = time.perf_counter()
    while not _enough(start, seconds, len(traced_rates), k):
        traced = not interleave or k % 2 == 0
        chunk, spent = runner.run_chunk(k, tracer if traced else None)
        if traced:
            traced_rates.append(chunk.ops / spent)
            traced_ops += chunk.ops
            traced_trials += chunk.trials
        else:
            plain_rates.append(chunk.ops / spent)
        k += 1
    runner.accuracy()
    for name in tracer.absent:
        print(f"trace: {name} is absent; its layer reads 0")
    metrics = per_layer_metrics(tracer, traced_ops, traced_trials)
    metrics["bench.ops_per_s_traced"] = (statistics.median(traced_rates), "ops/s")
    if interleave:
        metrics["trace.overhead"] = (statistics.median(traced_rates)
                                     / statistics.median(plain_rates), "ratio")
    return metrics


def one_thread_baseline(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    """The traced run again in a child process with BLAS pinned to one thread."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", runner.workload_name,
           "--seed", str(runner.seed), "--seconds", str(max(1, seconds // 2)),
           "--trace", "1", "--one-thread"]
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **ONE_THREAD_ENV},
                          capture_output=True, text=True, timeout=150)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    if result is None or not result["correct"]:
        runner.problems.append(f"one-thread baseline failed ({proc.returncode}): "
                               f"{proc.stderr.strip()[-2000:]}")
        return {}
    runner.attempted += result["attempted"]
    runner.failed += result["failed"]
    m = result["metrics"]
    return {
        "linalg.eig_ms_1t": (m["linalg.eig_ms"]["value"], "ms/op"),
        "bench.ops_per_s_1t": (m["bench.ops_per_s_traced"]["value"], "ops/s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # set only on the benchmark's own single-thread child
    parser.add_argument("--one-thread", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        cli_main = load_cli()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment(args.workload, args.seed)
    out = OUT_BASE / f"{args.workload}-{os.getpid()}"
    out.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, cli_main, out)
    try:
        if args.one_thread:
            if env["blas_threads"] not in (1, None):
                runner.problems.append(f"BLAS runs {env['blas_threads']} threads, not 1")
            metrics = run_traced(runner, args.seconds, interleave=False)
        elif args.trace:
            metrics = run_traced(runner, args.seconds, interleave=True)
            baseline = one_thread_baseline(runner, args.seconds)
            if baseline:
                metrics.update(baseline)
                metrics["bench.thread_gain"] = (
                    metrics["bench.ops_per_s_traced"][0] / baseline["bench.ops_per_s_1t"][0],
                    "ratio")
        else:
            metrics = run_untraced(runner, args.seconds)
    except (BenchError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_BASE.rmdir()

    print("environment " + json.dumps(env))
    for problem in runner.problems:
        print(f"check failed: {problem}")
    print(f"fail_share {runner.failed / runner.attempted!r} share "
          f"({runner.failed} of {runner.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    correct = not runner.problems and runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
