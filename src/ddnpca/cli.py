"""Command-line interface: run experiments, partition spectra, print bounds,
and sweep the verification oracles."""

from __future__ import annotations

import argparse
import ctypes
import sys
from collections import Counter

import numpy as np

from . import bench, datagen
from .errors import DdnPcaError, ParameterError, ScheduleError
from .spectrum import g_partition


def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 32 MiB, the ceiling of its dynamic rule,
    and its trim threshold at twice that, as the rule sets it, for the rest of
    the process.  Left dynamic, both follow what the process freed before, and
    in some processes every run faulted its block buffers in afresh (~5% of
    missing_tall's speed).  Outputs do not depend on it.  Does nothing where
    libc has no `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


def _cmd_run(args) -> int:
    overrides = {"trials": args.trials, "base_seed": args.seed}
    cfg = bench.parse_config(args.config, **{k: v for k, v in overrides.items() if v is not None})
    _fix_malloc_thresholds()
    records, summary = bench.run_experiment(cfg, args.out)
    print(f"wrote {args.out}/results.csv ({len(records)} records)")
    print(f"thresh_used={bench.effective_thresh(cfg):g} (configured {cfg.thresh:g})")
    for m in summary:
        mean_se = "NA" if m.mean_se is None else f"{m.mean_se:.6f}"
        print(f"{m.method:12s} mean_se={mean_se}  mean_time_ms={m.mean_time_ms:.3f}  "
              f"failures={m.failure_count}")
    found = Counter(r.vartheta_hat for r in records
                    if r.method == "cluster_evd" and r.se is not None)
    print(f"vartheta_hat over {sum(found.values())} successful cluster_evd trials: "
          + (" ".join(f"{k}:{found[k]}" for k in sorted(found)) or "none"))
    print(f"worst q_measured={max(r.q_measured for r in records):.6g}")
    return 0


def _cmd_partition(args) -> int:
    with open(args.eigs_file) as fh:
        try:
            values = [float(tok) for tok in fh.read().split()]
        except ValueError as exc:
            raise ParameterError(f"{args.eigs_file}: {exc}") from None
    part = g_partition(np.asarray(values), args.g)
    bench.emit_cluster_plot(values, part, args.out)
    print(f"{part.vartheta} clusters, sizes {part.sizes}; wrote {args.out}")
    return 0


def _cmd_bounds(args) -> int:
    cfg = bench.parse_config(args.config)
    print(bench.bounds_report(cfg))
    return 0


def _cmd_verify(args) -> int:
    # both counts before either sweep: a bad second one must not wait for the first,
    # and a sweep of no draws would report [ok] having checked nothing
    for name, count in (("draws", args.draws), ("instances", args.instances)):
        if count < 1 or args.seed < 0:
            raise ParameterError(f"need {name} >= 1 and seed >= 0, "
                                 f"got {name}={count}, seed={args.seed}")
    failed = False

    violations, worst = bench.block_sum_bound_sweep(draws=args.draws, seed=args.seed)
    status = "ok" if violations == 0 else "VIOLATED"
    print(f"block-sum bound: {args.draws} draws, {violations} violations, "
          f"worst lhs/rhs = {worst:.6f} [{status}]")
    failed |= violations > 0

    try:
        datagen.SupportSchedule(n=50, supports=[range(5)] * 20, rho=2, beta_tilde=1)
        print("static-support counterexample: accepted [VIOLATED]")
        failed = True
    except ScheduleError:
        print("static-support counterexample: rejected by the schedule validator [ok]")

    checked, vacuous, violations = bench.sin_theta_sweep(instances=args.instances, seed=args.seed)
    status = "ok" if violations == 0 else "VIOLATED"
    print(f"perturbation bound: {checked} instances checked ({vacuous} without a usable gap), "
          f"{violations} violations [{status}]")
    failed |= violations > 0

    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddnpca",
        description="Principal subspace estimation under data-dependent noise: "
                    "benchmark harness and verification oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a Monte Carlo experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--trials", type=int, default=None, help="override the trial count")
    p_run.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_run.add_argument("--out", default=".", help="output directory (default: '.')")
    p_run.set_defaults(func=_cmd_run)

    p_part = sub.add_parser("partition", help="partition a spectrum into eigenvalue clusters")
    p_part.add_argument("eigs_file", help="whitespace-separated eigenvalues, non-increasing")
    p_part.add_argument("--g", type=float, required=True, help="within-cluster ratio cap")
    p_part.add_argument("--out", required=True, help="plot-data output path")
    p_part.set_defaults(func=_cmd_partition)

    p_bounds = sub.add_parser("bounds", help="print the sample-complexity calculators for a config")
    p_bounds.add_argument("config")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_verify = sub.add_parser("verify", help="run the oracle sweeps; nonzero exit on violation")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--draws", type=int, default=1000, help="block-sum bound draws")
    p_verify.add_argument("--instances", type=int, default=500, help="perturbation bound instances")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DdnPcaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
