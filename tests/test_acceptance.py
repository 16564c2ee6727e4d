"""End-to-end acceptance gate.

Each test checks one numbered criterion and prints a PASS/FAIL line; run with
`pytest -s tests/test_acceptance.py` to see the lines as they complete.  The
expensive 200-trial reproduction is shared across the criteria that need it.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from csv_rows import read_rows
from ddnpca import bench
from ddnpca.bench import block_sum_bound_sweep, parse_config, run_experiment, sin_theta_sweep
from ddnpca.cli import main as cli_main
from ddnpca.datagen import SignalModel, SupportSchedule, _coefficient_matrix, sparse_basis
from ddnpca.errors import DdnPcaError, ScheduleError
from ddnpca.linalg import spectral_norm, sym_eig
from ddnpca.spectrum import g_partition
from ddnpca.theory import (
    BoundInputs,
    alpha0_cluster,
    alpha0_simple,
    beta_frac_cluster,
    beta_frac_simple,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
EXPT1_CFG = CONFIG_DIR / "expt1.cfg"
EXPT1_NOISELESS_CFG = CONFIG_DIR / "expt1_noiseless.cfg"


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


@pytest.fixture(scope="module")
def expt1_runs(tmp_path_factory):
    """Two full CLI runs of the bundled config (criterion 10 needs both);
    the first run's CSV also serves criterion 1, and what its cluster_evd
    calls found, (vartheta_hat, sizes) or the error raised, serves
    criterion 2."""
    cfg = parse_config(EXPT1_CFG)
    dirs = [tmp_path_factory.mktemp("run_a"), tmp_path_factory.mktemp("run_b")]
    found = []
    cluster_evd = bench.cluster_evd

    def recording_cluster_evd(*args, **kwargs):
        try:
            P_hat, sizes = cluster_evd(*args, **kwargs)
        except DdnPcaError as exc:
            found.append(exc)
            raise
        found.append((len(sizes), sizes))
        return P_hat, sizes

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "cluster_evd", recording_cluster_evd)
        start = time.perf_counter()
        rc = cli_main(["run", str(EXPT1_CFG), "--seed", "42", "--out", str(dirs[0])])
        elapsed = time.perf_counter() - start
    assert rc == 0
    assert cli_main(["run", str(EXPT1_CFG), "--seed", "42", "--out", str(dirs[1])]) == 0
    csvs = [(d / "results.csv").read_text() for d in dirs]
    return cfg, csvs, elapsed, found


def test_criterion_1_expt1_reproduction(expt1_runs):
    cfg, csvs, elapsed, _ = expt1_runs
    rows = read_rows(csvs[0])
    means = {}
    for method in ("evd", "cluster_evd"):
        vals = [float(r["se"]) for r in rows if r["method"] == method and r["se"] != "NA"]
        assert len(vals) == 200
        means[method] = sum(vals) / len(vals)
    ok = all(0.05 <= means[m] <= 0.15 for m in means) and elapsed <= 300.0
    report(1, "reference-experiment reproduction", ok,
           f"mean SE evd={means['evd']:.4f}, cluster={means['cluster_evd']:.4f}, "
           f"run time {elapsed:.0f}s (limit 300s)")


def test_criterion_2_cluster_detection(expt1_runs):
    cfg, _, _, found = expt1_runs
    assert len(found) == cfg.trials
    hits = sum(1 for entry in found if entry == (2, (3, 2)))
    frac = hits / cfg.trials
    report(2, "cluster detection rate", frac >= 0.9,
           f"vartheta=2 with sizes (3,2) in {100 * frac:.1f}% of trials (need >= 90%)")


def test_criterion_3_noiseless_exactness(tmp_path):
    cfg = parse_config(EXPT1_NOISELESS_CFG)
    assert cfg.q_gen == 0.0 and cfg.trials == 50
    records, _ = run_experiment(cfg, tmp_path)
    worst = max(r.se for r in records)
    report(3, "noiseless exactness", all(r.se is not None and r.se <= 1e-8 for r in records),
           f"worst SE over {cfg.trials} trials x 2 methods = {worst:.2e} (limit 1e-8)")


def test_criterion_4_partition_exactness():
    lam = [100.0, 100.0, 100.0, 0.1, 0.1]
    part = g_partition(lam, 3.0)
    ok = (
        part.clusters == ((0, 1, 2), (3, 4))
        and part.sizes == (3, 2)
        and part.vartheta == 2
        and part.g_eff == 1.0
        and math.isclose(part.chi, 0.001, rel_tol=1e-12)
        and math.isclose(part.f, 1000.0, rel_tol=1e-12)
    )
    report(4, "partition exactness", ok,
           f"sizes={part.sizes}, g_eff={part.g_eff}, chi={part.chi}, f={part.f}")


def test_criterion_5_block_sum_bound_oracle():
    violations, worst = block_sum_bound_sweep(draws=1000, seed=2024)
    rejected = False
    try:
        SupportSchedule(n=500, supports=tuple([tuple(range(5))] * 300), rho=2, beta_tilde=1)
    except ScheduleError:
        rejected = True
    report(5, "block-sum bound oracle", violations == 0 and rejected,
           f"1000 draws, {violations} violations, worst lhs/rhs={worst:.4f}; "
           f"static-support schedule rejected={rejected}")


def test_criterion_6_sin_theta_oracle():
    checked, vacuous, violations = sin_theta_sweep(instances=500, seed=77)
    report(6, "perturbation bound oracle", violations == 0 and checked >= 250,
           f"500 instances: {checked} with positive gap, {violations} violations")


def test_criterion_7_eigensolver_contract():
    rng = np.random.default_rng(123)
    worst_resid = worst_orth = worst_eig = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.sort(rng.uniform(-5.0, 10.0, size=n))[::-1]
        M = (Q * lam) @ Q.T
        M = (M + M.T) / 2.0
        w, V = sym_eig(M)
        scale = max(1.0, float(np.max(np.abs(lam))))
        recon = (V * w) @ V.T
        worst_resid = max(worst_resid, spectral_norm(recon - M) / scale)
        gram = V.T @ V
        worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(n)))))
        worst_eig = max(worst_eig, float(np.max(np.abs(w - lam))) / scale)
    ok = worst_resid <= 1e-9 and worst_orth <= 1e-10 and worst_eig <= 1e-9
    report(7, "eigensolver contract", ok,
           f"worst residual={worst_resid:.2e} (1e-9), orthonormality={worst_orth:.2e} (1e-10), "
           f"eigenvalue error={worst_eig:.2e} (1e-9 relative)")


def test_criterion_8_coefficient_model():
    lam = np.array([4.0, 1.0, 0.25])
    model = SignalModel(P=sparse_basis(6, 3), lam=lam)
    rng = np.random.default_rng(321)
    draws = np.array([_coefficient_matrix(model, 1, rng)[:, 0] for _ in range(100_000)])
    var = draws.var(axis=0)
    eta_worst = float(np.max(draws**2 / lam))
    ok = bool(np.all(np.abs(var / lam - 1.0) <= 0.03) and eta_worst <= 3.0 + 1e-12)
    report(8, "coefficient model", ok,
           f"variance ratios {np.round(var / lam, 4).tolist()} (within 3%), "
           f"worst a^2/lambda = {eta_worst:.6f} (<= 3)")


def test_criterion_9_theory_calculators():
    # regression values frozen from the independent evaluation script
    inp_a = BoundInputs(n=500, r=5, f=1000.0, q=0.01, eta=3.0, zeta=0.002)
    ok_a = math.isclose(alpha0_simple(inp_a), 4.9219696139503755e19, rel_tol=1e-12)
    inp_b = BoundInputs(n=500, r=5, f=1000.0, q=0.001, eta=3.0, zeta=0.002)
    ok_b = math.isclose(beta_frac_simple(inp_b), 5.976219512195123e-06, rel_tol=1e-12)
    inp_c = BoundInputs(n=500, r=5, f=1000.0, q=0.01, eta=3.0, zeta=4e-7,
                        g_plus=1.0, chi_plus=0.001, vartheta=2)
    ok_c = math.isclose(alpha0_cluster(inp_c), 1.9887504843802765e22, rel_tol=1e-12)
    inp_d = BoundInputs(n=500, r=5, f=1000.0, q=0.01, eta=3.0, zeta=4e-7,
                        r_k=2, g_plus=1.0, chi_plus=0.001)
    ok_d = math.isclose(beta_frac_cluster(inp_d), 3.8946224546497563e-10, rel_tol=1e-12)

    mono = []
    base = dict(n=200, r=4, f=100.0, q=0.3, eta=3.0, zeta=0.002)
    a0 = alpha0_simple(BoundInputs(**base))
    for key, val in (("n", 800), ("f", 400.0), ("eta", 6.0), ("q", 0.9)):
        mono.append(alpha0_simple(BoundInputs(**{**base, key: val})) >= a0)
    mono.append(alpha0_simple(BoundInputs(**{**base, "zeta": 0.0005})) >= a0)

    simple = beta_frac_simple(BoundInputs(n=100, r=2, f=100.0, q=0.01, eta=3.0, zeta=0.005))
    cluster = beta_frac_cluster(BoundInputs(
        n=100, r=2, f=100.0, q=0.01, eta=3.0, zeta=0.005,
        r_k=1, g_plus=3.0, chi_plus=0.2, vartheta=2,
    ))
    ok = ok_a and ok_b and ok_c and ok_d and all(mono) and cluster > simple
    report(9, "theory calculators", ok,
           f"regressions {[ok_a, ok_b, ok_c, ok_d]}, monotone sweeps {all(mono)}, "
           f"worked comparison cluster={cluster:.3e} > simple={simple:.3e}")


def test_criterion_10_determinism(expt1_runs):
    _, csvs, _, _ = expt1_runs

    def strip_time(text):
        rows = [{k: v for k, v in row.items() if k != "time_ms"} for row in read_rows(text)]
        return text.splitlines()[0], rows

    identical = strip_time(csvs[0]) == strip_time(csvs[1])
    report(10, "determinism", identical,
           "two CLI runs produced byte-identical CSVs outside the time_ms column")
