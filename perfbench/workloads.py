"""The benchmark's workloads: which CLI calls one chunk of ops makes, and how
its outputs are checked.

Every workload drives `ddnpca.cli.main`, the entry point users call.  A chunk
is the unit the runner times; its inputs derive from (workload seed, chunk
index) alone.  Why each workload exists, and which layer it stresses, is in
NOTES.md.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# seeds of different chunks, and of different workload seeds, never overlap
_SEED_STRIDE = 100_000


@dataclass
class Chunk:
    """What one chunk did: ops attempted and failed, problems found by the
    output checks, outputs to compare between traced and untraced runs
    (time columns removed), and accuracy samples."""

    ops: int
    trials: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    products: dict[str, str] = field(default_factory=dict)
    accuracy: dict[str, list[float]] = field(default_factory=dict)


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else math.nan


def _drop_time_columns(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return text
    keep = [i for i, name in enumerate(rows[0]) if not name.endswith("time_ms")]
    return "\n".join(",".join(row[i] for i in keep if i < len(row)) for row in rows)


class MonteCarlo:
    """`ddnpca run <config> --trials K --seed S`: one op is one trial, i.e.
    both estimators on one seeded draw."""

    recorders: tuple = ()

    def __init__(self, config: Path, trials_per_chunk: int, se_band: tuple[float, float],
                 clusters: int):
        self.config = config
        self.trials_per_chunk = trials_per_chunk
        self.se_band = se_band
        self.clusters = clusters  # planted cluster count of lambda_diag at g_hat

    def prepare(self, seed: int, k: int, out: Path) -> list[list[str]]:
        base = seed * _SEED_STRIDE + k * self.trials_per_chunk
        return [["run", str(self.config), "--trials", str(self.trials_per_chunk),
                 "--seed", str(base), "--out", str(out)]]

    def probe_calls(self, seed: int, out: Path) -> list[list[str]]:
        return [["run", str(self.config), "--trials", "1",
                 "--seed", str(seed * _SEED_STRIDE), "--out", str(out)]]

    def check(self, k: int, out: Path, results) -> Chunk:
        K = self.trials_per_chunk
        chunk = Chunk(ops=K, trials=K)
        (rc, _), = results
        if rc != 0:
            chunk.failed = K
            chunk.problems.append(f"chunk {k}: run exited {rc}")
            return chunk
        results_csv = (out / "results.csv").read_text()
        chunk.products = {
            "results.csv": _drop_time_columns(results_csv),
            "summary.csv": _drop_time_columns((out / "summary.csv").read_text()),
        }
        rows = list(csv.DictReader(io.StringIO(results_csv)))
        acc = {"se_evd": [], "se_cluster_evd": [], "detect": []}
        bad_trials = set()
        seen = set()
        for row in rows:
            trial, method = int(row["trial"]), row["method"]
            seen.add(trial)
            se = None if row["se"] == "NA" else float(row["se"])
            if se is None or not 0.0 <= se <= 1.0:
                bad_trials.add(trial)
                chunk.problems.append(f"chunk {k} trial {trial} {method}: se={row['se']}")
                continue
            acc[f"se_{method}"].append(se)
            if method == "cluster_evd":
                acc["detect"].append(1.0 if int(row["vartheta_hat"]) == self.clusters else 0.0)
        missing = set(range(K)) - seen
        if missing or len(rows) != 2 * K:
            chunk.problems.append(f"chunk {k}: {len(rows)} records for {K} trials")
        chunk.failed = len(bad_trials | missing)
        chunk.accuracy = acc
        return chunk

    def summarize(self, acc: dict[str, list[float]]) -> tuple[dict[str, float], list[str]]:
        """End-to-end accuracy over the accuracy chunks, and workload-level
        check failures."""
        figures = {
            "se_evd_mean": _mean(acc.get("se_evd", [])),
            "se_cluster_mean": _mean(acc.get("se_cluster_evd", [])),
            "detect_rate": _mean(acc.get("detect", [])),
        }
        lo, hi = self.se_band
        problems = [f"{name}={figures[name]} outside [{lo}, {hi}]"
                    for name in ("se_evd_mean", "se_cluster_mean")
                    if not lo <= figures[name] <= hi]
        if not figures["detect_rate"] >= 0.9:
            problems.append(f"detect_rate={figures['detect_rate']} below 0.9")
        return figures, problems


_BLOCK_SUM = re.compile(r"block-sum bound: (\d+) draws, (\d+) violations, worst lhs/rhs = (\S+) \[")
_PERTURB = re.compile(r"perturbation bound: (\d+) instances checked \((\d+) without a usable gap\), "
                      r"(\d+) violations")
_COUNTEREXAMPLE = "static-support counterexample: rejected by the schedule validator [ok]"


def planted_spectrum(rng: np.random.Generator, size: int, g: float):
    """A non-increasing positive spectrum with a known greedy ratio-g partition.

    Cluster k spans (t_k / g**0.9, t_k] and contains t_k itself; the next
    cluster's top is t_k / g**1.5, so every cluster closes exactly at the
    first value of the next one.  Returns (values, 1-based cluster ids).
    """
    count = int(rng.integers(5, 16))
    cuts = np.sort(rng.choice(np.arange(1, size), size=count - 1, replace=False))
    sizes = np.diff(np.concatenate([[0], cuts, [size]]))
    values, ids = [], []
    top = 1e6
    for cid, m in enumerate(sizes, start=1):
        u = np.sort(rng.uniform(0.0, 1.0, size=int(m) - 1))
        values.extend([top] + list(top * g ** (-0.9 * u)))
        ids.extend([cid] * int(m))
        top /= g ** 1.5
    return [float(v) for v in values], ids


class Oracles:
    """One cycle of `verify` (block-sum and perturbation sweeps), `bounds` on
    the paper's config and `partition` of a planted 500-value spectrum.  One
    op is one block-sum draw or one perturbation instance, plus one op each
    for the `bounds` and `partition` calls."""

    def __init__(self, draws: int, instances: int, spectrum_size: int = 500, g: float = 3.0):
        self.draws = draws
        self.instances = instances
        self.spectrum_size = spectrum_size
        self.g = g
        self.config = ROOT / "configs" / "expt1.cfg"
        self._planted: dict[int, list[tuple[float, int]]] = {}
        # End-to-end accuracy of the oracle sweeps comes from their return
        # values, which `verify` only summarises.
        self.recorders = (
            ("ddnpca.bench", "sin_theta_gap_check", self._record_sin_theta),
            ("ddnpca.bench", "verify_m2_bound", self._record_m2),
        )
        self._sin_theta: list[float] = []
        self._m2: list[float] = []

    def _record_sin_theta(self, result):
        self._sin_theta.append(float(result[1]))

    def _record_m2(self, result):
        lhs, rhs, _ = result
        self._m2.append(lhs / rhs if rhs > 0 else math.inf)

    def _spectrum(self, seed: int, k: int, out: Path) -> Path:
        rng = np.random.default_rng([seed, k])
        values, ids = planted_spectrum(rng, self.spectrum_size, self.g)
        self._planted[k] = list(zip(values, ids))
        path = out / f"eigs_{k}.txt"
        path.write_text(" ".join(repr(v) for v in values) + "\n")
        return path

    def prepare(self, seed: int, k: int, out: Path) -> list[list[str]]:
        eigs = self._spectrum(seed, k, out)
        self._sin_theta, self._m2 = [], []
        return [
            ["verify", "--seed", str(seed * _SEED_STRIDE + k),
             "--draws", str(self.draws), "--instances", str(self.instances)],
            ["bounds", str(self.config)],
            ["partition", str(eigs), "--g", repr(self.g), "--out", str(out / "plot.txt")],
        ]

    def probe_calls(self, seed: int, out: Path) -> list[list[str]]:
        eigs = self._spectrum(seed, 0, out)
        return [["verify", "--seed", str(seed), "--draws", "1", "--instances", "1"],
                ["bounds", str(self.config)],
                ["partition", str(eigs), "--g", repr(self.g), "--out", str(out / "plot.txt")]]

    def check(self, k: int, out: Path, results) -> Chunk:
        chunk = Chunk(ops=self.draws + self.instances + 2)
        (v_rc, v_out), (b_rc, b_out), (p_rc, _) = results
        bs, pt = _BLOCK_SUM.search(v_out), _PERTURB.search(v_out)
        if v_rc not in (0, 1) or not bs or not pt:
            chunk.failed += self.draws + self.instances
            chunk.problems.append(f"cycle {k}: verify exited {v_rc}: {v_out!r}")
        else:
            violations = int(bs.group(2)) + int(pt.group(3))
            chunk.failed += violations
            if violations or v_rc != 0:
                chunk.problems.append(f"cycle {k}: verify exited {v_rc} with {violations} violations")
            if _COUNTEREXAMPLE not in v_out:
                chunk.problems.append(f"cycle {k}: static-support counterexample accepted")
            if int(pt.group(1)) + int(pt.group(2)) != self.instances:
                chunk.problems.append(f"cycle {k}: perturbation instance count mismatch")
        if b_rc != 0 or "[simple-EVD]" not in b_out or "[cluster-EVD]  zeta=" not in b_out:
            chunk.failed += 1
            chunk.problems.append(f"cycle {k}: bounds exited {b_rc}: {b_out!r}")
        plot = out / "plot.txt"
        if p_rc != 0 or not self._plot_matches(plot, k):
            chunk.failed += 1
            chunk.problems.append(f"cycle {k}: partition exited {p_rc} or mislabelled the spectrum")
        chunk.products = {"verify": v_out, "bounds": b_out,
                          "plot.txt": plot.read_text() if plot.exists() else ""}
        chunk.accuracy = {"sin_theta": list(self._sin_theta), "m2_ratio": list(self._m2),
                          "gap": [1.0] * len(self._sin_theta)
                          + [0.0] * (self.instances - len(self._sin_theta))}
        return chunk

    def _plot_matches(self, plot: Path, k: int) -> bool:
        if not plot.exists():
            return False
        want = self._planted[k]
        lines = plot.read_text().splitlines()
        if len(lines) != len(want):
            return False
        return all(line.split() == [str(i), format(value, ".17g"), str(cid)]
                   for i, (line, (value, cid)) in enumerate(zip(lines, want), start=1))

    def summarize(self, acc: dict[str, list[float]]) -> tuple[dict[str, float], list[str]]:
        figures = {
            "se_evd_mean": _mean(acc.get("sin_theta", [])),
            "se_cluster_mean": _mean(acc.get("m2_ratio", [])),
            "detect_rate": _mean(acc.get("gap", [])),
        }
        problems = []
        if not 0.0 < figures["se_evd_mean"] <= 1.0:
            problems.append(f"mean measured sin-theta {figures['se_evd_mean']} outside (0, 1]")
        if not 0.0 < figures["se_cluster_mean"] <= 1.0:
            problems.append(f"mean block-sum lhs/rhs {figures['se_cluster_mean']} outside (0, 1]")
        if not figures["detect_rate"] >= 0.5:
            problems.append(f"usable-gap share {figures['detect_rate']} below 0.5")
        return figures, problems


def make(name: str):
    if name == "expt1":
        return MonteCarlo(ROOT / "configs" / "expt1.cfg", trials_per_chunk=5,
                          se_band=(0.05, 0.15), clusters=2)
    if name == "missing_tall":
        return MonteCarlo(HERE / "missing_tall.cfg", trials_per_chunk=5,
                          se_band=(0.15, 0.25), clusters=2)
    if name == "oracles":
        return Oracles(draws=20, instances=200)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("expt1", "missing_tall", "oracles")
