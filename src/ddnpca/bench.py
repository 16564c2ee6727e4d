"""Monte Carlo benchmark harness: config parsing, seeded trials of both
estimators, CSV output, and the oracle sweeps behind the `verify` command."""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import numbers
import time
import typing
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import datagen
from .errors import ConfigError, DdnPcaError, ParameterError, SpectralGapError
from .estimators import block_eig, cluster_evd, detect_cluster, reduce_block, simple_evd
from .linalg import one_blas_thread, subspace_error
from .spectrum import ClusterPartition, g_partition
from .theory import (
    BoundInputs,
    alpha0_cluster,
    alpha0_simple,
    beta_frac_cluster,
    beta_frac_simple,
    sin_theta_gap_check,
    verify_m2_bound,
    zeta_caps,
)


def _is_number(value, kind=numbers.Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


# field type -> (reader of a config value, test of a field value, what a bad
# value was expected to be)
_READERS = {
    int: (int, lambda value: _is_number(value, numbers.Integral), "expected integer"),
    float: (float, _is_number, "expected number"),
    tuple[float, ...]: (lambda text: tuple(map(float, text.split(","))),
                        lambda value: isinstance(value, Sequence) and not isinstance(value, str)
                        and all(map(_is_number, value)), "expected comma-separated numbers"),
    str: (str, lambda value: isinstance(value, str), "expected string"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; the fields are the config file's keys.  However it
    is made, the constructor checks each field's type against its
    annotation, then checks the values by building what a trial builds from
    them, and turns any failure into a `ConfigError`."""

    n: int
    r: int
    alpha: int
    lambda_diag: tuple[float, ...]
    noise_kind: str
    q_gen: float
    s: int
    rho: int
    beta_tilde: int
    g_hat: float
    thresh: float
    trials: int
    base_seed: int
    basis_kind: str

    def __post_init__(self):
        for key, kind in _FIELD_TYPES.items():
            _, accepts, expected = _READERS[kind]
            if not accepts(value := getattr(self, key)):
                raise ConfigError(f"key {key!r}: {expected}, got {value!r}")
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be non-negative")
        object.__setattr__(self, "lambda_diag", tuple(float(x) for x in self.lambda_diag))
        try:
            _build_model(self, np.random.default_rng(self.base_seed))
            _block_noise(self, 0)
            detect_cluster(self.lambda_diag, self.g_hat, effective_thresh(self))
        except DdnPcaError as exc:
            raise ConfigError(str(exc)) from None


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def parse_config(path, **overrides) -> ExperimentConfig:
    """Parse a flat `key = value` config file; `#` starts a comment.  The
    keys and types are `ExperimentConfig`'s fields; errors name the file.
    `overrides` (field=value) replace the file's values before the one check."""
    raw: dict[str, str] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    missing = sorted(_FIELD_TYPES.keys() - raw.keys())
    if missing:
        raise ConfigError(f"{path}: missing keys: {', '.join(missing)}")

    kwargs = {}
    for key, kind in _FIELD_TYPES.items():
        read, _, expected = _READERS[kind]
        try:
            kwargs[key] = read(raw[key])
        except ValueError:
            raise ConfigError(f"{path}: key {key!r}: {expected}, got {raw[key]!r}") from None
    try:
        return ExperimentConfig(**(kwargs | overrides))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    method: str              # "evd" | "cluster_evd"
    se: float | None         # None on estimator failure
    time_ms: float
    vartheta_hat: int
    rank_hat: int
    q_measured: float
    seed: int


@dataclass(frozen=True)
class MethodSummary:
    method: str
    mean_se: float | None    # arithmetic mean over successful trials
    mean_time_ms: float
    failure_count: int


def effective_thresh(cfg: ExperimentConfig) -> float:
    """Retention/stop threshold actually handed to the estimators.

    The configured value follows the 0.95*lambda_min prescription, which
    presumes batch lengths long enough for empirical eigenvalues to sit
    within 5% of the truth.  At desk-scale alpha the smallest eigenvalue
    fluctuates past that margin in a large fraction of trials, so the
    harness caps the threshold at half the smallest signal eigenvalue: low
    enough to clear the fluctuation band, far above the noise floor.
    """
    return min(cfg.thresh, 0.5 * min(cfg.lambda_diag))


def _blocks(model: datagen.SignalModel, cfg: ExperimentConfig, rng: np.random.Generator, noises):
    """One trial's observation blocks, generated on demand, each as
    (block, q, ms): the block Y as `reduce_block` leaves it, the q that
    `generate_dataset` measured, and the milliseconds the reduction took.
    The reduction runs wherever the block is drawn.  A block that fails to
    draw is its DdnPcaError, which is then every later item, drawn no more.

    Block k gets its own support schedule, shifted to continue the motion of
    block k-1; every block's schedule is validated on its own, matching the
    per-batch form in which the correlation budget is consumed.  Block k's
    noise model depends on cfg and k alone: the dict `noises` keeps it from
    first use, for every trial given that dict.  Endless: the consumer
    bounds it (the harness caps cluster_evd at cfg.r blocks).
    """
    first_run = 0  # of the motion, for the next block's schedule
    try:
        for k in itertools.count():
            if k not in noises:  # threads that race here build equal models
                noises[k] = _block_noise(cfg, first_run)
            first_run += math.ceil(cfg.alpha / cfg.beta_tilde)  # this block's runs
            Y, q = datagen.generate_dataset(model, noises[k], cfg.alpha, rng)
            t0 = time.perf_counter()
            Y = reduce_block(Y)
            yield Y, q, (time.perf_counter() - t0) * 1e3
    except DdnPcaError as exc:
        yield from itertools.repeat(exc)


def _draws(cfg: ExperimentConfig, trials, plan: int):
    """The draws of `trials` in order, `plan` items per trial: (seed, model,
    source, block 1), then blocks 2..plan, each a `_blocks` item of the
    trial's `source`, which draws its later blocks.  The sources share one
    `noises` dict, which lives as long as they do."""
    noises: dict = {}
    for i in trials:
        rng = np.random.default_rng(cfg.base_seed + i)
        model = _build_model(cfg, rng)
        source = _blocks(model, cfg, rng, noises)
        yield cfg.base_seed + i, model, source, next(source)
        yield from itertools.islice(source, plan - 1)


def _one_ahead(items):
    """The items of the iterator `items`, each drawn on a worker thread while
    the caller holds the one before it, so one item is in flight.  An
    exception from `items` is raised where its item is taken; closing the
    generator joins the worker."""
    from concurrent.futures import ThreadPoolExecutor  # imports logging, which only `run` needs

    end = object()
    with ThreadPoolExecutor(max_workers=1) as worker:
        drawn = worker.submit(next, items, end)
        while (item := drawn.result()) is not end:
            drawn = worker.submit(next, items, end)  # drawn while the caller holds item
            yield item


def _block_noise(cfg: ExperimentConfig, first_run: int):
    """Noise model of a block whose schedule starts at run `first_run` of
    the support motion."""
    schedule = datagen.generate_support_schedule(
        cfg.n, cfg.alpha, cfg.s, cfg.rho, cfg.beta_tilde, first_run=first_run
    )
    if cfg.noise_kind == "missing":
        return datagen.MissingNoiseModel(schedule)
    if cfg.noise_kind == "sddc":
        return datagen.SddcNoiseModel(cfg.q_gen, schedule)
    raise ConfigError(f"noise_kind must be 'missing' or 'sddc', got {cfg.noise_kind!r}")


def _build_model(cfg: ExperimentConfig, rng: np.random.Generator) -> datagen.SignalModel:
    if cfg.basis_kind == "sparse":
        P = datagen.sparse_basis(cfg.n, cfg.r)
    elif cfg.basis_kind == "random":
        P = datagen.random_basis(cfg.n, cfg.r, rng)
    else:
        raise ConfigError(f"basis_kind must be 'sparse' or 'random', got {cfg.basis_kind!r}")
    return datagen.SignalModel(P=P, lam=np.asarray(cfg.lambda_diag))


def run_trial(cfg: ExperimentConfig, trial_index: int, draws, plan: int) -> list[TrialRecord]:
    """Run both estimators once; deterministic given (cfg, trial_index).

    The trial's randomness derives from base_seed + trial_index alone.  The
    first block is decomposed once: the one-shot estimator uses that
    decomposition alone, and the cluster estimator starts from it and takes
    later blocks one at a time.  The trial holds at most one decomposition:
    block 1's is handed to cluster_evd, which frees each before it takes
    the next block.  `draws` is a `_draws` stream positioned at this trial,
    of which the trial takes its `plan` items.  A block that failed to draw
    raises where it is taken: block 1's leaves run_trial, a later one fails
    the cluster row.
    Estimator failures are recorded (se=None), not raised; when the first
    block cannot be decomposed, both rows fail.  A row's q_measured is the
    largest over the blocks taken by the time it is recorded: block 1's for
    evd, and for cluster_evd the largest over the blocks it took.

    Each row's time_ms is what its method would cost alone, without data
    generation: the shared first-block decomposition is charged to both
    rows, and the time spent getting each later block, drawing it or
    waiting for it, is outside the cluster row's clock.  A block's
    reduction (`reduce_block`) is estimator work, charged wherever it ran:
    block 1's to both rows, a later block's to the cluster row.  So the evd
    row is block 1's reduction and decomposition plus `simple_evd`, and the
    cluster_evd row is those two plus cluster_evd's own work (the later
    blocks' eigensolves and deflations) and each later block's reduction.

    This is `run_experiment`'s per-trial step, not an entry point.  A trial
    run alone takes a stream of that trial only, `_draws(cfg, [i], plan)`;
    any plan >= 1 gives the same records outside time_ms.
    """
    seed, model, source, first = next(draws)
    rest = itertools.islice(draws, plan - 1)  # the stream's blocks 2..plan of this trial
    qs: list[float] = []  # q of each block taken
    later_ms = 0.0        # the later blocks' reduction ms less the ms spent getting them

    def observed(block):
        if isinstance(block, DdnPcaError):
            raise block
        Y, q, ms = block
        qs.append(q)
        return Y, ms

    Y1, shared_ms = observed(first)  # block 1's reduction, charged to both rows
    del first
    thresh = effective_thresh(cfg)

    t0 = time.perf_counter()
    try:
        held, first_error = [block_eig(Y1)], None  # block 1's decomposition, until handed over
    except DdnPcaError as exc:
        held, first_error = [], exc
    shared_ms += (time.perf_counter() - t0) * 1e3
    del Y1  # the decomposition keeps the block where it lifts from it

    def record(method, estimate) -> TrialRecord:
        t0 = time.perf_counter()
        try:
            if first_error is not None:
                raise first_error
            P_hat, vartheta_hat = estimate()
            t1 = time.perf_counter()
            se, rank_hat = subspace_error(P_hat, model.P), P_hat.shape[1]
        except DdnPcaError:
            t1 = time.perf_counter()
            se, vartheta_hat, rank_hat = None, 0, 0
        # evd, recorded first, takes no later block
        elapsed = shared_ms + (t1 - t0) * 1e3 + later_ms
        return TrialRecord(
            trial=trial_index, method=method, se=se, time_ms=elapsed,
            vartheta_hat=vartheta_hat, rank_hat=rank_hat,
            q_measured=max(qs), seed=seed,
        )

    def evd():
        return simple_evd(held[0], thresh), 1

    def cluster_blocks():
        nonlocal later_ms
        # popped, not read: a yielded value leaves no reference in this
        # frame, so cluster_evd holds block 1's decomposition alone and
        # frees it before it takes block 2
        yield held.pop()
        blocks = itertools.chain(rest, source)
        while True:
            t0 = time.perf_counter()
            block = next(blocks)
            later_ms -= (time.perf_counter() - t0) * 1e3
            Y, ms = observed(block)
            later_ms += ms
            yield Y

    def cluster():
        P_hat, sizes = cluster_evd(cluster_blocks(), cfg.g_hat, thresh, max_clusters=cfg.r)
        return P_hat, len(sizes)

    records = [record("evd", evd), record("cluster_evd", cluster)]
    for _ in rest:  # the stream's items of this trial that it did not use
        pass
    return records


def summarize(records: list[TrialRecord]) -> list[MethodSummary]:
    out = []
    for method in ("evd", "cluster_evd"):
        recs = [r for r in records if r.method == method]
        if not recs:
            continue
        ok = [r.se for r in recs if r.se is not None]
        out.append(MethodSummary(
            method=method,
            mean_se=(sum(ok) / len(ok)) if ok else None,
            mean_time_ms=sum(r.time_ms for r in recs) / len(recs),
            failure_count=len(recs) - len(ok),
        ))
    return out


def _fmt(x) -> str:
    return "NA" if x is None else repr(float(x))


def _to_csv(rows, cls) -> str:
    """One column per field of `cls`, in order; float fields through `_fmt`."""
    hints = typing.get_type_hints(cls)
    fields = [(f.name, _fmt if hints[f.name] in (float, float | None) else str)
              for f in dataclasses.fields(cls)]
    lines = [",".join(name for name, _ in fields)]
    lines += [",".join(fmt(getattr(row, name)) for name, fmt in fields) for row in rows]
    return "\n".join(lines) + "\n"


def records_to_csv(records: list[TrialRecord]) -> str:
    return _to_csv(records, TrialRecord)


def summary_to_csv(summary: list[MethodSummary]) -> str:
    return _to_csv(summary, MethodSummary)


def run_experiment(cfg: ExperimentConfig,
                   out_dir) -> tuple[list[TrialRecord], list[MethodSummary]]:
    """Run all trials in order and write results.csv / summary.csv; out_dir
    is made first, so an unusable one fails before any trial runs.

    OpenBLAS runs one thread for the length of the run, its pool parked
    before the worker starts, and its thread count is restored after.
    `_one_ahead`'s worker thread draws and reduces each trial's first `plan`
    blocks one ahead (as many as cluster_evd takes on the planted spectrum)
    while the estimators run on the block in hand; a trial that needs more
    draws them itself, on the main thread.  Every trial still draws from its
    own generator, seeded base_seed + i, in the same order, so both files
    are byte-reproducible outside the time columns for a fixed config and
    seed, on any number of cores: the records equal those of a serial
    `run_trial` loop at one BLAS thread (OPENBLAS_NUM_THREADS=1), whatever
    the machine's BLAS thread count.  Where no OpenBLAS can be found to pin
    (another BLAS, or no /proc/self/maps), no thread starts and the draws
    are inline.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        plan = g_partition(cfg.lambda_diag, cfg.g_hat).vartheta
        with one_blas_thread() as pinned:
            draws = _draws(cfg, range(cfg.trials), plan)
            with contextlib.closing(_one_ahead(draws) if pinned else draws) as draws:
                records = [rec for i in range(cfg.trials)
                           for rec in run_trial(cfg, i, draws, plan)]
        summary = summarize(records)
        (out / "results.csv").write_text(records_to_csv(records))
        (out / "summary.csv").write_text(summary_to_csv(summary))
    except OSError as exc:
        raise ConfigError(f"cannot write results under {out}: {exc}") from exc
    return records, summary


# ---------------------------------------------------------------------------
# Cluster plot files
# ---------------------------------------------------------------------------

def emit_cluster_plot(eigenvalues, partition: ClusterPartition, path) -> None:
    """Write plot data: one line per eigenvalue, 'index value cluster_id'.

    Indices and cluster ids are 1-based; eigenvalues outside every cluster
    (trailing zeros) get cluster id 0.  The partition's clusters must cover
    exactly the nonzero eigenvalues, as `g_partition` of them does.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    covered = sum(partition.sizes)
    if not np.array_equal(lam > 0.0, np.arange(lam.size) < covered):
        raise ParameterError("partition does not cover the nonzero eigenvalues")
    ids = np.zeros(lam.size, dtype=int)
    ids[:covered] = np.repeat(np.arange(1, partition.vartheta + 1), partition.sizes)
    with open(path, "w") as fh:
        for i, (val, cid) in enumerate(zip(lam, ids), start=1):
            fh.write(f"{i} {format(val, '.17g')} {cid}\n")


# ---------------------------------------------------------------------------
# Theory report and oracle sweeps (CLI `bounds` / `verify`)
# ---------------------------------------------------------------------------

def bounds_report(cfg: ExperimentConfig) -> str:
    """Human-readable calculator outputs for a config.

    zeta is the largest value each calculator admits (`theory.zeta_caps`);
    the clustering figures come from partitioning lambda_diag at the g
    implied by the configured g_hat through the setting rule
    g_hat = 1.01*g + 0.0001, and f is that partition's condition number.
    q is `q_gen` on the sddc channel: the scale of M_st's entries, not a
    bound on ||M_st P||, whose median per frame is 3.62*q_gen at s = r = 5
    (README, "Deviations from the paper", item 3).  On the missing channel
    it is ||I_T' P|| as trial 0's first block measures it, since that
    channel has no q knob.
    """
    rng = np.random.default_rng(cfg.base_seed)
    model = _build_model(cfg, rng)
    noise = _block_noise(cfg, 0)
    g_implied = max(1.0, (cfg.g_hat - 0.0001) / 1.01)
    part = g_partition(model.lam, g_implied)
    f, q = part.f, cfg.q_gen
    if isinstance(noise, datagen.MissingNoiseModel):
        _, q = datagen.generate_dataset(model, noise, cfg.alpha, rng)
    lines = [f"n={cfg.n} r={cfg.r} f={f:g} q={q:g} eta={datagen.ETA:g} (uniform coefficients)"]

    zeta1, *cluster_caps = zeta_caps(cfg.r, f)
    inp1 = BoundInputs(n=cfg.n, r=cfg.r, f=f, q=q, eta=datagen.ETA, zeta=zeta1)
    lines.append(f"[simple-EVD]   zeta={zeta1:.6g}  alpha0={alpha0_simple(inp1):.6g}  "
                 f"beta/alpha<={beta_frac_simple(inp1):.6g}")

    lines.append(
        f"[clustering]   g={part.g_eff:g} chi={part.chi:g} vartheta={part.vartheta} "
        f"sizes={part.sizes} (partition at g={g_implied:.6g})"
    )
    zeta2 = min(cluster_caps)
    try:  # a cap of 0.0, past the float range, fails BoundInputs' check
        inp2 = BoundInputs(
            n=cfg.n, r=cfg.r, f=f, q=q, eta=datagen.ETA, zeta=zeta2,
            r_k=min(part.sizes), g_plus=part.g_eff, chi_plus=part.chi,
            vartheta=part.vartheta,
        )
        lines.append(f"[cluster-EVD]  zeta={zeta2:.6g}  alpha0={alpha0_cluster(inp2):.6g}  "
                     f"beta/alpha<={beta_frac_cluster(inp2):.6g}  "
                     f"samples={part.vartheta}*alpha0")
    except DdnPcaError as exc:
        lines.append(f"[cluster-EVD]  not applicable: {exc}")
    return "\n".join(lines)


def _check_sweep(count: int, seed: int, name: str):
    # a sweep of no draws would report [ok] having checked nothing
    if count < 1 or seed < 0:
        raise ParameterError(f"need {name} >= 1 and seed >= 0, got {name}={count}, seed={seed}")


# expt1's block-sum schedule (n, alpha, s, rho, beta_tilde), the one `verify` checks
_BLOCK_SUM_SHAPE = (500, 300, 5, 2, 1)


def block_sum_bound_sweep(draws: int, seed: int):
    """Seeded sweep of the block-sum norm bound on generated schedules of
    shape `_BLOCK_SUM_SHAPE`, each starting at a random coordinate.

    Returns (violations, worst_ratio) where worst_ratio is the largest
    lhs/rhs observed.  Every draw's n x n sum is built in one buffer, so its
    pages stay resident for the sweep instead of being faulted in per draw.
    """
    _check_sweep(draws, seed, "draws")
    n, alpha, s, rho, beta_tilde = _BLOCK_SUM_SHAPE
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    S = np.empty((n, n))
    for _ in range(draws):
        start = int(rng.integers(0, n))
        schedule = datagen.generate_support_schedule(
            n, alpha, s, rho, beta_tilde, start=start
        )
        # One (alpha, s, s) draw: the stream of one (s, s) draw per frame.
        B = rng.standard_normal((alpha, s, s))
        lhs, rhs, holds = verify_m2_bound(schedule, np.swapaxes(B, 1, 2) @ B, out=S)
        worst = max(worst, lhs / rhs if rhs > 0 else math.inf)
        if not holds:
            violations += 1
    return violations, worst


def sin_theta_sweep(instances: int, seed: int):
    """Seeded sweep of the eigenspace perturbation bound on random
    instances of sizes 3 to 20.

    Returns (checked, vacuous, violations): `vacuous` counts instances whose
    gap net of the perturbation norm was not positive.
    """
    _check_sweep(instances, seed, "instances")
    rng = np.random.default_rng(seed)
    checked = vacuous = violations = 0
    for _ in range(instances):
        n = int(rng.integers(3, 21))
        r = int(rng.integers(1, n))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        top = np.sort(rng.uniform(1.5, 2.5, size=r))[::-1]
        bottom = np.sort(rng.uniform(0.0, 0.6, size=n - r))[::-1]
        A = (Q * np.concatenate([top, bottom])) @ Q.T
        B = rng.standard_normal((n, n))
        H = rng.uniform(0.02, 0.3) * (B + B.T) / (2.0 * math.sqrt(n))
        try:
            bound, measured = sin_theta_gap_check(A, H, r)
        except SpectralGapError:
            vacuous += 1
            continue
        checked += 1
        if measured > bound + 1e-9:
            violations += 1
    return checked, vacuous, violations
