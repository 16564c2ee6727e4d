import ast
import ctypes
import dataclasses
import importlib
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from csv_rows import read_rows
from standalone import standalone_trial
from ddnpca import bench, cli, datagen, estimators, linalg
from ddnpca.bench import (
    ExperimentConfig,
    TrialRecord,
    effective_thresh,
    emit_cluster_plot,
    parse_config,
    records_to_csv,
    run_experiment,
)
from ddnpca.cli import main
from ddnpca.errors import ConfigError, DimensionError, ParameterError, ScheduleError
from ddnpca.estimators import BlockEig, BlockMoment
from ddnpca.linalg import one_blas_thread
from ddnpca.spectrum import g_partition

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"


def small_cfg(**overrides) -> ExperimentConfig:
    base = dict(
        n=40, r=3, alpha=60, lambda_diag=(16.0, 4.0, 1.0), noise_kind="sddc",
        q_gen=0.01, s=3, rho=3, beta_tilde=1, g_hat=2.5, thresh=0.4,
        trials=3, base_seed=11, basis_kind="sparse",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestParseConfig:
    def test_bundled_expt1(self):
        cfg = parse_config(CONFIG_DIR / "expt1.cfg")
        assert cfg.n == 500 and cfg.r == 5 and cfg.alpha == 300
        assert cfg.lambda_diag == (100.0, 100.0, 100.0, 0.1, 0.1)
        assert cfg.noise_kind == "sddc" and cfg.q_gen == 0.01
        assert (cfg.s, cfg.rho, cfg.beta_tilde) == (5, 2, 1)
        assert cfg.g_hat == 3.0 and cfg.thresh == 0.095
        assert cfg.trials == 200 and cfg.base_seed == 42
        assert cfg.basis_kind == "sparse"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        with pytest.raises(ConfigError, match="missing keys"):
            parse_config(path)

    def test_negative_thresh(self, tmp_path):
        text = (CONFIG_DIR / "expt1.cfg").read_text().replace("thresh = 0.095", "thresh = -1")
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="thresh"):
            parse_config(path)

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match=r"bad.cfg:1: unknown key 'bogus'"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        text = (CONFIG_DIR / "expt1.cfg").read_text() + "n = 5\n"
        path = tmp_path / "dup.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_bad_value_type(self, tmp_path):
        text = (CONFIG_DIR / "expt1.cfg").read_text().replace("n = 500", "n = five hundred")
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="'n'"):
            parse_config(path)

    @pytest.mark.parametrize("key, value, expected", [
        ("n", "five", "expected integer"),
        ("q_gen", "small", "expected number"),
        ("lambda_diag", "100, 100; 0.1", "expected comma-separated numbers"),
    ])
    def test_bad_value_names_expected_type(self, tmp_path, key, value, expected):
        path = expt1_with(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=re.escape(f"{path}: key {key!r}: {expected}, got")):
            parse_config(path)

    def test_readme_lists_every_key(self):
        # the key table under README "Config format" documents every field
        readme = (REPO / "README.md").read_text()
        section = readme.split("## Config format\n", 1)[1].split("\n## ", 1)[0]
        keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
        assert keys == [f.name for f in dataclasses.fields(ExperimentConfig)]

    def test_readme_names_exist(self):
        # each `module.name` README cites is an attribute of that ddnpca
        # module, and each tests/, configs/ or perfbench/ path or glob exists
        readme = (REPO / "README.md").read_text()
        modules = "|".join(p.stem for p in (REPO / "src" / "ddnpca").glob("[!_]*.py"))
        names = re.findall(rf"(?<![\w./-])({modules})\.(\w+)", readme)
        paths = re.findall(r"(?<![\w./-])((?:tests|configs|perfbench)/[\w./*-]*\w)", readme)
        assert names and paths
        assert [f"{module}.{name}" for module, name in names
                if not hasattr(importlib.import_module(f"ddnpca.{module}"), name)] == []
        assert [path for path in paths if not list(REPO.glob(path))] == []


def expt1_with(tmp_path, **values) -> Path:
    """A copy of configs/expt1.cfg with the given keys' values replaced."""
    lines = []
    for line in (CONFIG_DIR / "expt1.cfg").read_text().splitlines():
        key = line.split("=", 1)[0].strip()
        if key in values:
            value = values[key]
            line = f"{key} = {', '.join(map(str, value)) if isinstance(value, tuple) else value}"
        lines.append(line)
    path = tmp_path / "edited.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


# (id, values replaced in expt1) of configs that must be rejected
DOMAIN_CASES = [
    ("lam-zero", dict(lambda_diag=(100, 100, 100, 0.1, 0))),
    ("lam-increasing", dict(lambda_diag=(100, 100, 100, 0.1, 0.2))),
    ("lam-length", dict(lambda_diag=(100, 100, 100, 0.1))),
    ("r-above-n", dict(n=4)),
    ("n", dict(n=0)),
    ("r", dict(r=0)),
    ("alpha", dict(alpha=0)),
    ("s", dict(s=0)),
    ("rho", dict(rho=0)),
    ("beta_tilde", dict(beta_tilde=0)),
    ("q_gen-negative", dict(q_gen=-0.01)),
    ("g_hat-below-1", dict(g_hat=0.5)),
    ("thresh-zero", dict(thresh=0)),
    ("alpha-schedule", dict(alpha=400)),  # block 0's schedule fails validation
    ("noise_kind-unknown", dict(noise_kind="gaussian")),
]
NON_FINITE_CASES = [
    ("q_gen-nan", dict(q_gen=math.nan)),
    ("q_gen-inf", dict(q_gen=math.inf)),
    ("thresh-nan", dict(thresh=math.nan)),
    ("g_hat-nan", dict(g_hat=math.nan)),
    ("lam-nan", dict(lambda_diag=(100, 100, 100, 0.1, math.nan))),
    ("lam-inf", dict(lambda_diag=(math.inf, 100, 100, 0.1, 0.1))),
]


# (key, value) of expt1 fields set to a value of the wrong type, and the
# kind the error must say was expected
TYPE_CASES = [
    ("n", 500.5, "expected integer"),
    ("n", True, "expected integer"),
    ("alpha", 300.0, "expected integer"),
    ("trials", "3", "expected integer"),
    ("g_hat", "3", "expected number"),
    ("q_gen", "0.01", "expected number"),
    ("thresh", None, "expected number"),
    ("lambda_diag", "100,100,100,0.1,0.1", "expected comma-separated numbers"),
    ("lambda_diag", (100, 100, 100, 0.1, None), "expected comma-separated numbers"),
    ("basis_kind", 1, "expected string"),
]


def cases(table):
    return pytest.mark.parametrize("values", [v for _, v in table], ids=[i for i, _ in table])


class TestParseConfigBuildsTrialObjects:
    """ExperimentConfig checks a config by building what a trial builds from
    it: every failure is a ConfigError, and parse_config's names the file."""

    @cases(DOMAIN_CASES)
    def test_domain_check_rejects(self, tmp_path, values):
        path = expt1_with(tmp_path, **values)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: ")):
            parse_config(path)

    @cases(NON_FINITE_CASES)
    def test_non_finite_rejects(self, tmp_path, values):
        path = expt1_with(tmp_path, **values)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: ")):
            parse_config(path)

    @cases(DOMAIN_CASES + NON_FINITE_CASES)
    @pytest.mark.parametrize("build", ["direct", "replace"])
    def test_constructor_rejects(self, values, build):
        expt1 = parse_config(CONFIG_DIR / "expt1.cfg")
        with pytest.raises(ConfigError):
            if build == "direct":
                ExperimentConfig(**{**dataclasses.asdict(expt1), **values})
            else:
                dataclasses.replace(expt1, **values)

    def test_infinite_caps_stay_valid(self, tmp_path):
        # g_hat = inf makes one cluster; thresh = inf is capped by the derating
        cfg = parse_config(expt1_with(tmp_path, g_hat="inf", thresh="inf"))
        assert effective_thresh(cfg) == pytest.approx(0.05)

    @pytest.mark.parametrize("command", ["bounds", "run"])
    def test_schedule_failure_exits_2_naming_file(self, tmp_path, capsys, command):
        # at alpha = 400 expt1's wrapped motion covers a pixel more than
        # rho^2 * beta_tilde times
        path = expt1_with(tmp_path, alpha=400)
        extra = ["--trials", "1", "--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "cover" in err
        assert not (tmp_path / "out").exists()

    # past numpy's index range, so numpy refuses them before allocating anything
    PAST_INDEX_RANGE = ["n", "alpha", "beta_tilde"]

    @pytest.mark.parametrize("key", PAST_INDEX_RANGE)
    @pytest.mark.parametrize("command", ["bounds", "run"])
    def test_integer_past_index_range_exits_2_naming_file(self, tmp_path, capsys, command,
                                                          key):
        path = expt1_with(tmp_path, **{key: 10**20})
        extra = ["--trials", "1", "--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path), *extra]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", PAST_INDEX_RANGE)
    def test_replace_past_index_range_rejects(self, key):
        expt1 = parse_config(CONFIG_DIR / "expt1.cfg")
        with pytest.raises(ConfigError, match="too large"):
            dataclasses.replace(expt1, **{key: 10**20})

    def test_large_seed_and_rho_stay_valid(self, tmp_path, capsys):
        # neither sizes an array, so neither meets numpy's index range
        path = expt1_with(tmp_path, base_seed=2**64, rho=10**20)
        cfg = parse_config(path)
        assert (cfg.base_seed, cfg.rho) == (2**64, 10**20)
        assert main(["run", str(path), "--trials", "1", "--out", str(tmp_path / "out")]) == 0
        assert len(read_rows((tmp_path / "out" / "results.csv").read_text())) == 2

    @pytest.mark.parametrize("command", ["bounds", "run"])
    def test_undecodable_file_exits_2_naming_file(self, tmp_path, capsys, command):
        path = tmp_path / "utf16.cfg"
        path.write_bytes(b"\xff\xfe" + "n = 500\n".encode("utf-16-le"))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


class TestConfigFieldTypes:
    """The constructor checks each field's type before it builds anything,
    and names the key in parse_config's form."""

    @pytest.mark.parametrize("key, value, expected", TYPE_CASES,
                             ids=[f"{k}-{v!r}" for k, v, _ in TYPE_CASES])
    @pytest.mark.parametrize("build", ["direct", "replace"])
    def test_wrong_type_names_key(self, key, value, expected, build):
        expt1 = parse_config(CONFIG_DIR / "expt1.cfg")
        message = f"^key {key!r}: {expected}, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            if build == "direct":
                ExperimentConfig(**{**dataclasses.asdict(expt1), key: value})
            else:
                dataclasses.replace(expt1, **{key: value})

    def test_numeric_kinds_accepted(self):
        expt1 = parse_config(CONFIG_DIR / "expt1.cfg")
        cfg = dataclasses.replace(expt1, n=np.int64(500), q_gen=0, thresh=np.float64(0.095),
                                  lambda_diag=[100, 100, 100, 0.1, 0.1])
        assert cfg.n == 500 and cfg.q_gen == 0
        assert cfg.lambda_diag == (100.0, 100.0, 100.0, 0.1, 0.1)


class TestEffectiveThresh:
    def test_derates_into_fluctuation_band(self):
        cfg = parse_config(CONFIG_DIR / "expt1.cfg")
        assert effective_thresh(cfg) == pytest.approx(0.05)

    def test_literal_when_already_low(self):
        cfg = small_cfg(thresh=0.2)
        assert effective_thresh(cfg) == 0.2


class TestRunTrial:
    def test_two_records(self):
        recs = standalone_trial(small_cfg(), 0)
        assert [r.method for r in recs] == ["evd", "cluster_evd"]
        for r in recs:
            assert r.se is not None and r.se < 0.5
            assert r.seed == 11
            assert r.time_ms >= 0.0

    def test_deterministic(self):
        a = standalone_trial(small_cfg(), 1)
        b = standalone_trial(small_cfg(), 1)
        for x, y in zip(a, b):
            assert dataclasses.replace(x, time_ms=0.0) == dataclasses.replace(y, time_ms=0.0)

    def test_time_excludes_data_generation(self, monkeypatch):
        real = datagen.generate_dataset

        def slow(*args, **kwargs):
            time.sleep(0.15)
            return real(*args, **kwargs)

        monkeypatch.setattr(datagen, "generate_dataset", slow)
        recs = standalone_trial(small_cfg(), 0)
        assert recs[1].vartheta_hat > 1  # the cluster row drew later blocks
        assert all(0.0 <= r.time_ms < 100.0 for r in recs)

    # seconds a fake clock advances in each call; multiples of 1/1024 s, so
    # every millisecond figure and sum of them is exact in binary
    TICKS = {"draw": 1.0, "reduce": 1 / 16, "first_eig": 1 / 8, "evd": 1 / 32,
             "later_eig": 1 / 4, "metric": 1 / 2}

    @pytest.mark.parametrize("shape", [dict(), dict(n=80, alpha=60)], ids=["moment", "lift"])
    @pytest.mark.parametrize("plan", [1, 2])
    def test_time_is_exact_under_a_fake_clock(self, monkeypatch, shape, plan):
        # each row is charged its own estimator work and block reductions:
        # evd the shared first block's reduction and decomposition, then
        # simple_evd; the cluster row those two, then each later block's
        # reduction and decomposition, never the drawing or the metric
        clock = [1000.0]
        calls = dict.fromkeys(self.TICKS, 0)

        def ticking(name, real):
            def call(*args, **kwargs):
                clock[0] += self.TICKS[name]
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        for module, attr, name in [(datagen, "generate_dataset", "draw"),
                                   (bench, "reduce_block", "reduce"),
                                   (bench, "block_eig", "first_eig"),
                                   (bench, "simple_evd", "evd"),
                                   (estimators, "block_eig", "later_eig"),
                                   (bench, "subspace_error", "metric")]:
            monkeypatch.setattr(module, attr, ticking(name, getattr(module, attr)))
        monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
        evd, cluster = standalone_trial(small_cfg(**shape), 0, plan)
        later = cluster.vartheta_hat - 1
        assert later >= 1 and calls["later_eig"] == later
        assert calls["draw"] == calls["reduce"] == 1 + later
        ms = {name: tick * 1e3 for name, tick in self.TICKS.items()}
        shared = ms["first_eig"] + ms["reduce"]
        assert evd.time_ms == shared + ms["evd"]
        assert cluster.time_ms == shared + later * (ms["later_eig"] + ms["reduce"])

    def test_noiseless_exact(self):
        recs = standalone_trial(small_cfg(q_gen=0.0), 0)
        assert all(r.se <= 1e-8 for r in recs)

    def test_distinct_trials_distinct_seeds(self):
        a = standalone_trial(small_cfg(), 0)
        b = standalone_trial(small_cfg(), 1)
        assert a[0].seed != b[0].seed
        assert a[0].se != b[0].se

    def test_reference_config_single_trial(self):
        cfg = parse_config(CONFIG_DIR / "expt1.cfg")
        recs = standalone_trial(cfg, 0)
        assert [r.method for r in recs] == ["evd", "cluster_evd"]
        assert all(r.se is not None and r.se < 0.5 for r in recs)
        assert recs[1].vartheta_hat == 2

    def test_missing_channel_with_dense_basis(self):
        cfg = small_cfg(noise_kind="missing", basis_kind="random", q_gen=0.0)
        recs = standalone_trial(cfg, 0)
        assert all(r.se is not None and r.se < 0.9 for r in recs)
        # for the zeroed-entry channel, measured q is the worst row-block
        # norm of the basis: strictly inside (0, 1) for a dense basis
        assert all(0.0 < r.q_measured < 1.0 for r in recs)
        again = standalone_trial(cfg, 0)
        assert [r.se for r in again] == [r.se for r in recs]


class TestRunTrialEdgeCases:
    @pytest.mark.parametrize("noise_kind", ["sddc", "missing"])
    def test_rank_equals_dimension(self, noise_kind):
        cfg = small_cfg(n=4, r=4, alpha=60, lambda_diag=(16.0, 4.0, 1.0, 1.0),
                        noise_kind=noise_kind, s=1, rho=1, beta_tilde=15)
        for rec in standalone_trial(cfg, 0):
            assert rec.se is not None and rec.se <= 1e-8
            assert rec.rank_hat == 4

    def test_first_block_failure_fails_both_rows(self, monkeypatch):
        def fail(Y, G=None):
            raise DimensionError("cannot decompose")

        monkeypatch.setattr(bench, "block_eig", fail)
        recs = standalone_trial(small_cfg(), 0)
        assert [r.method for r in recs] == ["evd", "cluster_evd"]
        assert all(r.se is None and r.vartheta_hat == 0 and r.rank_hat == 0 for r in recs)

    @pytest.mark.parametrize("drift, fails", [(1e-7, True), (1e-10, False)])
    def test_drifted_accumulated_basis_fails_only_the_cluster_row(self, monkeypatch,
                                                                  drift, fails):
        # the last cluster's vectors, from a deflated decomposition, are
        # scaled off orthonormal; the accumulated basis is checked at
        # ACCUMULATED_BASIS_TOL = 1e-8, so a 2e-7 Gram error fails the cluster
        # row and a 2e-10 one does not, while the evd row never sees it
        cfg = small_cfg(lambda_diag=(16.0, 4.0, 4.0))
        ref_evd, ref_cluster = standalone_trial(cfg, 0)
        assert ref_cluster.vartheta_hat == 2 and ref_cluster.rank_hat == 3
        leading, drifted = BlockEig.leading, []

        def drifting(self, k):
            if self.G is None:
                return leading(self, k)
            drifted.append(k)
            return leading(self, k) * (1.0 + drift)

        monkeypatch.setattr(BlockEig, "leading", drifting)
        evd, cluster = standalone_trial(cfg, 0)
        assert drifted == [2]  # block 2's cluster closes the basis
        if fails:
            assert (cluster.se, cluster.vartheta_hat, cluster.rank_hat) == (None, 0, 0)
        else:
            assert (cluster.vartheta_hat, cluster.rank_hat) == (2, 3)
            assert math.isclose(cluster.se, ref_cluster.se, rel_tol=1e-6, abs_tol=1e-9)
        assert cluster.q_measured == ref_cluster.q_measured
        assert dataclasses.replace(evd, time_ms=0.0) == dataclasses.replace(ref_evd, time_ms=0.0)

    def test_single_column_blocks(self):
        recs = standalone_trial(small_cfg(alpha=1), 0)
        assert [r.method for r in recs] == ["evd", "cluster_evd"]
        assert all(r.se is not None and 0.0 <= r.se <= 1.0 for r in recs)


class TestRunExperiment:
    def test_single_trial_summary_equals_record(self, tmp_path):
        cfg = small_cfg(trials=1)
        records, summary = run_experiment(cfg, tmp_path)
        by_method = {m.method: m for m in summary}
        for rec in records:
            assert by_method[rec.method].mean_se == rec.se
            assert by_method[rec.method].failure_count == 0

    def test_summary_mean_consistency(self, tmp_path):
        records, summary = run_experiment(small_cfg(trials=4), tmp_path)
        for m in summary:
            vals = [r.se for r in records if r.method == m.method and r.se is not None]
            assert m.mean_se == pytest.approx(sum(vals) / len(vals), abs=1e-12)

    def test_serial_matches_per_trial_calls(self, tmp_path):
        cfg = small_cfg(trials=3)
        records, _ = run_experiment(cfg, tmp_path)
        manual = [rec for i in range(3) for rec in standalone_trial(cfg, i)]
        assert [dataclasses.replace(r, time_ms=0.0) for r in records] == \
               [dataclasses.replace(r, time_ms=0.0) for r in manual]

    def test_csv_files_written(self, tmp_path):
        run_experiment(small_cfg(trials=2), tmp_path / "out")
        text = (tmp_path / "out" / "results.csv").read_text()
        lines = text.splitlines()
        assert lines[0].split(",") == [f.name for f in dataclasses.fields(TrialRecord)]
        assert len(lines) == 1 + 2 * 2
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_failed_trial_recorded_not_raised(self, tmp_path):
        # overwhelming corruption keeps every deflated spectrum above the stop
        # threshold, so the cluster loop exhausts its block budget and the
        # failure is recorded rather than raised
        cfg = small_cfg(q_gen=5.0, g_hat=1.05, trials=2)
        records, summary = run_experiment(cfg, tmp_path)
        cluster = [r for r in records if r.method == "cluster_evd"]
        assert all(r.se is None and r.vartheta_hat == 0 for r in cluster)
        by_method = {m.method: m for m in summary}
        assert by_method["cluster_evd"].failure_count == 2
        assert by_method["cluster_evd"].mean_se is None
        csv = records_to_csv(records)
        assert any(",NA," in line for line in csv.splitlines()[1:])

    def test_unusable_out_fails_before_any_trial(self, tmp_path, monkeypatch):
        calls = []
        real = bench.run_trial
        monkeypatch.setattr(bench, "run_trial", lambda *a: calls.append(a) or real(*a))
        taken = tmp_path / "taken"
        taken.write_text("")
        with pytest.raises(ConfigError, match="cannot write results under"):
            run_experiment(small_cfg(trials=2), taken)
        assert calls == []


def untimed(records):
    return [dataclasses.replace(r, time_ms=0.0) for r in records]


def serial_one_thread(cfg):
    """The records of a serial `run_trial` loop at one BLAS thread, which
    `run_experiment` must equal outside time_ms."""
    with one_blas_thread():
        return [rec for i in range(cfg.trials) for rec in standalone_trial(cfg, i)]


def blas_counts():
    return [get() for get, *_ in linalg._openblas_threads()]


def failing_draw(monkeypatch, call):
    """Make `generate_dataset` raise a ScheduleError on call `call` (1-based)
    of each trial, counted per trial generator; returns the calls made."""
    real = datagen.generate_dataset
    rngs = []

    def draw(model, noise, alpha, rng):
        rngs.append(rng)
        if sum(r is rng for r in rngs) == call:
            raise ScheduleError(f"injected failure of block {call}")
        return real(model, noise, alpha, rng)

    monkeypatch.setattr(datagen, "generate_dataset", draw)
    return rngs


class TestDrawHandOff:
    """`run_experiment` draws each trial's first `plan` blocks one item
    ahead on a worker thread; its records equal a serial `run_trial` loop's
    at one BLAS thread, outside time_ms."""

    @pytest.mark.parametrize("overrides, plan, past_plan", [
        (dict(q_gen=5.0, g_hat=1.05), 3, False),  # runs to the r-block cap, which is the plan
        (dict(q_gen=5.0, g_hat=4.0), 2, True),    # runs to the cap, one block past the plan
        (dict(g_hat=4.0), 2, True),               # finds 3 clusters where 2 are planted
        # `hold_s` is not a config key: each draw holds its result that long,
        # so trial 1's past-plan draw on the main thread overlaps the worker's
        # draw of trial 2's block 1, on the moment shape and on the lift shape
        pytest.param(dict(g_hat=4.0, hold_s=0.02), 2, True, id="held-moment"),
        pytest.param(dict(g_hat=4.0, n=80, hold_s=0.02), 2, True, id="held-lift"),
    ])
    def test_trials_past_the_plan_draw_their_own_blocks(self, tmp_path, monkeypatch,
                                                        overrides, plan, past_plan):
        overrides = dict(overrides)
        hold_s = overrides.pop("hold_s", 0.0)
        cfg = small_cfg(trials=3, **overrides)
        assert g_partition(cfg.lambda_diag, cfg.g_hat).vartheta == plan
        if hold_s and not linalg._openblas_threads():
            pytest.skip("no OpenBLAS to pin, so run draws inline on one thread")
        serial = serial_one_thread(cfg)
        spans = []  # (thread, start, end) of each draw
        real = datagen.generate_dataset

        def draw(*args):
            start = time.perf_counter()
            out = real(*args)
            if hold_s:
                time.sleep(hold_s)
            spans.append((threading.get_ident(), start, time.perf_counter()))
            return out

        monkeypatch.setattr(datagen, "generate_dataset", draw)
        records, _ = run_experiment(cfg, tmp_path)
        assert untimed(records) == untimed(serial)
        assert (len(spans) > cfg.trials * plan) == past_plan
        if hold_s:
            main = threading.get_ident()
            own = [(s, e) for t, s, e in spans if t == main]
            worker = [(s, e) for t, s, e in spans if t != main]
            assert any(s1 < e2 and s2 < e1 for s1, e1 in own for s2, e2 in worker)

    @pytest.mark.parametrize("overrides, past_plan", [
        (dict(), False),
        (dict(q_gen=5.0, g_hat=4.0), True),  # every trial draws one block past the plan
        (dict(g_hat=4.0), True),             # some trials draw a block past the plan
    ])
    def test_noise_models_built_once_per_block_index(self, tmp_path, monkeypatch,
                                                     overrides, past_plan):
        cfg = small_cfg(trials=4, **overrides)
        plan = g_partition(cfg.lambda_diag, cfg.g_hat).vartheta
        serial = serial_one_thread(cfg)
        schedules, models, rngs = [], [], []
        real_schedule, real_noise = datagen.generate_support_schedule, bench._block_noise
        real_draw = datagen.generate_dataset

        def schedule(*args, **kwargs):
            schedules.append(kwargs["first_run"])
            return real_schedule(*args, **kwargs)

        def noise(*args):
            model = real_noise(*args)
            models.append(weakref.ref(model))
            return model

        monkeypatch.setattr(datagen, "generate_support_schedule", schedule)
        monkeypatch.setattr(bench, "_block_noise", noise)
        monkeypatch.setattr(datagen, "generate_dataset",
                            lambda *args: rngs.append(args[3]) or real_draw(*args))
        records, _ = run_experiment(cfg, tmp_path)
        assert untimed(records) == untimed(serial)
        blocks = [sum(r is rng for r in rngs) for rng in {id(r): r for r in rngs}.values()]
        assert len(blocks) == cfg.trials and (max(blocks) > plan) == past_plan
        # one schedule per block index drawn, in the order of the motion
        assert len(schedules) == len(models) == max(blocks)
        assert schedules == sorted(set(schedules))
        assert all(model() is None for model in models)  # dropped with the run

    @pytest.mark.parametrize("g_hat, plan", [(4.0, 2), (2.5, 3)])
    def test_block_2_error_fails_only_the_cluster_row(self, tmp_path, monkeypatch, g_hat, plan):
        cfg = small_cfg(g_hat=g_hat, trials=3)
        assert g_partition(cfg.lambda_diag, cfg.g_hat).vartheta == plan
        clean = untimed(serial_one_thread(cfg))
        failing_draw(monkeypatch, 2)
        records, summary = run_experiment(cfg, tmp_path)
        assert untimed(records) == untimed(serial_one_thread(cfg))
        for rec, ref in zip(untimed(records), clean):
            if rec.method == "evd":
                assert rec == ref  # the next trial's first block is drawn as before
            else:
                assert rec.se is None and rec.vartheta_hat == 0
        assert {m.method: m.failure_count for m in summary} == {"evd": 0, "cluster_evd": 3}
        rows = read_rows((tmp_path / "results.csv").read_text())
        assert [row["se"] for row in rows if row["method"] == "cluster_evd"] == ["NA"] * 3

    def test_block_past_the_plan_error_fails_the_rows_that_need_it(self, tmp_path,
                                                                   monkeypatch):
        # plan 2: a trial that finds a third cluster draws its third block itself
        cfg = small_cfg(g_hat=4.0, trials=3)
        assert g_partition(cfg.lambda_diag, cfg.g_hat).vartheta == 2
        clean = untimed(serial_one_thread(cfg))
        failing_draw(monkeypatch, 3)
        records, _ = run_experiment(cfg, tmp_path)
        assert untimed(records) == untimed(serial_one_thread(cfg))
        needed = [ref.method == "cluster_evd" and ref.vartheta_hat >= 3 for ref in clean]
        assert 0 < sum(needed) < cfg.trials
        for rec, ref, failed in zip(untimed(records), clean, needed):
            assert rec == ref if not failed else (rec.se is None and rec.vartheta_hat == 0)
        rows = read_rows((tmp_path / "results.csv").read_text())
        assert [row["se"] == "NA" for row in rows] == needed

    def test_block_1_error_leaves_run_experiment(self, tmp_path, monkeypatch):
        rngs = failing_draw(monkeypatch, 1)
        with pytest.raises(ScheduleError, match="block 1"):
            run_experiment(small_cfg(trials=3), tmp_path)
        assert len(rngs) == 1  # nothing is drawn after the failed block
        with pytest.raises(ScheduleError, match="block 1"):
            serial_one_thread(small_cfg(trials=3))

    def test_time_excludes_waiting_for_blocks(self, tmp_path, monkeypatch):
        real = datagen.generate_dataset

        def slow(*args, **kwargs):
            time.sleep(0.15)
            return real(*args, **kwargs)

        monkeypatch.setattr(datagen, "generate_dataset", slow)
        records, _ = run_experiment(small_cfg(trials=2), tmp_path)
        assert all(r.vartheta_hat > 1 for r in records if r.method == "cluster_evd")
        assert all(0.0 <= r.time_ms < 100.0 for r in records)

    def test_time_includes_reducing_blocks(self, tmp_path, monkeypatch):
        # n <= alpha: each block is reduced where it is drawn, mostly on the
        # worker, and that estimator work is charged to the rows that use it
        real = bench.reduce_block

        def slow(Y):
            time.sleep(0.05)
            return real(Y)

        monkeypatch.setattr(bench, "reduce_block", slow)
        records, _ = run_experiment(small_cfg(trials=2), tmp_path)
        assert any(r.vartheta_hat > 1 for r in records if r.method == "cluster_evd")
        for r in records:
            assert r.time_ms >= 50.0 * max(1, r.vartheta_hat)  # evd: block 1 alone

    def test_estimators_get_no_block_when_n_le_alpha(self, tmp_path, monkeypatch):
        cfg = small_cfg(trials=3)
        assert cfg.n <= cfg.alpha
        serial = serial_one_thread(cfg)
        taken = []
        real_eig, real_cluster = bench.block_eig, bench.cluster_evd

        def eig(Y, G=None):
            taken.append(Y)
            return real_eig(Y, G)

        def cluster(blocks, *args, **kwargs):
            blocks = iter(blocks)  # block 1's decomposition, then the blocks taken
            later = (taken.append(Y) or Y for Y in blocks)
            return real_cluster(itertools.chain([next(blocks)], later), *args, **kwargs)

        monkeypatch.setattr(bench, "block_eig", eig)
        monkeypatch.setattr(bench, "cluster_evd", cluster)
        records, _ = run_experiment(cfg, tmp_path)
        assert untimed(records) == untimed(serial)
        rows = sum(r.vartheta_hat for r in records if r.method == "cluster_evd")
        assert len(taken) == rows > cfg.trials  # block 1 of each trial, and the later ones
        assert all(isinstance(Y, BlockMoment) and Y.shape == (cfg.n, cfg.alpha) for Y in taken)


class TestBlockLifetime:
    """A trial holds at most one block decomposition: block 1's, shared by
    both estimators, is handed to cluster_evd, and each decomposition is
    unreferenced before the next block's `block_eig` starts, on the lift
    path (alpha < n) and the moment path (n <= alpha)."""

    # test-size trials of each shape; both find three clusters in three blocks
    SHAPES = {"lift": dict(n=120, alpha=80), "moment": dict(n=80, alpha=120)}

    # tracemalloc peak of one standalone run_trial (no worker thread, so
    # deterministic), measured on numpy 2.4.6, Python 3.11.7: 243 kB (lift)
    # and 253 kB (moment); the bound allows 10% over it.  With 64-frame sddc
    # chunks they were 379 kB and 304 kB; with block 1's decomposition also
    # alive through the later blocks', 563 kB and 410 kB, and with each later
    # one kept until the next replaced it, 433 kB and 357 kB.
    PEAK_KB = {"lift": 243, "moment": 253}

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("driver", ["run_trial", "run_experiment"])
    def test_each_decomposition_is_freed_before_the_next(self, tmp_path, monkeypatch,
                                                         shape, driver):
        cfg = small_cfg(trials=2, **self.SHAPES[shape])
        made, alive = [], []
        real = estimators.block_eig

        def tracked(Y, G=None):
            if G is not None:  # a later block
                alive.append(sum(ref() is not None for ref in made))
            eig = real(Y, G)
            made.append(weakref.ref(eig))
            return eig

        monkeypatch.setattr(bench, "block_eig", tracked)  # block 1, in run_trial
        monkeypatch.setattr(estimators, "block_eig", tracked)  # the later blocks
        if driver == "run_trial":
            records = [rec for i in range(cfg.trials) for rec in standalone_trial(cfg, i)]
        else:
            records, _ = run_experiment(cfg, tmp_path)
        later = sum(r.vartheta_hat - 1 for r in records if r.method == "cluster_evd")
        assert len(alive) == later == 2 * cfg.trials
        assert alive == [0] * later

    @pytest.mark.parametrize("shape", SHAPES)
    def test_standalone_trial_peak(self, shape):
        cfg = small_cfg(**self.SHAPES[shape])
        standalone_trial(cfg, 0)  # imports and first-call set-up happen outside the count
        tracemalloc.start()
        try:
            records = standalone_trial(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert records[1].vartheta_hat == 3
        assert peak <= 1.1 * self.PEAK_KB[shape] * 1e3, peak


class TestOneAhead:
    def test_streams_arrive_whole_under_thread_switches(self):
        """Four consumers, each with its own worker, so more threads than
        cores, switching every microsecond: each stream arrives in order,
        whether it is read to its end, closed early or ends in an error, and
        every worker is joined."""
        def failing():
            yield from range(500)
            raise ValueError("items failed")

        def consume(k):
            stream = bench._one_ahead(failing() if k == 3 else iter(range(2000)))
            got = results[k] = []
            try:
                for item in stream:
                    got.append(item)
                    if len(got) == 1000 + k and k in (1, 2):  # closed early
                        break
            except Exception as exc:  # any error is compared as an item
                got.append(str(exc))
            stream.close()

        results, before, interval = {}, threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumers = [threading.Thread(target=consume, args=(k,), daemon=True)
                         for k in range(4)]
            for thread in consumers:
                thread.start()
            deadline = time.monotonic() + 30
            for thread in consumers:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in consumers)
        assert results == {0: list(range(2000)), 1: list(range(1001)), 2: list(range(1002)),
                           3: list(range(500)) + ["items failed"]}
        assert threading.active_count() == before

    def test_one_item_in_flight(self):
        """Once the caller has taken k items, at most k + 1 have been asked
        of `items`, and closing the stream asks for no more."""
        calls = []

        def counted():
            for i in range(100):
                calls.append(i)
                yield i

        stream = bench._one_ahead(counted())
        for k, item in enumerate(stream, start=1):
            time.sleep(0.001)  # time for the worker to draw further ahead, if it would
            assert item == k - 1 and len(calls) <= k + 1
            if k == 20:
                break
        stream.close()
        assert len(calls) <= 21
        time.sleep(0.01)
        assert len(calls) <= 21


@pytest.fixture
def two_blas_threads():
    """Each loaded OpenBLAS at two threads for the test, so that a count that
    a run pins to one and fails to restore shows."""
    libs = linalg._openblas_threads()
    counts = [get() for get, *_ in libs]
    for _, set_, _ in libs:
        set_(2)
    yield
    for count, (_, set_, _) in zip(counts, libs):
        set_(count)


class TestOneBlasThread:
    """`one_blas_thread` pins each OpenBLAS to one thread and parks its
    thread pool, so that no helper thread spins on a core that another
    thread of the process needs."""

    def test_parked_pool_spends_no_cpu(self, two_blas_threads):
        if (os.cpu_count() or 1) < 2 or not any(park for *_, park in linalg._openblas_threads()):
            pytest.skip("no OpenBLAS thread pool to park")
        B = np.random.default_rng(0).standard_normal((500, 500))
        np.linalg.eigvalsh(B + B.T)  # a two-thread call leaves the pool spinning
        with one_blas_thread():
            t0 = time.process_time()
            time.sleep(0.2)
            spent = time.process_time() - t0
        assert spent < 0.02

    def test_count_and_values_restored(self, two_blas_threads):
        libs = linalg._openblas_threads()
        if not libs:
            pytest.skip("no OpenBLAS loaded")
        B = np.random.default_rng(1).standard_normal((500, 500))
        before = np.linalg.eigvalsh(B + B.T), B @ B
        with one_blas_thread() as pinned:
            assert pinned and blas_counts() == [1] * len(libs)
        assert blas_counts() == [2] * len(libs)
        after = np.linalg.eigvalsh(B + B.T), B @ B  # the pool starts again
        for x, y in zip(before, after):
            np.testing.assert_array_equal(x, y)

    def test_pins_without_a_shutdown_call(self, monkeypatch, two_blas_threads):
        libs = linalg._openblas_threads()
        if not libs:
            pytest.skip("no OpenBLAS loaded")
        monkeypatch.setattr(linalg, "_openblas_threads",
                            lambda: [(get, set_, None) for get, set_, _ in libs])
        with one_blas_thread() as pinned:
            assert pinned and blas_counts() == [1] * len(libs)
        assert blas_counts() == [2] * len(libs)


class TestRunLifecycle:
    """The worker thread and the BLAS pin last exactly as long as the run."""

    def test_threads_and_blas_restored_after_return_and_raise(self, tmp_path, monkeypatch,
                                                              two_blas_threads):
        before = threading.active_count(), blas_counts()
        assert set(before[1]) <= {2}
        during = []
        real = bench.run_trial

        def trial(*args):
            records = real(*args)
            during.append((threading.active_count(), blas_counts()))
            return records

        monkeypatch.setattr(bench, "run_trial", trial)
        run_experiment(small_cfg(trials=2), tmp_path / "ok")
        assert (threading.active_count(), blas_counts()) == before
        if before[1]:  # an OpenBLAS is loaded: it runs one thread, beside one worker
            assert during == [(before[0] + 1, [1] * len(before[1]))] * 2

        monkeypatch.setattr(bench, "run_trial", real)
        with monkeypatch.context() as patched:
            failing_draw(patched, 1)
            with pytest.raises(ScheduleError):
                run_experiment(small_cfg(trials=2), tmp_path / "failed")
        assert (threading.active_count(), blas_counts()) == before

        taken = tmp_path / "taken"
        taken.write_text("")
        with pytest.raises(ConfigError):
            run_experiment(small_cfg(trials=2), taken)
        assert (threading.active_count(), blas_counts()) == before

        def failing_trial(cfg, i, *args):
            if i == 1:  # the worker is drawing trial 2's first block
                raise RuntimeError("injected failure of trial 2")
            return real(cfg, i, *args)

        monkeypatch.setattr(bench, "run_trial", failing_trial)
        with pytest.raises(RuntimeError, match="trial 2"):
            run_experiment(small_cfg(trials=3), tmp_path / "raised")
        assert (threading.active_count(), blas_counts()) == before

    def test_no_openblas_starts_no_thread(self, tmp_path, monkeypatch):
        cfg = small_cfg(trials=3)
        serial = serial_one_thread(cfg)
        monkeypatch.setattr(linalg, "_openblas_threads", lambda: [])
        starts = []
        real_start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: starts.append(thread) or real_start(thread))
        records, _ = run_experiment(cfg, tmp_path)
        assert starts == []
        assert untimed(records) == untimed(serial)

    def test_serial_one_thread_process_writes_the_same_bytes(self, tmp_path):
        # the contract whatever the core count: a serial loop in a process
        # whose BLAS runs one thread writes what run_experiment writes
        assert_serial_process_writes_the_same_rows(CONFIG_DIR / "expt1.cfg", 10, tmp_path)

    def test_serial_process_writes_the_same_bytes_when_n_le_alpha(self, tmp_path):
        # the blocks are reduced on the worker thread in run_experiment
        assert_serial_process_writes_the_same_rows(REPO / "perfbench" / "missing_tall.cfg", 4,
                                                   tmp_path)


def assert_serial_process_writes_the_same_rows(path, trials, tmp_path):
    """`run_experiment` of the config at `path`, cut to `trials` trials,
    writes the rows of a serial `run_trial` loop in a process whose BLAS
    runs one thread, outside time_ms."""
    cfg = dataclasses.replace(parse_config(path), trials=trials)
    script = ("import dataclasses, sys\n"
              "from ddnpca.bench import parse_config, records_to_csv\n"
              "from standalone import standalone_trial\n"
              "trials = int(sys.argv[2])\n"
              "cfg = dataclasses.replace(parse_config(sys.argv[1]), trials=trials)\n"
              "sys.stdout.write(records_to_csv([rec for i in range(trials)"
              " for rec in standalone_trial(cfg, i)]))\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO / "tests")])}
    serial = subprocess.run([sys.executable, "-c", script, str(path), str(trials)], env=env,
                            capture_output=True, text=True, timeout=120, check=True).stdout
    run_experiment(cfg, tmp_path)
    in_process = (tmp_path / "results.csv").read_text()

    def drop_time(text):
        return [{k: v for k, v in row.items() if k != "time_ms"} for row in read_rows(text)]

    assert len(read_rows(serial)) == 2 * trials
    assert drop_time(in_process) == drop_time(serial)


class TestClusterPlot:
    def test_reference_spectrum(self, tmp_path):
        lam = [100.0, 100.0, 100.0, 0.1, 0.1]
        part = g_partition(lam, 3.0)
        path = tmp_path / "plot.txt"
        emit_cluster_plot(lam, part, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert [int(line.split()[2]) for line in lines] == [1, 1, 1, 2, 2]
        assert [int(line.split()[0]) for line in lines] == [1, 2, 3, 4, 5]

    def test_single_eigenvalue(self, tmp_path):
        part = g_partition([7.0], 1.0)
        path = tmp_path / "one.txt"
        emit_cluster_plot([7.0], part, path)
        assert path.read_text() == "1 7 1\n"

    def test_round_trip_reproduces_partition(self, tmp_path):
        lam = [64.0, 32.0, 8.0, 4.0, 1.0, 0.0]
        part = g_partition(lam, 2.0)
        path = tmp_path / "plot.txt"
        emit_cluster_plot(lam, part, path)
        rows = [line.split() for line in path.read_text().splitlines()]
        assert [int(idx) for idx, _, _ in rows] == list(range(1, len(lam) + 1))
        values = np.array([float(val) for _, val, _ in rows])
        ids = [int(cid) for _, _, cid in rows]
        np.testing.assert_array_equal(values, lam)
        groups = {}
        for i, cid in enumerate(ids):
            if cid:
                groups.setdefault(cid, []).append(i)
        rebuilt = tuple(tuple(groups[k]) for k in sorted(groups))
        starts = np.cumsum((0,) + part.sizes[:-1])
        assert rebuilt == tuple(tuple(range(a, a + size)) for a, size in zip(starts, part.sizes))

    def test_inconsistent_partition_rejected(self, tmp_path):
        part = g_partition([8.0, 4.0], 2.0)
        with pytest.raises(ParameterError):
            emit_cluster_plot([8.0, 4.0, 2.0], part, tmp_path / "x.txt")


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(
            "n = 40\nr = 3\nalpha = 60\nlambda_diag = 16, 4, 1\nnoise_kind = sddc\n"
            "q_gen = 0.01\ns = 3\nrho = 3\nbeta_tilde = 1\ng_hat = 2.5\nthresh = 0.4\n"
            "trials = 2\nbase_seed = 1\nbasis_kind = sparse\n"
        )
        rc = main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "results.csv").exists()
        out = capsys.readouterr().out
        assert "mean_se" in out
        assert "thresh_used=0.4 (configured 0.4)" in out

    def test_run_reports_clusters_found_and_worst_q(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(
            "n = 40\nr = 3\nalpha = 60\nlambda_diag = 16, 4, 1\nnoise_kind = sddc\n"
            "q_gen = 0.01\ns = 3\nrho = 3\nbeta_tilde = 1\ng_hat = 2.5\nthresh = 0.4\n"
            "trials = 3\nbase_seed = 1\nbasis_kind = sparse\n"
        )
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        rows = read_rows((tmp_path / "out" / "results.csv").read_text())
        found = sorted(int(row["vartheta_hat"]) for row in rows
                       if row["method"] == "cluster_evd" and row["se"] != "NA")
        counts = " ".join(f"{k}:{found.count(k)}" for k in sorted(set(found)))
        assert f"vartheta_hat over {len(found)} successful cluster_evd trials: {counts}\n" in out
        worst = max(float(row["q_measured"]) for row in rows)
        assert f"worst q_measured={worst:.6g}\n" in out

    def test_run_overrides_trials_and_seed(self, tmp_path):
        path = tmp_path / "tiny.cfg"
        path.write_text(
            "n = 40\nr = 3\nalpha = 60\nlambda_diag = 16, 4, 1\nnoise_kind = sddc\n"
            "q_gen = 0.01\ns = 3\nrho = 3\nbeta_tilde = 1\ng_hat = 2.5\nthresh = 0.4\n"
            "trials = 3\nbase_seed = 11\nbasis_kind = sparse\n"
        )
        assert main(["run", str(path), "--trials", "2", "--seed", "99",
                     "--out", str(tmp_path / "out")]) == 0
        rows = read_rows((tmp_path / "out" / "results.csv").read_text())
        assert len(rows) == 4
        assert rows[0]["seed"] == "99"

    def test_run_checks_the_config_once(self, tmp_path, monkeypatch):
        # the overrides go into the one config check, which builds block 0's
        # schedule; the run then builds each block index's schedule once
        first_runs = []
        real = datagen.generate_support_schedule

        def schedule(*args, **kwargs):
            first_runs.append(kwargs["first_run"])
            return real(*args, **kwargs)

        monkeypatch.setattr(datagen, "generate_support_schedule", schedule)
        assert main(["run", str(CONFIG_DIR / "expt1.cfg"), "--trials", "2",
                     "--out", str(tmp_path)]) == 0
        assert first_runs == [0, 0, 300]
        assert len(read_rows((tmp_path / "results.csv").read_text())) == 4

    @pytest.mark.parametrize("flag, value, message", [
        ("--trials", "0", "trials must be positive"),
        ("--seed", "-1", "base_seed must be non-negative"),
    ])
    def test_run_rejects_bad_overrides(self, tmp_path, monkeypatch, capsys, flag, value,
                                       message):
        monkeypatch.setattr(bench, "run_experiment", lambda *a: pytest.fail("ran"))
        path = CONFIG_DIR / "expt1.cfg"
        assert main(["run", str(path), flag, value, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {message}$"):
            parse_config(path, **{"trials" if flag == "--trials" else "base_seed": int(value)})

    def test_malloc_thresholds_left_alone_where_libc_has_no_mallopt(self, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        cli._fix_malloc_thresholds()  # returns, having set nothing

    def test_run_reports_derated_threshold(self, tmp_path, capsys):
        rc = main(["run", str(CONFIG_DIR / "expt1.cfg"), "--trials", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "thresh_used=0.05 (configured 0.095)" in capsys.readouterr().out

    def test_partition_subcommand(self, tmp_path, capsys):
        eigs = tmp_path / "eigs.txt"
        eigs.write_text("100 100 100 0.1 0.1\n")
        plot = tmp_path / "plot.txt"
        assert main(["partition", str(eigs), "--g", "3", "--out", str(plot)]) == 0
        assert "2 clusters" in capsys.readouterr().out
        assert plot.exists()

    @pytest.mark.parametrize("text, named", [("3 abc 1\n", "'abc'"), ("3 nan 1\n", "finite")],
                             ids=["token", "nan"])
    def test_partition_bad_value_exit_code(self, tmp_path, capsys, text, named):
        eigs = tmp_path / "eigs.txt"
        eigs.write_text(text)
        plot = tmp_path / "plot.txt"
        assert main(["partition", str(eigs), "--g", "3", "--out", str(plot)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not plot.exists()

    def test_bounds_subcommand(self, capsys):
        assert main(["bounds", str(CONFIG_DIR / "expt1.cfg")]) == 0
        out = capsys.readouterr().out
        assert "alpha0" in out and "vartheta=2" in out

    def test_bounds_q_on_missing_channel_is_trial_0s(self, tmp_path, capsys):
        # the missing channel reads no q_gen: its q is the ||I_T' P|| that
        # trial 0's first block measures, on the trial's own random basis
        path = expt1_with(tmp_path, noise_kind="missing", basis_kind="random", trials=1)
        assert main(["bounds", str(path)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        rows = read_rows((tmp_path / "out" / "results.csv").read_text())
        assert f" q={float(rows[0]['q_measured']):g} " in first
        assert " q=0.01 " not in first

    def test_verify_subcommand_small(self, capsys):
        rc = main(["verify", "--draws", "3", "--instances", "25", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "rejected by the schedule validator" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense\n")
        assert main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--draws", "-5"],
        ["--draws", "0", "--instances", "0"],
        ["--draws", "1", "--instances", "0"],
        ["--seed", "-1"],
    ], ids=["negative-draws", "no-draws", "no-instances", "negative-seed"])
    def test_verify_rejects_unusable_counts_and_seeds(self, monkeypatch, capsys, args):
        # both counts are checked before the first sweep runs
        calls = []
        real = bench.block_sum_bound_sweep
        monkeypatch.setattr(bench, "block_sum_bound_sweep",
                            lambda **kw: calls.append(kw) or real(**kw))
        assert main(["verify", *args]) == 2
        assert calls == []
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("f", [2.0, 10.0, 1000.0, 33333.3])
    def test_bounds_applies_at_its_own_zeta(self, f):
        # bounds hands each calculator its largest admissible zeta, which the
        # calculator must accept however r*zeta or r^2*zeta rounds
        expt1 = parse_config(CONFIG_DIR / "expt1.cfg")
        for r in range(1, 41):
            cfg = dataclasses.replace(expt1, r=r, lambda_diag=(f,) * (r - 1) + (1.0,))
            assert "not applicable: violated condition" not in bench.bounds_report(cfg), r


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
class TestMallocThresholds:
    """`run` fixes glibc's mmap and trim thresholds, so that its block
    buffers come back from the heap instead of being mapped and faulted in
    afresh, whatever the process freed before.  Faults are counted in a
    subprocess: once any `run` has fixed the thresholds, they hold for the
    rest of the process, this one included."""

    # MALLOC_TRIM_THRESHOLD_ alone freezes glibc's mmap threshold at 128 kB,
    # the slow mode forced; MALLOC_PERTURB_ fills freed and new chunks, so a
    # buffer read before it is written changes the output
    SLOW_ENV = {"MALLOC_TRIM_THRESHOLD_": "268435456", "MALLOC_PERTURB_": "165"}
    RUNS = (("missing_tall", REPO / "perfbench" / "missing_tall.cfg", 5),
            ("expt1", CONFIG_DIR / "expt1.cfg", 2))
    SCRIPT = ("import json, resource, sys\n"
              "from ddnpca.cli import main\n"
              "faults = []\n"
              "for out, cfg, trials in json.loads(sys.argv[1]):\n"
              "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
              "    assert main(['run', cfg, '--trials', str(trials), '--seed', '7',"
              " '--out', out]) == 0\n"
              "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
              "print(json.dumps(faults))\n")

    @pytest.fixture(scope="class")
    def slow_env(self, tmp_path_factory):
        """The output directory of each run under SLOW_ENV, and the minor
        faults of three missing_tall runs in one process, then expt1's."""
        base = tmp_path_factory.mktemp("slow_env")
        missing, expt1 = [(str(base / name), str(cfg), trials) for name, cfg, trials in self.RUNS]
        env = {**os.environ, **self.SLOW_ENV, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT,
                               json.dumps([missing] * 3 + [expt1])], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return base, json.loads(proc.stdout.splitlines()[-1])

    def test_later_runs_fault_in_no_block_pages(self, slow_env):
        # glibc's defaults under SLOW_ENV map each 3.2 MB block afresh: about
        # 14 800 faults per run.  Python's own small-object arenas are mapped
        # outside malloc and can add ~200 to a run now and then, so the
        # smaller of the second and third runs is held to the bound.
        faults = slow_env[1]
        assert min(faults[1:3]) < 100, faults

    @pytest.mark.parametrize("name, cfg, trials", RUNS, ids=[r[0] for r in RUNS])
    def test_outputs_do_not_depend_on_malloc_state(self, slow_env, tmp_path, name, cfg, trials):
        assert main(["run", str(cfg), "--trials", str(trials), "--seed", "7",
                     "--out", str(tmp_path)]) == 0
        for csv_name, timed in (("results.csv", "time_ms"), ("summary.csv", "mean_time_ms")):
            slow, here = ([{k: v for k, v in row.items() if k != timed}
                           for row in read_rows((directory / csv_name).read_text())]
                          for directory in (slow_env[0] / name, tmp_path))
            assert slow == here, csv_name


class TestPerfbenchNames:
    """Every module attribute the benchmark wraps must exist, so that a
    deletion or rename shows up here rather than as an absent trace span."""

    @staticmethod
    def wrapped_names():
        names = []
        layers = ast.parse((REPO / "perfbench" / "layers.py").read_text())
        for node in ast.walk(layers):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add"):
                names.append(tuple(arg.value for arg in node.args[:2]))
        workloads = ast.parse((REPO / "perfbench" / "workloads.py").read_text())
        for node in ast.walk(workloads):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
                    and any(getattr(t, "attr", getattr(t, "id", None)) == "recorders"
                            for t in node.targets)):
                names.extend(tuple(arg.value for arg in elt.elts[:2])
                             for elt in node.value.elts)
        return names

    def test_every_wrapped_attribute_resolves(self):
        names = self.wrapped_names()
        assert len(names) >= 20  # the parse found the tracer's table
        missing = [f"{module}.{attr}" for module, attr in names
                   if not hasattr(importlib.import_module(module), attr)]
        assert missing == []

    def test_frame_counter_reads_alpha(self):
        # perfbench's frame counter (`_count_frames` in layers.py) reads
        # alpha as the third positional argument of generate_dataset; a
        # reordered signature would zero `datagen.frames` without an error
        params = list(inspect.signature(datagen.generate_dataset).parameters)
        assert params[2] == "alpha"


class TestPerfbenchColumns:
    """Every results.csv column the benchmark reads by name is a
    TrialRecord field, so that renaming a column breaks a test rather than
    the benchmark."""

    def test_read_columns_are_record_fields(self):
        tree = ast.parse((REPO / "perfbench" / "workloads.py").read_text())
        keys = {node.slice.value for node in ast.walk(tree)
                if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "row" and isinstance(node.slice, ast.Constant)}
        assert keys  # the parse found the reads
        assert keys <= {f.name for f in dataclasses.fields(TrialRecord)}


class TestProductReachability:
    """Every public top-level function and class in `src/ddnpca` is
    referenced somewhere in `src/` outside its own definition, and every
    dataclass field, method and property is read there, so code and facts
    that only tests reach show up here."""

    # Each exception would be an open ROADMAP item, not a permanent exemption.
    ALLOWED = ()

    @staticmethod
    def unreferenced():
        defined, used = [], []
        for path in sorted((REPO / "src" / "ddnpca").glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((path.name, node.name))
                owner = (path.name, getattr(node, "name", None))
                for sub in ast.walk(node):
                    name = (sub.id if isinstance(sub, ast.Name)
                            else sub.attr if isinstance(sub, ast.Attribute) else None)
                    if name is not None:
                        used.append((owner, name))
        return [f"{module}:{name}" for module, name in defined
                if not name.startswith("_")
                and not any(n == name and owner != (module, name) for owner, n in used)]

    def test_every_public_name_is_referenced(self):
        missing = [m for m in self.unreferenced() if m.split(":")[1] not in self.ALLOWED]
        assert missing == []

    def test_exceptions_are_still_unreferenced(self):
        # an exception that the product now reaches must leave the list
        found = {m.split(":")[1] for m in self.unreferenced()}
        assert set(self.ALLOWED) <= found

    # `function.parameter` defaults that only callers outside `src/` set: the
    # console script calls main() with none; perfbench and the tests pass argv
    DEFAULTS_ALLOWED = ("main.argv",)

    @staticmethod
    def defaults_in_src():
        """Each defaulted parameter of a function in `src/ddnpca` as
        `function.parameter`, with whether some call in `src/` to a function
        of that name passes it (positionally or by keyword) and whether some
        leaves it out.  A `*` or `**` splat does both.  A function of `src/`
        read as a value, not called (`_READERS` holds `_is_number`), is
        called elsewhere with its defaults, so it leaves every one out."""
        defaults, calls, read = [], {}, set()
        for path in sorted((REPO / "src" / "ddnpca").glob("*.py")):
            tree = ast.parse(path.read_text())
            callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    positional = args.posonlyargs + args.args
                    first = len(positional) - len(args.defaults)
                    defaults += [(node.name, a.arg, i)
                                 for i, a in enumerate(positional) if i >= first]
                    defaults += [(node.name, a.arg, None)
                                 for a, d in zip(args.kwonlyargs, args.kw_defaults)
                                 if d is not None]
                elif isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)
                elif (isinstance(node, (ast.Name, ast.Attribute))
                      and isinstance(node.ctx, ast.Load) and id(node) not in callees):
                    read.add(getattr(node, "id", getattr(node, "attr", None)))
        read &= {func for func, _, _ in defaults}  # functions of src/, not other names

        def passes(call, param, index):
            return (any(k.arg == param for k in call.keywords)
                    or (index is not None and index < len(call.args)))

        def splat(call):
            return (any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg is None for k in call.keywords))

        return [(f"{func}.{param}",
                 any(splat(c) or passes(c, param, index) for c in calls.get(func, [])),
                 func in read
                 or any(splat(c) or not passes(c, param, index) for c in calls.get(func, [])))
                for func, param, index in defaults]

    @classmethod
    def defaults_never_passed(cls):
        return [name for name, passed, _ in cls.defaults_in_src() if not passed]

    @classmethod
    def defaults_never_left_out(cls):
        return [name for name, _, left_out in cls.defaults_in_src() if not left_out]

    def test_every_default_is_passed_in_src(self):
        """A default that no call in `src/` overrides is a knob only tests
        turn, or a second home for a value the CLI already holds."""
        never = [d for d in self.defaults_never_passed() if d not in self.DEFAULTS_ALLOWED]
        assert never == []

    def test_default_exceptions_are_still_never_passed(self):
        # an exception that a call in `src/` now passes must leave the list
        assert set(self.DEFAULTS_ALLOWED) <= set(self.defaults_never_passed())

    def test_every_default_is_left_out_in_src(self):
        """A default that every call in `src/` overrides serves only callers
        outside it: a value only tests rely on.  No exception is allowed."""
        assert self.defaults_never_left_out() == []

    # every field of these is a column that `bench._to_csv` writes
    CSV_ROWS = ("TrialRecord", "MethodSummary")

    @staticmethod
    def src_trees():
        """Each module of `src/ddnpca` as (stem, parsed tree)."""
        return [(path.stem, ast.parse(path.read_text()))
                for path in sorted((REPO / "src" / "ddnpca").glob("*.py"))]

    @staticmethod
    def read_attributes(trees):
        """Every name read as an attribute (`x.name`) in the trees."""
        return {sub.attr for _, tree in trees for sub in ast.walk(tree)
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}

    def test_every_dataclass_field_is_read(self):
        """Each annotated field of a `@dataclass` is read as an attribute
        (`x.name`) somewhere in `src/`.  The check works by name, so a name
        that several classes share (`f`, `n`, `r`) counts as read for all."""
        trees = self.src_trees()
        fields = [f"{node.name}.{item.target.id}" for _, tree in trees for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name not in self.CSV_ROWS
                  and any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
                          for d in node.decorator_list)
                  for item in node.body if isinstance(item, ast.AnnAssign)]
        read = self.read_attributes(trees)
        assert fields
        assert [f for f in fields if f.split(".")[1] not in read] == []

    @classmethod
    def unread_members(cls):
        """Each method and property of a class in `src/`, dunders aside, as
        `module.Class.name`, that no attribute read in `src/` names; matched
        by name, as the dataclass-field check is."""
        trees = cls.src_trees()
        read = cls.read_attributes(trees)
        return [f"{stem}.{node.name}.{item.name}" for stem, tree in trees for node in tree.body
                if isinstance(node, ast.ClassDef)
                for item in node.body if isinstance(item, ast.FunctionDef)
                and not (item.name.startswith("__") and item.name.endswith("__"))
                and item.name not in read]

    def test_every_method_and_property_is_read(self):
        """A method or property that nothing in `src/` reads serves only tests."""
        assert self.unread_members() == []


class TestNoUnusedImports:
    """Every name a `src/ddnpca` module imports is used in that module,
    unless the benchmark traces it there, so an import that a deletion
    leaves behind shows up here."""

    def test_every_import_is_used(self):
        traced = set(TestPerfbenchNames.wrapped_names())
        unused = []
        for path in sorted((REPO / "src" / "ddnpca").glob("*.py")):
            tree = ast.parse(path.read_text())
            imported = [alias.asname or alias.name.split(".")[0]
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        and getattr(node, "module", None) != "__future__"
                        for alias in node.names]
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            module = f"ddnpca.{path.stem}"
            unused += [f"{module}.{name}" for name in imported
                       if name not in used and (module, name) not in traced]
        assert unused == []
