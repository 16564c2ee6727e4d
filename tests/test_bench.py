import ast
import dataclasses
import importlib
import time
from pathlib import Path

import numpy as np
import pytest

from ddnpca import bench, datagen
from ddnpca.bench import (
    CSV_HEADER,
    ExperimentConfig,
    effective_thresh,
    emit_cluster_plot,
    parse_config,
    records_to_csv,
    run_experiment,
    run_trial,
    summarize,
)
from ddnpca.cli import main
from ddnpca.errors import ConfigError, DimensionError, ParameterError
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


class TestEffectiveThresh:
    def test_derates_into_fluctuation_band(self):
        cfg = parse_config(CONFIG_DIR / "expt1.cfg")
        assert effective_thresh(cfg) == pytest.approx(0.05)

    def test_literal_when_already_low(self):
        cfg = small_cfg(thresh=0.2)
        assert effective_thresh(cfg) == 0.2


class TestRunTrial:
    def test_two_records(self):
        recs = run_trial(small_cfg(), 0)
        assert [r.method for r in recs] == ["evd", "cluster_evd"]
        for r in recs:
            assert r.se is not None and r.se < 0.5
            assert r.seed == 11
            assert r.time_ms >= 0.0

    def test_deterministic(self):
        a = run_trial(small_cfg(), 1)
        b = run_trial(small_cfg(), 1)
        for x, y in zip(a, b):
            assert dataclasses.replace(x, time_ms=0.0) == dataclasses.replace(y, time_ms=0.0)

    def test_time_excludes_data_generation(self, monkeypatch):
        real = datagen.generate_dataset

        def slow(*args, **kwargs):
            time.sleep(0.15)
            return real(*args, **kwargs)

        monkeypatch.setattr(datagen, "generate_dataset", slow)
        recs = run_trial(small_cfg(), 0)
        assert recs[1].vartheta_hat > 1  # the cluster row drew later blocks
        assert all(0.0 <= r.time_ms < 100.0 for r in recs)

    def test_noiseless_exact(self):
        recs = run_trial(small_cfg(q_gen=0.0), 0)
        assert all(r.se <= 1e-8 for r in recs)

    def test_distinct_trials_distinct_seeds(self):
        a = run_trial(small_cfg(), 0)
        b = run_trial(small_cfg(), 1)
        assert a[0].seed != b[0].seed
        assert a[0].se != b[0].se

    def test_reference_config_single_trial(self):
        cfg = parse_config(CONFIG_DIR / "expt1.cfg")
        recs = run_trial(cfg, 0)
        assert [r.method for r in recs] == ["evd", "cluster_evd"]
        assert all(r.se is not None and r.se < 0.5 for r in recs)
        assert recs[1].vartheta_hat == 2

    def test_missing_channel_with_dense_basis(self):
        cfg = small_cfg(noise_kind="missing", basis_kind="random", q_gen=0.0)
        recs = run_trial(cfg, 0)
        assert all(r.se is not None and r.se < 0.9 for r in recs)
        # for the zeroed-entry channel, measured q is the worst row-block
        # norm of the basis: strictly inside (0, 1) for a dense basis
        assert all(0.0 < r.q_measured < 1.0 for r in recs)
        again = run_trial(cfg, 0)
        assert [r.se for r in again] == [r.se for r in recs]


class TestRunTrialEdgeCases:
    @pytest.mark.parametrize("noise_kind", ["sddc", "missing"])
    def test_rank_equals_dimension(self, noise_kind):
        cfg = small_cfg(n=4, r=4, alpha=60, lambda_diag=(16.0, 4.0, 1.0, 1.0),
                        noise_kind=noise_kind, s=1, rho=1, beta_tilde=15)
        for rec in run_trial(cfg, 0):
            assert rec.se is not None and rec.se <= 1e-8
            assert rec.rank_hat == 4

    def test_first_block_failure_fails_both_rows(self, monkeypatch):
        def fail(Y, G=None):
            raise DimensionError("cannot decompose")

        monkeypatch.setattr(bench, "block_eig", fail)
        recs = run_trial(small_cfg(), 0)
        assert [r.method for r in recs] == ["evd", "cluster_evd"]
        assert all(r.se is None and r.vartheta_hat == 0 and r.rank_hat == 0 for r in recs)

    def test_single_column_blocks(self):
        recs = run_trial(small_cfg(alpha=1), 0)
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
        manual = [rec for i in range(3) for rec in run_trial(cfg, i)]
        assert [dataclasses.replace(r, time_ms=0.0) for r in records] == \
               [dataclasses.replace(r, time_ms=0.0) for r in manual]

    def test_csv_files_written(self, tmp_path):
        run_experiment(small_cfg(trials=2), tmp_path / "out")
        text = (tmp_path / "out" / "results.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_override_trials_and_seed(self, tmp_path):
        records, _ = run_experiment(small_cfg(), tmp_path, trials=2, base_seed=99)
        assert len(records) == 4
        assert records[0].seed == 99

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


class TestSummarize:
    def test_empty(self):
        assert summarize([]) == []


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
        assert rebuilt == part.clusters

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
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        fields = [row.split(",") for row in rows]
        found = sorted(int(f[4]) for f in fields if f[1] == "cluster_evd" and f[2] != "NA")
        counts = " ".join(f"{k}:{found.count(k)}" for k in sorted(set(found)))
        assert f"vartheta_hat over {len(found)} successful cluster_evd trials: {counts}\n" in out
        assert f"worst q_measured={max(float(f[6]) for f in fields):.6g}\n" in out

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


class TestProductReachability:
    """Every public top-level function and class in `src/ddnpca` is
    referenced somewhere in `src/` outside its own definition, so code that
    only tests reach shows up here."""

    # Each exception is an open ROADMAP item, not a permanent exemption.
    ALLOWED = (
        "perturbation_decomposition",  # item 4: becomes a per-trial column
        "sample_coefficients",         # acceptance criterion 8 checks the coefficient law
    )

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
