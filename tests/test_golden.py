"""Golden-output regressions for `ddnpca run`, `ddnpca verify`,
`ddnpca bounds` and `ddnpca partition`.

`tests/data/golden_expt1.csv` is the output of

    ddnpca run configs/expt1.cfg --trials 8 --seed 42

with the `time_ms` column blanked, frozen before the estimators were
rewritten in factor form.  Integer and label columns must match exactly.
`se` and `q_measured` may differ by 1e-9 absolute: that absorbs BLAS
thread-count and last-ulp differences between equivalent factorizations,
while any real change in the estimators or the data moves them by far more.

`tests/data/golden_missing_tall.csv` is, under the same rules, the output of

    ddnpca run perfbench/missing_tall.cfg --trials 4 --seed 42

frozen before the missing-entry channel measured q once per run of
identical supports.  It covers that channel (alpha > n, a dense random
basis), which the expt1 golden, on the sparse channel, does not.

`tests/data/golden_verify.txt` is the stdout of

    ddnpca verify --seed 0 --draws 50 --instances 50

and `tests/data/golden_bounds.txt` that of `ddnpca bounds configs/expt1.cfg`,
both frozen before schedules were stored as (alpha, s) index arrays.  They
must match byte for byte: the oracle sweeps print rounded figures only.

`tests/data/golden_partition_plot.txt` and `golden_partition_stdout.txt`
are the plot file and stdout of

    ddnpca partition golden_partition_eigs.txt --g 3 --out golden_partition_plot.txt

run in `tests/data`, frozen before partitions carried their own statistics.
The spectrum has exact ratio-3 ties (900/300, 0.0369/0.0123), equal values,
a pair that only the ratio-form comparison keeps together (0.111/0.037 <= 3
while 0.111 > 3*0.037) and trailing zeros.  Both must match byte for byte.
"""

from pathlib import Path

from csv_rows import read_rows
from ddnpca.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_expt1.csv"
EXPT1_CFG = ROOT / "configs" / "expt1.cfg"
GOLDEN_MISSING = ROOT / "tests" / "data" / "golden_missing_tall.csv"
MISSING_CFG = ROOT / "perfbench" / "missing_tall.cfg"
GOLDEN_VERIFY = ROOT / "tests" / "data" / "golden_verify.txt"
GOLDEN_BOUNDS = ROOT / "tests" / "data" / "golden_bounds.txt"
PARTITION_EIGS = ROOT / "tests" / "data" / "golden_partition_eigs.txt"
GOLDEN_PARTITION_PLOT = ROOT / "tests" / "data" / "golden_partition_plot.txt"
GOLDEN_PARTITION_STDOUT = ROOT / "tests" / "data" / "golden_partition_stdout.txt"

EXACT = ("trial", "method", "vartheta_hat", "rank_hat", "seed")
CLOSE = ("se", "q_measured")
TOL = 1e-9


def _assert_run_matches(tmp_path, cfg: Path, trials: int, golden: Path):
    assert cli_main(["run", str(cfg), "--trials", str(trials), "--seed", "42",
                     "--out", str(tmp_path)]) == 0
    got = read_rows((tmp_path / "results.csv").read_text())
    want = read_rows(golden.read_text())
    assert len(got) == len(want) == 2 * trials
    # The golden's own columns, by name: each has a rule, and every rule
    # has its column.  Columns added to the output since are not compared.
    ruled = set(EXACT) | set(CLOSE)
    assert ruled <= set(want[0]) <= ruled | {"time_ms"}, list(want[0])
    for g, w in zip(got, want):
        for key in EXACT:
            assert g[key] == w[key], (key, g, w)
        for key in CLOSE:
            if w[key] == "NA":
                assert g[key] == "NA", (key, g, w)
            else:
                assert abs(float(g[key]) - float(w[key])) <= TOL, (key, g, w)


def test_expt1_matches_golden(tmp_path, capsys):
    _assert_run_matches(tmp_path, EXPT1_CFG, 8, GOLDEN)


def test_missing_tall_matches_golden(tmp_path, capsys):
    _assert_run_matches(tmp_path, MISSING_CFG, 4, GOLDEN_MISSING)


def test_verify_matches_golden(capsys):
    assert cli_main(["verify", "--seed", "0", "--draws", "50", "--instances", "50"]) == 0
    assert capsys.readouterr().out == GOLDEN_VERIFY.read_text()


def test_bounds_matches_golden(capsys):
    assert cli_main(["bounds", str(EXPT1_CFG)]) == 0
    assert capsys.readouterr().out == GOLDEN_BOUNDS.read_text()


def test_partition_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # stdout names the plot file as given
    assert cli_main(["partition", str(PARTITION_EIGS), "--g", "3",
                     "--out", "golden_partition_plot.txt"]) == 0
    assert capsys.readouterr().out == GOLDEN_PARTITION_STDOUT.read_text()
    assert (tmp_path / "golden_partition_plot.txt").read_bytes() == \
        GOLDEN_PARTITION_PLOT.read_bytes()
