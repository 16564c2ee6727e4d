"""Golden-output regressions for `ddnpca run`, `ddnpca verify` and
`ddnpca bounds`.

`tests/data/golden_expt1.csv` is the output of

    ddnpca run configs/expt1.cfg --trials 8 --seed 42

with the `time_ms` column blanked, frozen before the estimators were
rewritten in factor form.  Integer and label columns must match exactly.
`se` and `q_measured` may differ by 1e-9 absolute: that absorbs BLAS
thread-count and last-ulp differences between equivalent factorizations,
while any real change in the estimators or the data moves them by far more.

`tests/data/golden_verify.txt` is the stdout of

    ddnpca verify --seed 0 --draws 50 --instances 50

and `tests/data/golden_bounds.txt` that of `ddnpca bounds configs/expt1.cfg`,
both frozen before schedules were stored as (alpha, s) index arrays.  They
must match byte for byte: the oracle sweeps print rounded figures only.
"""

from pathlib import Path

from ddnpca.bench import CSV_HEADER
from ddnpca.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_expt1.csv"
EXPT1_CFG = ROOT / "configs" / "expt1.cfg"
GOLDEN_VERIFY = ROOT / "tests" / "data" / "golden_verify.txt"
GOLDEN_BOUNDS = ROOT / "tests" / "data" / "golden_bounds.txt"

EXACT = ("trial", "method", "vartheta_hat", "rank_hat", "seed")
CLOSE = ("se", "q_measured")
TOL = 1e-9


def _rows(text: str) -> list[dict]:
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    keys = CSV_HEADER.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


def test_expt1_matches_golden(tmp_path, capsys):
    assert cli_main(["run", str(EXPT1_CFG), "--trials", "8", "--seed", "42",
                     "--out", str(tmp_path)]) == 0
    got = _rows((tmp_path / "results.csv").read_text())
    want = _rows(GOLDEN.read_text())
    assert len(got) == len(want) == 16
    for g, w in zip(got, want):
        for key in EXACT:
            assert g[key] == w[key], (key, g, w)
        for key in CLOSE:
            if w[key] == "NA":
                assert g[key] == "NA", (key, g, w)
            else:
                assert abs(float(g[key]) - float(w[key])) <= TOL, (key, g, w)


def test_verify_matches_golden(capsys):
    assert cli_main(["verify", "--seed", "0", "--draws", "50", "--instances", "50"]) == 0
    assert capsys.readouterr().out == GOLDEN_VERIFY.read_text()


def test_bounds_matches_golden(capsys):
    assert cli_main(["bounds", str(EXPT1_CFG)]) == 0
    assert capsys.readouterr().out == GOLDEN_BOUNDS.read_text()
