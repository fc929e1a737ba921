"""Stdout of the paper's rows is byte-identical to the reference outputs.

The references are the benchmark's golden files, which this test only reads,
and (``tests/golden``) ``verify-tables --max-cosets 10`` as written before
certificates of infiniteness existed: no row of the table is infinite, so none
may change; ``--max-cosets 50`` and ``500`` as written before G_n was
enumerated over the meridian's subgroup, which pin which rows overflow there. ``tests/golden/certificates.txt`` pins the ``infinite:`` stderr
line of seven infinite rows, one certified by H1(M_n) (3_1 at n=6) and six by
the derived subgroup, among them the granny knot and the other three
connected sums of the benchmark's tc_overflow workload: one line per row, the
knot (a catalog spec or a PD file named from the repository root), n and the
line.
"""

from pathlib import Path

import pytest

from qf.cli import EXIT_OK, EXIT_OVERFLOW, main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
CAPPED = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("argv, golden", [
    ((), "verify_tables.txt"),
    (("--format", "csv"), "verify_tables.csv"),
])
def test_verify_tables_stdout(capsys, argv, golden):
    assert main(["verify-tables", "--no-cache", *argv]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("argv, golden", [
    ((), "verify_tables.txt"),
    (("--format", "csv"), "verify_tables.csv"),
])
def test_verify_tables_stdout_cold_then_warm(capsys, tmp_path, argv, golden):
    # the warm run loads every table, and builds pi1(M_n) on the loaded G_n tables
    for _ in range(2):
        assert main(["verify-tables", "--cache-dir", str(tmp_path), *argv]) == EXIT_OK
        assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("argv, golden", [
    ((), "verify_tables_max_cosets_10.txt"),
    (("--format", "csv"), "verify_tables_max_cosets_10.csv"),
])
def test_capped_verify_tables_stdout(capsys, argv, golden):
    assert main(["verify-tables", "--no-cache", "--max-cosets", "10", *argv]) == EXIT_OVERFLOW
    assert capsys.readouterr().out == (CAPPED / golden).read_text()


@pytest.mark.parametrize("cap", [50, 500])
@pytest.mark.parametrize("argv, suffix", [((), "txt"), (("--format", "csv"), "csv")])
def test_verify_tables_stdout_at_higher_caps(capsys, cap, argv, suffix):
    # pinned before G_n was enumerated over <m>: at cap 50 Q_n and G_n of the
    # larger rows overflow, at cap 500 only the rows of 3_1 at n=5 (|G_5| = 600)
    assert main(["verify-tables", "--no-cache", "--max-cosets", str(cap), *argv]) == EXIT_OVERFLOW
    assert capsys.readouterr().out == (CAPPED / f"verify_tables_max_cosets_{cap}.{suffix}").read_text()


@pytest.mark.parametrize("spec, n, golden", [
    ("catalog:5_1", 3, "catalog_5_1_n3.json"),
    ("catalog:3_1", 5, "catalog_3_1_n5.json"),
    ("montesinos:1,1/2,1/3,1/3", 2, "montesinos_1_1_2_1_3_1_3_n2.json"),
    ("catalog:3_1", 2, "catalog_3_1_n2.json"),
    ("catalog:3_1", 3, "catalog_3_1_n3.json"),
    ("catalog:3_1", 4, "catalog_3_1_n4.json"),
    ("rational:9,2", 2, "rational_9_2_n2.json"),
    ("rational:13,5", 2, "rational_13_5_n2.json"),
    ("rational:21,8", 2, "rational_21_8_n2.json"),
    ("rational:29,12", 2, "rational_29_12_n2.json"),
])
def test_homology_stdout(capsys, tmp_path, spec, n, golden):
    assert main(["homology", "--knot", spec, "--n", str(n), "--no-cache"]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "homology" / golden).read_text()
    # cold then warm on one cache: the warm pass loads both tables of the row
    # (G_n and Q_n), which from_json and check prove without assert
    for hits in (0, 2):
        assert main(["homology", "--knot", spec, "--n", str(n), "--cache-dir", str(tmp_path)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out == (GOLDEN / "homology" / golden).read_text()
        assert err.endswith(f"cache_hits={hits}\n")


def _certificate_rows():
    for line in (CAPPED / "certificates.txt").read_text().splitlines():
        knot, n, infinite = line.split(" ", 2)
        yield knot, int(n), infinite


@pytest.mark.parametrize("knot, n, infinite", list(_certificate_rows()))
def test_certificate_lines(capsys, knot, n, infinite):
    # the knot is a catalog spec or a PD file named from the repository root
    path = CAPPED.parents[1] / knot
    spec = str(path) if path.is_file() else knot
    assert main(["enumerate", "--knot", spec, "--n", str(n), "--no-cache"]) == EXIT_OVERFLOW
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("infinite:")] == [infinite]
