import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import qf
import qf.pipeline
import qf.presentations
import qf.verify
from qf.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_OVERFLOW, main
from qf.groups import MAX_N, IncompleteTable, TableMismatch
from qf.homology import DivisibilityError, h2_order_via_extension
from qf.intlinalg import NotAComplex
from qf.pipeline import Pipeline
from qf.quandles import AxiomViolation, MalformedWitness


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_text(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == EXIT_OK
    for name in ("3_1", "4_1", "5_1", "5_2"):
        assert name in out
    assert "rational:A,B" in out


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload["catalog"]) == {"3_1", "4_1", "5_1", "5_2"}


def test_catalog_is_parsed_once_and_handed_out_as_a_fresh_dict(monkeypatch):
    import qf.catalog as catalog_mod
    first = catalog_mod.catalog_entries()
    first["3_1"] = first.pop("5_1")
    monkeypatch.setattr(catalog_mod.json, "loads", lambda text: pytest.fail("catalog.json parsed again"))
    again = catalog_mod.catalog_entries()
    assert again is not first and set(again) == {"3_1", "4_1", "5_1", "5_2"}
    assert catalog_mod.resolve_knot_spec("catalog:3_1").pd != catalog_mod.resolve_knot_spec("5_1").pd


def test_enumerate_rational(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--knot", "rational:3,1", "--n", "2",
                       "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["qn_size"] == 3
    assert payload["type"] == 2
    assert payload["connected"] is True
    assert payload["schema"] == 1
    assert "h2" not in payload


def test_enumerate_n1_trivial(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--knot", "catalog:3_1", "--n", "1",
                       "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert json.loads(out)["qn_size"] == 1


def test_homology_trefoil_n4(capsys, tmp_path):
    code, out, _ = run(capsys, "homology", "--knot", "catalog:3_1", "--n", "4",
                       "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["h2"] == {"free_rank": 0, "torsion": [4]}
    assert payload["gn_order"] == 4 * payload["pi1_order"]
    assert payload["pi1_order"] == payload["qn_size"] * payload["longitude_order"]


def test_unknot_special_case(capsys):
    code, out, _ = run(capsys, "homology", "--knot", "unknot", "--n", "3", "--no-cache")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["qn_size"] == 1
    assert payload["h2"] == {"free_rank": 0, "torsion": []}


def test_input_errors(capsys):
    code, _, err = run(capsys, "enumerate", "--knot", "catalog:9_99", "--n", "2", "--no-cache")
    assert code == EXIT_INPUT and "input error" in err
    code, _, _ = run(capsys, "enumerate", "--knot", "rational:4,1", "--n", "2", "--no-cache")
    assert code == EXIT_INPUT
    code, _, _ = run(capsys, "enumerate", "--knot", "montesinos:0,1/2,1/2,1/3", "--n", "2",
                     "--no-cache")
    assert code == EXIT_INPUT


def test_unreadable_knot_file_or_cache_dir_exits_2(capsys, tmp_path):
    # a knot path that is a directory, and a cache directory that is a regular file
    code, out, err = run(capsys, "enumerate", "--knot", str(tmp_path), "--n", "2", "--no-cache")
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("input error: ") and err.count("\n") == 1
    blocker = tmp_path / "cache"
    blocker.write_text("")
    code, out, err = run(capsys, "enumerate", "--knot", "3_1", "--n", "2",
                         "--cache-dir", str(blocker))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["catalog", "--bogus"])
    assert err.value.code == 2


def test_overflow_exit(capsys):
    code, _, err = run(capsys, "enumerate", "--knot", "catalog:5_1", "--n", "3",
                       "--max-cosets", "5", "--no-cache")
    assert code == EXIT_OVERFLOW
    assert "overflow" in err


GRANNY = "X(1,4,2,5) X(3,6,4,7) X(5,2,6,3) X(7,10,8,11) X(9,12,10,1) X(11,8,12,9)"


@pytest.mark.parametrize("cap", ["10", "1000000"])
def test_certified_overflow_names_the_cap_and_the_certificate(capsys, tmp_path, cap):
    # Q_2 of the granny knot is infinite: at any cap, exit 3 at once with the
    # certificate and nothing on stdout
    path = tmp_path / "granny.pd"
    path.write_text(GRANNY + "\n")
    code, out, err = run(capsys, "enumerate", "--knot", str(path), "--n", "2",
                         "--max-cosets", cap, "--cache-dir", str(tmp_path / "cache"))
    assert (code, out) == (EXIT_OVERFLOW, "")
    assert err == (f"overflow: Q_2 is infinite, so its index exceeded {cap} cosets\n"
                   "infinite: pi1(M_2) has a subgroup of index 9 with abelianization Z^4\n")
    assert not (tmp_path / "cache").exists()  # infinite verdicts are not cached


# qf homology --no-cache exit codes on both sides of each cap at which G_n's
# enumeration over <m> (at cap // n) starts or stops finishing
CAPPED_HOMOLOGY_EXITS = [
    ("rational:9,5", 2, {53: 3, 54: 3, 69: 3, 70: 0}),
    ("rational:27,17", 2, {359: 3, 360: 3, 510: 0, 520: 3, 880: 3, 890: 0, 1090: 0, 1100: 3}),
    ("catalog:3_1", 4, {103: 3, 104: 3, 107: 3, 108: 0}),
    ("catalog:5_1", 3, {389: 3, 390: 3, 391: 3}),
    ("montesinos:1,1/2,1/3,1/3", 2, {103: 3, 104: 3, 123: 3, 124: 0}),
]


@pytest.mark.parametrize("spec, n, exits", CAPPED_HOMOLOGY_EXITS)
def test_capped_homology_exit_codes_are_pinned(capsys, spec, n, exits):
    got = {cap: run(capsys, "homology", "--knot", spec, "--n", str(n), "--no-cache",
                    "--max-cosets", str(cap))[0] for cap in exits}
    assert got == exits


def test_torus_diagram_g2_finishes_under_a_small_cap(capsys):
    # raw HLT fills 10^5 cosets on G_2 of T(2, 13) (order 26) before collapsing
    code, out, _ = run(capsys, "homology", "--knot", "rational:13,1", "--n", "2",
                       "--max-cosets", "100000", "--no-cache")
    assert code == EXIT_OK
    result = json.loads(out)
    assert (result["qn_size"], result["pi1_order"]) == (13, 13)
    assert result["h2"] == {"free_rank": 0, "torsion": []}


def test_csv_output(capsys, tmp_path):
    code, out, _ = run(capsys, "homology", "--knot", "catalog:3_1", "--n", "3",
                       "--format", "csv", "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    header, row, _ = out.split("\n")
    assert header.startswith("schema,knot,n,qn_size")
    assert "Z/2" in row.split(",")


def test_byte_identical_reruns(capsys, tmp_path):
    args = ("homology", "--knot", "catalog:3_1", "--n", "3", "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    # and identical with the cache disabled
    _, out3, _ = run(capsys, "homology", "--knot", "catalog:3_1", "--n", "3", "--no-cache")
    assert out3 == out1


def test_cache_hits_reported(capsys, tmp_path):
    args = ("enumerate", "--knot", "catalog:3_1", "--n", "3", "--cache-dir", str(tmp_path))
    _, _, err1 = run(capsys, *args)
    assert "cache_hits=0" in err1
    _, _, err2 = run(capsys, *args)
    assert "cache_hits=1" in err2


def test_env_cache_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QF_CACHE_DIR", str(tmp_path / "envcache"))
    run(capsys, "enumerate", "--knot", "catalog:3_1", "--n", "2")
    assert (tmp_path / "envcache").exists()
    # an explicit flag wins over the environment
    run(capsys, "enumerate", "--knot", "catalog:3_1", "--n", "2",
        "--cache-dir", str(tmp_path / "flagcache"))
    assert (tmp_path / "flagcache").exists()


def test_verify_tables_fast_settings(capsys, tmp_path):
    code, out, _ = run(capsys, "verify-tables", "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert "0 failed" in out


def test_verify_tables_overflow_exit(capsys):
    code, out, _ = run(capsys, "verify-tables", "--max-cosets", "10", "--no-cache")
    assert code == EXIT_OVERFLOW
    assert "OVERFLOW" in out and "FAIL" not in out


def test_verify_tables_fault_injection(capsys, monkeypatch):
    # corrupting the trefoil entry must name the failing row and exit 4
    import qf.catalog as catalog_mod
    good = catalog_mod.catalog_entries()
    corrupted = dict(good, **{"3_1": good["5_1"]})
    monkeypatch.setattr(catalog_mod, "catalog_entries", lambda: corrupted)
    code, out, _ = run(capsys, "verify-tables", "--max-cosets", "5000", "--no-cache")
    assert code == EXIT_MISMATCH
    assert "FAIL" in out
    assert any("cardinality catalog:3_1 n=3" in line and "FAIL" in line
               for line in out.splitlines())


def test_cache_entry_of_another_key_is_recomputed(capsys, tmp_path):
    trefoil, cinquefoil = tmp_path / "trefoil", tmp_path / "cinquefoil"
    run(capsys, "enumerate", "--knot", "3_1", "--n", "3", "--cache-dir", str(trefoil))
    args = ("enumerate", "--knot", "5_1", "--n", "3", "--cache-dir", str(cinquefoil))
    run(capsys, *args)
    (foreign,) = trefoil.glob("*.json")
    (entry,) = cinquefoil.glob("*.json")
    good = entry.read_text()
    entry.write_text(foreign.read_text())
    code, out, _ = run(capsys, *args)
    assert code == EXIT_OK
    assert json.loads(out)["qn_size"] == 20
    assert entry.read_text() == good


def test_truncated_cache_entry_is_recomputed(capsys, tmp_path):
    # a cut-off entry, and one with a column for an undeclared generator, are
    # misses: recomputed and rewritten
    args = ("enumerate", "--knot", "3_1", "--n", "3", "--cache-dir", str(tmp_path))
    _, want, _ = run(capsys, *args)
    (entry,) = tmp_path.glob("*.json")
    good = entry.read_text()
    extra_column = json.loads(good)
    forward = extra_column["table"]["forward"]
    forward.append(list(range(len(forward[0]))))
    for corrupt in (good[: len(good) // 2], json.dumps(extra_column, sort_keys=True)):
        entry.write_text(corrupt)
        code, out, _ = run(capsys, *args)
        assert code == EXIT_OK
        assert out == want
        assert entry.read_text() == good


TREFOIL_N3_ENUMERATE = """{
  "connected": true,
  "knot": "catalog:3_1",
  "n": 3,
  "qn_size": 4,
  "schema": 1,
  "type": 3
}
"""


# a load proves that the stabilizer of coset 0 contains the named subgroup,
# not that it is the named subgroup
PLANTED_QUOTIENT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 6, cache entries that prove their key: a planted quotient is a hit")


def _entries_by_subgroup_size(cache_dir):
    """The cache entries of one (knot, n): Q_n's has 2 subgroup words, G_n's 1."""
    return {len(json.loads(p.read_text())["key"]["subgroup"]): p for p in cache_dir.glob("*.json")}


@PLANTED_QUOTIENT
def test_cache_entry_of_a_quotient_of_q_n_is_a_miss(capsys, tmp_path):
    # the one-coset table is a coset action of G_3 in which m and l fix coset 0
    run(capsys, "homology", "--knot", "catalog:3_1", "--n", "3", "--cache-dir", str(tmp_path))
    entry = _entries_by_subgroup_size(tmp_path)[2]
    planted = json.loads(entry.read_text())
    planted["table"] = {"generators": 3, "forward": [[0], [0], [0]]}
    entry.write_text(json.dumps(planted, sort_keys=True))
    code, out, _ = run(capsys, "enumerate", "--knot", "catalog:3_1", "--n", "3",
                       "--cache-dir", str(tmp_path))
    assert (code, out) == (EXIT_OK, TREFOIL_N3_ENUMERATE)


@PLANTED_QUOTIENT
def test_cache_entry_of_a_quotient_of_g_n_is_a_miss(capsys, tmp_path):
    # Q_3's table, planted at the key of G_3 over <m>, is the cosets of <m> in
    # G_3 / <l>; l is central in G_3, so the action it induces on Z/3 x cosets
    # is regular
    args = ("homology", "--knot", "catalog:3_1", "--n", "3", "--cache-dir", str(tmp_path))
    _, want, _ = run(capsys, *args)
    entries = _entries_by_subgroup_size(tmp_path)
    planted = json.loads(entries[1].read_text())
    planted["table"] = json.loads(entries[2].read_text())["table"]
    entries[1].write_text(json.dumps(planted, sort_keys=True))
    assert run(capsys, *args)[:2] == (EXIT_OK, want)


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_max_cosets_below_one_exits_2_on_every_path(capsys, tmp_path, cap):
    cache = str(tmp_path)
    run(capsys, "enumerate", "--knot", "3_1", "--n", "3", "--cache-dir", cache)
    for n in ("3", "4", "6"):  # a cache hit, a miss, and Q_6, proved infinite before enumerating
        with pytest.raises(SystemExit) as err:
            main(["enumerate", "--knot", "3_1", "--n", n, "--max-cosets", cap, "--cache-dir", cache])
        assert err.value.code == 2
        assert "at least 1" in capsys.readouterr().err


def test_n_above_the_limit_exits_2_before_allocating(capsys):
    for command in ("enumerate", "homology"):
        for n in (MAX_N + 1, 99999999999):
            tracemalloc.start()
            try:
                code, out, err = run(capsys, command, "--knot", "3_1", "--n", str(n), "--no-cache")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == EXIT_INPUT and out == ""
            assert err.splitlines() == [f"input error: n must be at most {MAX_N}, not {n}"]
            assert peak < 1 << 20  # the relator m^n alone would take 8 bytes per letter


def test_unknot_checks_n_like_every_other_knot(capsys):
    for command in ("enumerate", "homology"):
        for n, message in ((0, "n must be at least 1"), (-5, "n must be at least 1"),
                           (MAX_N + 1, f"n must be at most {MAX_N}, not {MAX_N + 1}")):
            code, out, err = run(capsys, command, "--knot", "unknot", "--n", str(n), "--no-cache")
            assert code == EXIT_INPUT and out == ""
            assert err.splitlines() == [f"input error: {message}"]


def test_large_n_below_the_limit_still_enumerates(capsys):
    code, _, err = run(capsys, "enumerate", "--knot", "3_1", "--n", "100000",
                       "--max-cosets", "1000", "--no-cache")
    assert code == EXIT_OVERFLOW and err.startswith("overflow:")


@pytest.mark.parametrize("error", [
    DivisibilityError("4 does not divide 6"),
    TableMismatch("relator"),
    IncompleteTable("undefined entry"),
    AxiomViolation("idempotence", (0,)),
    NotAComplex("d_low * d_high != 0"),
])
def test_internal_invariant_error_exits_5(capsys, monkeypatch, error):
    def broken(self, spec, n):
        raise error

    monkeypatch.setattr(Pipeline, "quandle", broken)
    code, out, err = run(capsys, "enumerate", "--knot", "3_1", "--n", "3", "--no-cache")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == f"internal error: {type(error).__name__}: {error}\n"


def _cover_table_not_regular(monkeypatch, checked=qf.presentations._checked):
    # G_n's table over <m> with the last two entries of generator 1's column
    # transposed: still a permutation, but no action of G_n, so the check
    # after its enumeration raises
    def broken(pres, forward, subgroup_words):
        if len(subgroup_words) == 1:
            col = forward[0] = list(forward[0])
            col[-2], col[-1] = col[-1], col[-2]
        return checked(pres, forward, subgroup_words)

    monkeypatch.setattr(qf.presentations, "_checked", broken)


def _witness_without_projection(monkeypatch, build=qf.verify._projection_witness):
    monkeypatch.setattr(qf.verify, "_projection_witness",
                        lambda *args: dataclasses.replace(build(*args), projection=()))


def _pi1_order_off_by_one(monkeypatch):
    monkeypatch.setattr(qf.verify, "h2_order_via_extension",
                        lambda pi1, qn: h2_order_via_extension(pi1 + 1, qn))


@pytest.mark.parametrize("error, force", [
    (TableMismatch, _cover_table_not_regular),
    (MalformedWitness, _witness_without_projection),
    (DivisibilityError, _pi1_order_off_by_one),
])
def test_verify_tables_reports_witness_errors_as_internal(capsys, monkeypatch, error, force):
    # G_n's check, verify_extension and the model row's |pi1|/|Q_n| raise
    # these on their real call paths; each ends in one stderr line, not a traceback
    force(monkeypatch)
    code, out, err = run(capsys, "verify-tables", "--no-cache")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith(f"internal error: {error.__name__}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_one_parser_serves_every_call_in_a_process(capsys):
    # main builds its parser once per process; an argparse error in between
    # must leave nothing behind that the next call sees
    calls = [["homology", "--knot", "3_1", "--n", "3", "--no-cache"],
             ["homology", "--knot", "3_1", "--n", "x", "--no-cache"],
             ["homology", "--knot", "3_1", "--n", "3", "--no-cache"]]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, capsys.readouterr().out))
    env = dict(os.environ, PYTHONPATH=str(Path(qf.__file__).resolve().parents[1]))
    separate = []
    for argv in calls:
        done = subprocess.run([sys.executable, "-m", "qf.cli", *argv], env=env,
                              capture_output=True, text=True)
        separate.append((done.returncode, done.stdout))
    assert in_process == separate
    assert [code for code, _ in in_process] == [EXIT_OK, EXIT_INPUT, EXIT_OK]
