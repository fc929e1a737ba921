import gc
import json
import os
import re
import shutil
from functools import partial
from pathlib import Path

import pytest

import qf.groups
import qf.homology
import qf.pipeline
import qf.presentations
import qf.verify
from qf.catalog import resolve_knot_spec
from qf.cli import main
from qf.diagrams import ParameterError
from qf.groups import (
    STRATEGY_VERSION,
    CosetTable,
    GroupPresentation,
    IncompleteTable,
    Overflow,
    TableMismatch,
    g_n_presentation,
    todd_coxeter,
)
from qf.intlinalg import AbelianGroup
from qf.pipeline import CosetCache, Pipeline
from qf.presentations import enumerate_cosets
from qf.quandles import ExtensionWitness
from qf.verify import EXTENSION_CASES, H2_CASES, MODEL_CASES, TREFOIL_COVER_ORDERS, run_verification

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "homology"


def test_resolve_specs():
    assert resolve_knot_spec("unknot").is_unknot
    assert resolve_knot_spec("catalog:3_1").pd.n_crossings == 3
    assert resolve_knot_spec("3_1").pd.n_crossings == 3
    assert resolve_knot_spec("rational:5,3").pd is not None
    assert resolve_knot_spec("torus:2,5").pd.n_crossings == 5
    mont = resolve_knot_spec("montesinos:1,1/2,1/3,1/3")
    assert mont.mu == 1 and mont.mu_family == "233"
    with pytest.raises(ParameterError):
        resolve_knot_spec("nonsense:1")
    with pytest.raises(ParameterError):
        resolve_knot_spec("no_such_knot")


def test_resolve_pd_file(tmp_path):
    path = tmp_path / "k.pd"
    path.write_text("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)\n")
    knot = resolve_knot_spec(str(path))
    assert knot.pd.n_crossings == 3


def _lookup(cache, pres, subgroup):
    return cache.todd_coxeter(pres, subgroup, partial(enumerate_cosets, pres, subgroup, 10 ** 5))


def test_cache_roundtrip_is_bit_identical(tmp_path):
    pres = GroupPresentation(2, [(1, 1), (2, 2), (1, 2) * 3])
    cache = CosetCache(tmp_path)
    t1 = _lookup(cache, pres, ((1,),))
    assert cache.misses == 1 and cache.hits == 0
    t2 = _lookup(cache, pres, ((1,),))
    assert cache.hits == 1
    assert t1 == t2 == todd_coxeter(pres, [(1,)], 10 ** 5)
    files = list(Path(tmp_path).glob("*.json"))
    assert len(files) == 1
    json.loads(files[0].read_text())  # stored as valid JSON


def test_cache_key_distinguishes_subgroups(tmp_path):
    pres = GroupPresentation(2, [(1, 1), (2, 2), (1, 2) * 3])
    cache = CosetCache(tmp_path)
    t_full = _lookup(cache, pres, ())
    t_sub = _lookup(cache, pres, ((1,),))
    assert t_full.size == 6 and t_sub.size == 3
    assert cache.misses == 2


def test_pipeline_results_consistent():
    pipe = Pipeline()
    res = pipe.run_homology("catalog:3_1", 3)
    assert res.qn_size == 4
    assert res.gn_order == 24
    assert res.pi1_order == 8
    assert res.longitude_order == 2
    assert res.h1.to_json() == {"free_rank": 1, "torsion": []}
    assert res.h2.to_json() == {"free_rank": 0, "torsion": [2]}
    assert res.consistency_errors() == []


def test_pipeline_enumerate_partial():
    pipe = Pipeline()
    res = pipe.run_enumerate("torus:2,5", 3)
    assert res.qn_size == 20 and res.qn_type == 3
    assert res.gn_order is None and res.h2 is None
    d = res.to_json_dict()
    assert "gn_order" not in d and "h2" not in d


def test_pipeline_memoizes():
    pipe = Pipeline()
    t1, q1 = pipe.quandle("catalog:3_1", 3)
    t2, q2 = pipe.quandle("catalog:3_1", 3)
    assert t1 is t2 and q1 is q2


def test_pipeline_memoizes_on_the_presentation(monkeypatch):
    # 3_1 and catalog:3_1 name one diagram; rational:3,1 names another with
    # the same Wirtinger presentation
    enumerations = _count_calls(monkeypatch, "todd_coxeter", qf.presentations)
    simplified = _count_calls(monkeypatch, "simplify", qf.pipeline)
    certificates = _count_calls(monkeypatch, "branched_cover_certificate", qf.pipeline)
    covers = _count_calls(monkeypatch, "branched_cover", qf.pipeline)
    pipe = Pipeline()
    specs = ("3_1", "catalog:3_1", "rational:3,1")
    assert pipe.knot("rational:3,1").pd != pipe.knot("catalog:3_1").pd
    for spec in specs:
        pipe.quandle(spec, 3)
        pipe.branched(spec, 3)
    assert pipe.quandle("3_1", 3) is pipe.quandle("catalog:3_1", 3) is pipe.quandle("rational:3,1", 3)
    assert pipe.branched("rational:3,1", 3) is pipe.branched("catalog:3_1", 3)
    # Q_3 and G_3 once each; the one simplification of G_3 and the one
    # certificate attempt that both misses share, which reads pi1 / pi1'
    # (H1 is Z/2 x Z/2) off the character map of H1
    assert len(enumerations) == 2
    assert len(simplified) == len(certificates) == len(covers) == 1


def test_unknot_results():
    pipe = Pipeline()
    res = pipe.run_homology("unknot", 4)
    assert res.qn_size == 1 and res.qn_type == 1
    assert res.h2 == AbelianGroup(0)
    assert res.consistency_errors() == []


def test_cache_write_ignores_a_stale_tmp_path(tmp_path):
    # each writer opens its own temporary file, named by its pid and a
    # counter, and passes over a name that is taken: no stale path blocks it
    pres = GroupPresentation(2, [(1, 1), (2, 2), (1, 2) * 3])
    _lookup(CosetCache(tmp_path / "probe"), pres, ())
    (entry,) = (tmp_path / "probe").glob("*.json")
    cache_dir = tmp_path / "cache"
    stale = [cache_dir / f"{entry.stem}.{os.getpid()}.{k}.tmp" for k in (0, 1)]
    for path in stale:
        path.mkdir(parents=True)
    assert _lookup(CosetCache(cache_dir), pres, ()).size == 6
    assert (cache_dir / entry.name).read_text() == entry.read_text()
    assert sorted(cache_dir.iterdir()) == sorted([cache_dir / entry.name, *stale])


def test_cache_entry_is_the_sorted_dump_of_its_key_and_table(tmp_path):
    # the key's text, which names the file, is spliced into the entry, which
    # stays byte for byte the dump of the whole entry
    pipe = Pipeline(CosetCache(tmp_path))
    tables = [pipe.quandle("catalog:3_1", 3)[0], pipe.branched("catalog:3_1", 3).table]
    pres = g_n_presentation(pipe.peripherals("catalog:3_1"), 3)
    names = []
    for table in tables:
        payload = {"ngens": pres.ngens, "relators": [list(w) for w in pres.relators],
                   "subgroup": [list(w) for w in table.subgroup], "strategy": STRATEGY_VERSION}
        names.append(qf.pipeline._entry_name(json.dumps(payload, sort_keys=True)))
        assert (tmp_path / f"{names[-1]}.json").read_text() == json.dumps(
            {"key": payload, "table": table.to_json()}, sort_keys=True)
    assert len(list(tmp_path.iterdir())) == 2
    # the name of the Q_3 entry of the trefoil, pinned: CRC-32 then Adler-32
    # of the key's text, so a change of naming scheme is a change of this test
    assert names[0] == "e99edf637f6a2842"


def test_keys_that_share_a_file_name_cost_a_miss_never_a_wrong_table(tmp_path, monkeypatch):
    # the name only picks the file; the stored key decides a hit, so two keys
    # under one name overwrite each other's entry, each lookup after the other
    # key's write a miss, and every lookup returns its own key's table. The
    # table of Z/12 over <a^2> also passes the load's checks at the key of
    # Z/12 over <a^4>: only the stored key tells them apart
    monkeypatch.setattr(qf.pipeline, "_entry_name", lambda key_text: "shared")
    pres = GroupPresentation(1, [(1,) * 12])
    cache = CosetCache(tmp_path)
    for _ in range(3):
        for subgroup in (((1, 1),), ((1,) * 4,)):
            misses = cache.misses
            table = _lookup(cache, pres, subgroup)
            assert table == todd_coxeter(pres, list(subgroup), 10 ** 5)
            assert cache.misses == misses + 1
            (entry,) = tmp_path.iterdir()
            stored = json.loads(entry.read_text())
            assert entry.name == "shared.json"
            assert stored["key"]["relators"] == [list(w) for w in pres.relators]
            assert stored["key"]["subgroup"] == [list(w) for w in subgroup]
            assert stored["table"] == json.loads(json.dumps(table.to_json()))
    assert cache.hits == 0 and cache.misses == 6


def test_cache_write_recreates_a_removed_directory(tmp_path, monkeypatch):
    # the directory is made only when a write finds it missing: by the first
    # write, and again after it was removed, and not by the writes between
    made = []
    mkdir = Path.mkdir

    def counted(self, *args, **kwargs):
        if kwargs.get("parents"):  # not Path.mkdir's own retry after making the parents
            made.append(self)
        mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counted)
    pres = GroupPresentation(2, [(1, 1), (2, 2), (1, 2) * 3])
    cache = CosetCache(tmp_path / "nested" / "cache")
    assert not cache.directory.exists()
    _lookup(cache, pres, ())
    _lookup(cache, pres, ((2,),))
    assert made.count(cache.directory) == 1
    shutil.rmtree(tmp_path / "nested")
    assert _lookup(cache, pres, ((1,),)).size == 3
    assert cache.misses == 3 and len(list(cache.directory.glob("*.json"))) == 1
    assert made.count(cache.directory) == 2


def _count_calls(monkeypatch, name, *modules):
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_verification_computes_each_quantity_once(monkeypatch, tmp_path):
    enumerations = _count_calls(monkeypatch, "todd_coxeter", qf.groups, qf.pipeline,
                                qf.presentations, qf.verify)
    witnesses = _count_calls(monkeypatch, "_projection_witness", qf.verify)
    extension_checks = _count_calls(monkeypatch, "verify_extension", qf.verify)
    batches = _count_calls(monkeypatch, "d3_columns", qf.homology._ReducedComplex)
    images = _count_calls(monkeypatch, "torsion_images", qf.homology._ReducedComplex)
    covers = _count_calls(monkeypatch, "branched_cover", qf.pipeline)
    simplified = _count_calls(monkeypatch, "simplify", qf.pipeline)
    certificates = _count_calls(monkeypatch, "branched_cover_certificate", qf.pipeline)
    presented = _count_calls(monkeypatch, "grading_kernel_presentation", qf.presentations)
    analyses = _count_calls(monkeypatch, "analyze", qf.pipeline)
    cache = CosetCache(tmp_path)
    pipe = Pipeline(cache)
    rows = run_verification(pipe)
    # one diagram per PD code, which the Schlafli rows read again
    assert len(analyses) == len({pd for pd, in analyses}) == 8
    homology_rows = [r for r in rows if r.name.startswith(("H2 ", "montesinos "))]
    assert len(homology_rows) == len(H2_CASES) + 1
    # one batch of the d3' columns whose first entry is in W per homology row,
    # and one more layer of first entries on the two rows where those columns
    # fall short of rank ker(d2') (3_1 at n=4 and 5). No deeper column is
    # built: on the rows with H2 != 0 (the Montesinos row's H2 is Z/2) the
    # others are mapped into the torsion of the first ones (Lemmas 6 and 7 of
    # qf.homology), once per row
    torsion_rows = sum(want != AbelianGroup(0) for _, _, want in H2_CASES) + 1
    assert len(batches) == len(homology_rows) + 2
    assert len(images) == torsion_rows
    # G_n's cover is read once per (presentation, n), for its orders: ten
    # pairs, as rational:3,1 and catalog:3_1 share the trefoil's n=2; the
    # extension and model rows read the same cover.
    # Every pair misses the fresh cache, so G_n is simplified and a
    # certificate looked for once per pair
    assert len(covers) == len({(per, n) for per, n, _ in covers}) == 10
    assert len(simplified) == len({pres for pres, _ in simplified}) == 10
    # one witness per (spec, n), checked once for its extension and model rows
    witnessed = set(EXTENSION_CASES) | set(MODEL_CASES)
    assert len(witnesses) == len(extension_checks) == len(witnessed) == len(MODEL_CASES)
    # every enumeration is a cache miss or a trefoil cover presentation: a
    # certificate attempt presents pi1(M_n) once and enumerates nothing, as its
    # second pass reads pi1 / pi1' off the character map of H1 and abelianizes
    # pi1' along the Reidemeister-Schreier walk
    assert len(enumerations) == cache.misses + len(TREFOIL_COVER_ORDERS)
    assert len(presented) == len(certificates)
    assert len({(pres, n) for pres, n in certificates}) == len(certificates) == 10


def test_warm_cache_homology_enumerates_nothing(monkeypatch, tmp_path, capsys):
    for _ in range(2):  # cold, then warm: the orders are read off G_n's table
        res = Pipeline(CosetCache(tmp_path)).run_homology("catalog:5_1", 3)
        assert (res.gn_order, res.pi1_order, res.longitude_order) == (360, 120, 6)
    args = ["homology", "--knot", "3_1", "--n", "3", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    enumerations = _count_calls(monkeypatch, "todd_coxeter", qf.groups, qf.pipeline,
                                qf.presentations)
    certificates = _count_calls(monkeypatch, "branched_cover_certificate", qf.pipeline)
    assert main(args) == 0
    assert enumerations == [] and certificates == []


def test_one_certificate_per_diagram_and_n(monkeypatch, tmp_path):
    certificates = _count_calls(monkeypatch, "branched_cover_certificate", qf.pipeline)
    path = tmp_path / "granny.pd"
    path.write_text("X(1,4,2,5) X(3,6,4,7) X(5,2,6,3) X(7,10,8,11) X(9,12,10,1) X(11,8,12,9)")
    pipe = Pipeline()
    for spec in (str(path), str(path), "3_1", "catalog:3_1"):
        for n in (2, 6):
            for stage in (pipe.quandle, pipe.branched):
                try:
                    stage(spec, n)
                except Overflow as exc:
                    assert exc.certificate is not None
    # the granny knot at both n and 3_1 at n=6 are certified; 3_1 at n=2 is finite
    assert [n for _, n in certificates] == [2, 6, 2, 6]
    with pytest.raises(Overflow) as info:
        pipe.branched(str(path), 2)
    assert str(info.value) == "G_2 is infinite, so its index exceeded 1000000 cosets"
    assert len(certificates) == 4


def test_extension_row_reports_the_measured_fiber(monkeypatch):
    real = qf.verify._projection_witness

    def one_point_fibers(pipe, spec, n):
        w = real(pipe, spec, n)
        identity = tuple(range(w.base.size))
        return ExtensionWitness(w.base, w.base, identity, w.group_order, identity)

    monkeypatch.setattr(qf.verify, "_projection_witness", one_point_fibers)
    rows = [r for r in run_verification(Pipeline(CosetCache(None)))
            if r.name.startswith("extension ")]
    assert len(rows) == len(EXTENSION_CASES)
    for row in rows:
        assert row.status == "FAIL" and "fiber=1 (want " in row.detail


def test_a_wrong_projection_fails_its_extension_and_model_rows(monkeypatch):
    # the projection followed by the transposition (0 1) of Q_n, which is not an
    # automorphism, except of R_3 (rational:3,1), whose automorphisms are all of S_3
    real = qf.verify._projection_witness
    swap = {0: 1, 1: 0}

    def transposed(pipe, spec, n):
        w = real(pipe, spec, n)
        projection = tuple(swap.get(v, v) for v in w.projection)
        return ExtensionWitness(w.total, w.base, projection, w.group_order, w.action)

    monkeypatch.setattr(qf.verify, "_projection_witness", transposed)
    rows = {r.name: r for r in run_verification(Pipeline(CosetCache(None)))}
    checked = [f"extension {spec} n={n}" for spec, n in EXTENSION_CASES]
    checked += [f"coset model {spec} n={n}" for spec, n in MODEL_CASES if spec != "rational:3,1"]
    assert len(checked) == len(EXTENSION_CASES) + len(MODEL_CASES) - 1
    for name in checked:
        assert rows[name].status == "FAIL", rows[name]
    assert rows["coset model rational:3,1 n=2"].status == "PASS"
    assert all(r.status == "PASS" for name, r in rows.items() if name not in checked)


def test_cached_table_over_the_trivial_subgroup_must_be_regular(tmp_path, capsys):
    # the table that a G_n entry over <m> induces over the trivial subgroup
    # must be regular: G_3 of 5_1 on the 5 cosets of <m, x2>, two meridians,
    # relabelled as over <m>, passes check, but the action it induces on
    # Z/3 x cosets is not regular, so at the key of G_3 over <m> it is a miss
    pipe = Pipeline()
    per = pipe.peripherals("catalog:5_1")
    pres, meridian = g_n_presentation(per, 3), (per.meridian + 1,)
    cosets = todd_coxeter(pres, [meridian, (2,)])
    bad = CosetTable(pres.ngens, cosets.action[::2], (meridian,))
    bad.check(pres, (meridian,))
    with pytest.raises(TableMismatch):
        bad.check_regular(3)
    CosetCache(tmp_path).todd_coxeter(pres, (meridian,), lambda: bad)
    args = ["homology", "--knot", "catalog:5_1", "--n", "3", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    assert capsys.readouterr().out == (GOLDEN / "catalog_5_1_n3.json").read_text()

    def unreachable():
        raise AssertionError("the rewritten entry must be a hit")

    cache = CosetCache(tmp_path)
    assert cache.todd_coxeter(pres, (meridian,), unreachable, 3).size == 120
    assert cache.hits == 1


def _relabel(forward, perm):
    """The forward columns with coset c renamed perm[c]."""
    return [[perm[col[c]] for c in sorted(range(len(col)), key=perm.__getitem__)]
            for col in forward]


def _malformed(table):
    """Each way a stored table can fail the load, by name."""
    forward, size = table.to_json()["forward"], table.size
    last = forward[0].index(size - 1)

    def with_entry(k, value):
        return [[value if (i, c) == (0, k) else d for c, d in enumerate(col)]
                for i, col in enumerate(forward)]

    swap = list(range(size))
    swap[1], swap[2] = 2, 1
    return {
        # -1 would index as size - 1, keeping the column a permutation
        "negative entry": {"forward": with_entry(last, -1)},
        "entry past the last coset": {"forward": with_entry(last, size)},
        "not a permutation": {"forward": with_entry(last, forward[0][last - 1])},
        "unequal lengths": {"forward": [forward[0]] + [col[:-1] for col in forward[1:]]},
        "no cosets": {"forward": [[] for _ in forward]},
        "not numbered in BFS order": {"forward": _relabel(forward, swap)},
        # two copies of the action: the second is an orbit that coset 0 misses
        "coset not reached": {"forward": [col + [d + size for d in col] for col in forward]},
        # a well-formed table, over one generator more than the presentation
        "another generator count": {"generators": table.ngens + 1,
                                    "forward": forward + [list(range(size))]},
        "parent layout": {"cosets": size, "action": [list(col) for col in table.action],
                          "rep_words": [list(w) for w in table.rep_words],
                          "subgroup": [list(w) for w in table.subgroup]},
    }


@pytest.mark.parametrize("name, error", [
    ("negative entry", "permutation"), ("entry past the last coset", "permutation"),
    ("not a permutation", "permutation"), ("unequal lengths", "permutation"),
    ("no cosets", "permutation"), ("not numbered in BFS order", "BFS order"),
    ("coset not reached", "reach every coset"), ("another generator count", None),
    ("parent layout", "forward")])
def test_malformed_cache_entries_are_misses(tmp_path, capsys, name, error):
    # planted at both keys of a homology row (Q_n and G_n), each malformed
    # table is a miss: recomputed, the golden stdout, the entry rewritten
    args = ["homology", "--knot", "catalog:3_1", "--n", "3", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    entries = {path: path.read_text() for path in tmp_path.glob("*.json")}
    assert len(entries) == 2
    pipe = Pipeline()
    tables = [pipe.quandle("catalog:3_1", 3)[0], pipe.branched("catalog:3_1", 3).table]
    for path, text in entries.items():
        entry = json.loads(text)
        subgroup = tuple(map(tuple, entry["key"]["subgroup"]))
        (table,) = (t for t in tables if t.subgroup == subgroup)
        assert entry["table"]["forward"] == table.to_json()["forward"]
        planted = {"generators": table.ngens, **_malformed(table)[name]}
        if error is None:  # from_json accepts it; the check against pres does not
            CosetTable.from_json(planted, subgroup)
        else:
            with pytest.raises((KeyError, IncompleteTable, TableMismatch), match=error):
                CosetTable.from_json(planted, subgroup)
        path.write_text(json.dumps({"key": entry["key"], "table": planted}, sort_keys=True))
    assert main(args) == 0
    assert capsys.readouterr().out == (GOLDEN / "catalog_3_1_n3.json").read_text()
    assert {path: path.read_text() for path in entries} == entries


def test_a_regular_table_of_another_group_is_a_miss(tmp_path, capsys):
    # Z/8 acting on itself, each generator by +1, relabelled as over <m>, is
    # standardized, every Wirtinger relator of 3_1 fixes it, and the action it
    # induces on Z/3 x Z/8 is regular (Z/24); m^3 moves every coset, so check
    # rejects it
    pipe = Pipeline()
    per = pipe.peripherals("catalog:3_1")
    pres, meridian = g_n_presentation(per, 3), (per.meridian + 1,)
    cyclic = CosetTable(3, todd_coxeter(GroupPresentation(3, [(1, -2), (2, -3), (1,) * 8])
                                        ).action[::2], (meridian,))
    assert cyclic.size == pipe.branched("catalog:3_1", 3).pi1_order == 8
    cyclic.check_regular(3)
    *wirtinger, power = pres.relators
    assert power == meridian * 3
    assert all(cyclic.walk(range(8), r) == list(range(8)) for r in wirtinger)
    with pytest.raises(TableMismatch, match=r"relator \(1, 1, 1\) does not act trivially"):
        cyclic.check(pres, (meridian,))
    CosetCache(tmp_path).todd_coxeter(pres, (meridian,), lambda: cyclic)
    args = ["homology", "--knot", "catalog:3_1", "--n", "3", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    assert capsys.readouterr().out == (GOLDEN / "catalog_3_1_n3.json").read_text()

    def unreachable():
        raise AssertionError("the rewritten entry must be a hit")

    cache = CosetCache(tmp_path)
    assert cache.todd_coxeter(pres, (meridian,), unreachable, 3) == pipe.branched("catalog:3_1", 3).table
    assert cache.hits == 1


def test_deeply_nested_cache_entries_are_misses(tmp_path, capsys):
    # json.loads raises RecursionError on a deeply nested entry, and
    # CosetTable.from_json OverflowError on a count json reads as infinity;
    # planted at both keys of a homology row (Q_n and G_n), each is a miss,
    # recomputed and rewritten
    nested = "[" * 200000
    with pytest.raises(RecursionError):
        json.loads(nested)
    args = ["homology", "--knot", "catalog:3_1", "--n", "3", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    entries = {path: path.read_text() for path in tmp_path.glob("*.json")}
    assert len(entries) == 2
    infinite = {path: re.sub(r'"generators": \d+', '"generators": 1e999', text)
                for path, text in entries.items()}
    for text in infinite.values():
        with pytest.raises(OverflowError):
            CosetTable.from_json(json.loads(text)["table"], ())
    for planted in ({path: nested for path in entries}, infinite):
        for path, text in planted.items():
            path.write_text(text)
        assert main(args) == 0
        assert capsys.readouterr().out == (GOLDEN / "catalog_3_1_n3.json").read_text()
        assert {path: path.read_text() for path in entries} == entries


def test_a_cache_hit_ignores_the_cap(tmp_path, capsys):
    # --max-cosets bounds only the enumeration on a miss: G_3 of 5_1 has 360
    # cosets, so the row overflows a cap of 10 uncached, and is read in full
    # from a cache that an uncapped run filled
    args = ["homology", "--knot", "catalog:5_1", "--n", "3"]
    capped = args + ["--max-cosets", "10"]
    assert main(capped + ["--no-cache"]) == 3
    assert main(args + ["--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(capped + ["--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "catalog_5_1_n3.json").read_text()


def test_a_capped_overflow_is_enumerated_once(monkeypatch, capsys):
    # an enumeration that fills the cap is recorded on its row, so the verify
    # rows that read it again raise Overflow without enumerating: Q_n over
    # <m, l> and G_n over <m>
    calls = _count_calls(monkeypatch, "enumerate_cosets", qf.pipeline)
    assert main(["verify-tables", "--no-cache", "--max-cosets", "10"]) == 3
    capsys.readouterr()
    enumerations = [(pres, tuple(subgroup)) for pres, subgroup, *_ in calls]
    assert len(set(enumerations)) == len(enumerations) == 18
    assert sum(len(subgroup) == 2 for _, subgroup in enumerations) == 10


def test_g_n_is_enumerated_over_the_meridian(monkeypatch):
    # the cover reads G_n's table over <m>, enumerated with the cap divided by n
    enumerations = _count_calls(monkeypatch, "todd_coxeter", qf.presentations)
    pipe = Pipeline(max_cosets=1000)
    assert pipe.branched("catalog:3_1", 4).gn_order == 96
    assert [args[1:3] for args in enumerations] == [([(1,)], 250)]


def test_verification_leaves_no_reference_cycles():
    # the column view that a BranchedCover caches keeps the cover's parts, not
    # the cover: a run leaves no G_n table to the cyclic collector
    gc.collect()
    gc.disable()
    try:
        rows = run_verification(Pipeline(CosetCache(None)))
        assert len(rows) == 51 and all(r.status == "PASS" for r in rows)
        assert gc.collect() == 0
    finally:
        gc.enable()
