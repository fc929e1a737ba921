import random
from types import SimpleNamespace

import pytest

from qf.diagrams import analyze, connected_sum, parse_pd, wirtinger_with_peripherals
from qf.intlinalg import AbelianGroup
from qf.pipeline import CosetCache, Pipeline
from qf.presentations import enumerate_cosets
from qf.quandles import quandle_type, is_connected
from qf.groups import (
    CosetTable,
    GroupPresentation,
    IncompleteTable,
    Overflow,
    TableMismatch,
    _Enumerator,
    abelianization,
    cyclic_reduce,
    free_reduce,
    g_n_presentation,
    invert_word,
    quandle_from_cosets,
    todd_coxeter,
    trefoil_branched_presentation,
)

from test_branched import element_order


def test_word_reduction():
    assert free_reduce((1, -1, 2)) == (2,)
    assert free_reduce((1, 2, -2, -1)) == ()
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert invert_word((1, -2, 3)) == (-3, 2, -1)
    for word in ((0,), (1, 0), (1, -1, 0), (2, 0, -2)):
        with pytest.raises(ValueError, match="0 is not a valid signed generator"):
            free_reduce(word)


@pytest.mark.parametrize("make", [tuple, list, iter], ids=["tuple", "list", "generator"])
def test_word_helpers_take_any_iterable(make):
    cases = [((), ()), ((1,), (1,)), ((1, -1), ()), ((1, 2, -1), (2,)), ((-1, 1, 2), (2,)),
             ((2, 1, 3, -1, -2), (3,)), ((3, -2, 1, 2, -3), (1,)), ((1, 2, 3, -1), (2, 3)),
             ((1, 2, -2, -1), ()), ((1, 2, 1, -1, -2, -1), ()), ((1, 1, -1), (1,))]
    for word, reduced in cases:
        assert cyclic_reduce(make(word)) == reduced
        assert invert_word(make(word)) == tuple(-letter for letter in reversed(word))
        assert type(cyclic_reduce(make(word))) is tuple is type(invert_word(make(word)))


def test_presentation_drops_empty_relators():
    g = GroupPresentation(2, [(1, -1), (1, 2, -1)])
    assert g.relators == ((2,),)
    for relator in ((3,), (-3,), (1, 3), (-3, 2), (1, -2, -3, 2)):
        with pytest.raises(ValueError, match="undeclared generator"):
            GroupPresentation(2, [relator])
    assert GroupPresentation(2, [(3, -3)]).relators == ()  # reduces to nothing
    assert GroupPresentation(0, [()]).relators == ()


def test_trivial_enumeration():
    g = GroupPresentation(1, [(1,)])
    t = todd_coxeter(g, [])
    assert t.size == 1


def test_symmetric_group_s3():
    # <a, b | a^2, b^2, (ab)^3> has order 6
    g = GroupPresentation(2, [(1, 1), (2, 2), (1, 2) * 3])
    t = todd_coxeter(g, [])
    assert t.size == 6
    # index of <a> is 3
    assert todd_coxeter(g, [(1,)]).size == 3


def test_quaternion_group():
    # <a, b | a^4, a^2 b^-2, b^-1 a b a>
    g = GroupPresentation(2, [(1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)])
    assert todd_coxeter(g, []).size == 8


def test_coxeter_f4():
    rels = [(1, 1), (2, 2), (3, 3), (4, 4),
            (1, 3) * 2, (1, 4) * 2, (2, 4) * 2,
            (1, 2) * 3, (2, 3) * 4, (3, 4) * 3]
    g = GroupPresentation(4, rels)
    assert todd_coxeter(g, []).size == 1152


def test_overflow():
    # Z x Z = <a, b | [a, b]> is infinite
    g = GroupPresentation(2, [(1, 2, -1, -2)])
    with pytest.raises(Overflow):
        todd_coxeter(g, [], max_cosets=500)


def test_table_is_deterministic_and_serializable():
    g = GroupPresentation(2, [(1, 1), (2, 2), (1, 2) * 3])
    t1 = todd_coxeter(g, [(1,)])
    t2 = todd_coxeter(g, [(1,)])
    assert t1 == t2
    loaded = CosetTable.from_json(t1.to_json(), [(1,)])
    assert loaded == t1 and loaded.rep_words == t1.rep_words and loaded.tree == t1.tree
    assert t1.rep_words[0] == ()
    assert set(t1.to_json()) == {"generators", "forward"}


def test_walk_and_reps():
    g = GroupPresentation(2, [(1, 1), (2, 2), (1, 2) * 3])
    t = todd_coxeter(g, [(1,)])
    for c in range(t.size):
        assert t.coset_of_word(t.rep_words[c]) == c
    cosets = list(range(t.size))
    for rel in g.relators:
        assert t.walk(cosets, rel) == cosets
    word = (1, -2, 2, 2, -1)
    assert t.walk(cosets, word) == t.walk(t.walk(cosets, word[:2]), word[2:])
    assert t.walk([2, 0, 2], ()) == [2, 0, 2]


def test_table_check_rejects_representative_words_off_the_tree():
    # the constructor derives every representative word as its parent's plus
    # one letter, so each lies on the tree and spells its coset
    g = GroupPresentation(2, [(1, 1), (2, 2), (1, 2) * 3])
    t = todd_coxeter(g, [(1,)])
    assert len(t.tree) == t.size - 1 and t.rep_words[0] == ()
    for d, (p, x) in enumerate(t.tree, 1):
        assert p < d and t.rep_words[d] == t.rep_words[p] + (x,)
        assert t.coset_of_word(t.rep_words[d]) == d
    # a stored table holds no words, so a word off the tree that rides along
    # in a cache entry is never read: the loaded table derives its own
    data = t.to_json()
    assert set(data) == {"generators", "forward"}
    c = next(c for c, w in enumerate(t.rep_words) if len(w) == 1)
    off = [list(w) for w in t.rep_words]
    off[c] = off[c] * 3  # same coset (generators are involutions)
    loaded = CosetTable.from_json({**data, "rep_words": off}, [(1,)])
    assert loaded == t and loaded.rep_words == t.rep_words and loaded.tree == t.tree
    loaded.check(g, [(1,)])


def test_table_constructor_rejects_each_malformed_part():
    # S3 on the cosets of <a>: columns a and b, standardized
    forward = [[0, 2, 1], [1, 2, 0]]
    table = CosetTable(2, forward, [(1,)])
    assert table.rep_words == ((), (2,), (-2,)) and table.tree == [(0, 2), (0, -2)]
    for c, bad in ((0, -1), (1, 3), (1, 1)):  # an entry below 0, one equal to size, a repeat
        broken = [list(col) for col in forward]
        broken[c][2] = bad
        with pytest.raises(IncompleteTable, match="permutation"):
            CosetTable(2, broken, [(1,)])
    with pytest.raises(IncompleteTable, match="permutation"):  # a short column
        CosetTable(2, [forward[0], forward[1][:2]], [(1,)])
    for columns in (forward[:1], forward + [[0, 1, 2]]):  # a wrong column count
        with pytest.raises(ValueError, match="one forward column per generator"):
            CosetTable(2, columns, [(1,)])
    with pytest.raises(TableMismatch, match="reach every coset"):  # coset 2 fixed by a and b
        CosetTable(2, [[1, 0, 2], [1, 0, 2]], ())


def test_a_stored_table_must_be_in_bfs_order():
    # Z/5 with cosets (1,) and (1, 1) swapped: still a tree from coset 0, but
    # coset 3 is reached before coset 2, so it is not in BFS order. The
    # constructor renumbers it; a stored table is never renumbered
    table = todd_coxeter(GroupPresentation(1, [(1,) * 5]))
    (col,) = table.to_json()["forward"]
    assert col == [1, 3, 0, 4, 2] and CosetTable.from_json(table.to_json(), ()) == table
    swap = [0, 3, 2, 1, 4]
    swapped = [[swap[col[swap[d]]] for d in range(5)]]
    assert CosetTable(1, swapped, ()) == table
    with pytest.raises(TableMismatch, match="BFS order"):
        CosetTable.from_json({"generators": 1, "forward": swapped}, ())


def test_table_check_rejects_a_foreign_presentation_or_subgroup():
    g = GroupPresentation(2, [(1, 1), (2, 2), (1, 2) * 3])
    t = todd_coxeter(g, [(1,)])
    t.check(g, [(1,)])
    with pytest.raises(TableMismatch):
        t.check(GroupPresentation(2, [(1,), (2, 2)]), [(1,)])
    with pytest.raises(TableMismatch):
        t.check(g, [(2,)])


@pytest.mark.parametrize("g", [GroupPresentation(1, []), GroupPresentation(2, [(1, 1)])])
def test_relator_free_generator_overflows(g):
    # once HLT closes every relator, a generator no relator mentions still has
    # a gap: its orbit never closes, so the index is infinite
    with pytest.raises(Overflow):
        todd_coxeter(g, [], max_cosets=50)


def test_subgroup_words_can_fill_a_relator_free_column():
    # <a, b | a^2> over <b, a b a^-1>: b fixes both cosets, though no relator has b
    t = todd_coxeter(GroupPresentation(2, [(1, 1)]), [(2,), (1, 2, -1)])
    assert t.size == 2


def test_abelianization_basics():
    # Z^2
    assert abelianization(GroupPresentation(2, [])) == AbelianGroup(2)
    # Z/4
    assert abelianization(GroupPresentation(1, [(1, 1, 1, 1)])) == AbelianGroup(0, (4,))
    # trefoil group abelianizes to Z
    tref = GroupPresentation(3, [(-2, -3, 1, 3), (-3, -1, 2, 1), (-1, -2, 3, 2)])
    assert abelianization(tref) == AbelianGroup(1)


def test_trefoil_branched_small_orders():
    for n, order in [(2, 3), (3, 8), (4, 24), (5, 120)]:
        pres, _ = trefoil_branched_presentation(n)
        assert todd_coxeter(pres, []).size == order


def test_trefoil_branched_longitude_identity_at_n2():
    pres, ell = trefoil_branched_presentation(2)
    t = todd_coxeter(pres, [])
    assert t.coset_of_word(ell) == 0


def test_trefoil_branched_abelianizations():
    # first homology of the branched covers, from the n mod 6 case table
    expected = {
        5: AbelianGroup(0),
        6: AbelianGroup(2),
        7: AbelianGroup(0),
        8: AbelianGroup(0, (3,)),
        9: AbelianGroup(0, (2, 2)),
    }
    for n, group in expected.items():
        pres, _ = trefoil_branched_presentation(n)
        assert abelianization(pres) == group, f"n={n}"


def test_longitude_conjugacy_class_independent_of_index():
    # the same commutator word at every index must have the same order in the
    # finite quotient
    pres, _ = trefoil_branched_presentation(3)
    t = todd_coxeter(pres, [])
    orders = set()
    n = 3

    def gen(i):
        return (i - 1) % n + 1

    for i in range(1, n + 1):
        word = (gen(i), -gen(i - 1), -gen(i), gen(i - 1))
        c = t.coset_of_word(word)
        k = 1
        cur = c
        while cur != 0:
            cur = t.walk([cur], word)[0]
            k += 1
        orders.add(k)
    assert orders == {2}


def test_quandle_from_cosets_dihedral():
    # the 2-fold quotient of the trefoil group over <m, l> gives the
    # 3-element dihedral quandle
    tref = GroupPresentation(3, [(-2, -3, 1, 3), (-3, -1, 2, 1), (-1, -2, 3, 2)])
    gn = GroupPresentation(3, list(tref.relators) + [(1, 1)])
    # longitude of the standard trefoil diagram: x3 x1 x2 m^-3
    ell = (3, 1, 2, -1, -1, -1)
    t = todd_coxeter(gn, [(1,), ell])
    assert t.size == 3
    q = quandle_from_cosets(t, (1,))
    assert quandle_type(q) == 2
    assert is_connected(q)


def test_element_order_via_cyclic():
    g = SimpleNamespace(mult=[[(a + b) % 12 for b in range(12)] for a in range(12)], identity=0)
    assert element_order(g, 0) == 1
    assert element_order(g, 1) == 12
    assert element_order(g, 4) == 3


def _enumeration_counts(monkeypatch):
    """Count definitions, merge calls, cap rounds (one lookahead each) and scans."""
    counts = {"_define": 0, "_merge": 0, "lookahead": 0, "scan": 0}
    for name in counts:
        original = getattr(_Enumerator, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(_Enumerator, name, counted)
    return counts


def _g_n(spec, n, with_subgroup):
    if spec == "3_1#3_1":
        trefoil = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
        per = wirtinger_with_peripherals(analyze(connected_sum(trefoil, trefoil)))
    else:
        per = Pipeline(CosetCache(None)).peripherals(spec)
    subgroup = [(per.meridian + 1,), per.longitude] if with_subgroup else []
    return g_n_presentation(per, n), subgroup


# (spec, n, over <m, l>?, cap, definitions, merge calls, cap rounds, finishes?).
# Where a cap round resumes HLT and which cosets lookahead scans must not move
# these counts; a change to the order of definitions or coincidences does.
PINNED_ENUMERATIONS = [
    ("catalog:5_1", 3, False, 361, 741, 400, 5, False),
    ("montesinos:1,1/2,1/3,1/3", 2, False, 49, 57, 7, 2, False),
    ("montesinos:1,1/2,1/3,1/3", 2, True, 49, 69, 23, 3, False),
    ("3_1#3_1", 2, True, 2000, 4093, 2205, 4, False),
    ("catalog:5_1", 3, False, 410, 953, 602, 6, True),
    ("catalog:3_1", 5, False, 721, 953, 352, 2, True),
    ("montesinos:1,1/2,1/3,1/3", 2, True, 100, 134, 161, 2, True),
]


@pytest.mark.parametrize("spec,n,with_subgroup,cap,defs,merges,rounds,finishes",
                         PINNED_ENUMERATIONS)
def test_capped_enumeration_sequence_is_pinned(monkeypatch, spec, n, with_subgroup, cap,
                                               defs, merges, rounds, finishes):
    pres, subgroup = _g_n(spec, n, with_subgroup)
    uncapped = todd_coxeter(pres, subgroup) if finishes else None
    counts = _enumeration_counts(monkeypatch)
    if finishes:
        # cap rounds that end in success give the uncapped table
        assert todd_coxeter(pres, subgroup, max_cosets=cap) == uncapped
    else:
        with pytest.raises(Overflow):
            todd_coxeter(pres, subgroup, max_cosets=cap)
    assert (counts["_define"], counts["_merge"], counts["lookahead"]) == (defs, merges, rounds)


@pytest.mark.parametrize("spec,n,scans", [("catalog:5_1", 3, 2268), ("catalog:3_1", 5, 2400)])
def test_finished_enumeration_makes_no_second_pass(monkeypatch, spec, n, scans):
    # HLT ends when its pointer passes the last coset; a rescan of every relator
    # at every coset afterwards would double these counts
    pres, subgroup = _g_n(spec, n, False)
    counts = _enumeration_counts(monkeypatch)
    todd_coxeter(pres, subgroup)
    assert counts["scan"] == scans


@pytest.mark.parametrize("spec,n,with_subgroup", [("catalog:5_1", 3, False), ("catalog:3_1", 5, True)])
def test_each_finished_enumeration_builds_one_table(monkeypatch, spec, n, with_subgroup):
    # the constructor numbers the finished table and proves it in one pass:
    # the plain enumeration and the one lifted through simplify call it once
    pres, subgroup = _g_n(spec, n, with_subgroup)
    tables = [todd_coxeter(pres, subgroup), enumerate_cosets(pres, subgroup)]
    calls = []
    init = CosetTable.__init__

    def spy(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(CosetTable, "__init__", spy)
    for enumerate_once, table in zip((todd_coxeter, enumerate_cosets), tables):
        calls.clear()
        assert enumerate_once(pres, subgroup) == table and len(calls) == 1
    assert tables[0] == tables[1]


def test_regularity_is_proved_by_left_translations():
    # S3 = <a, b | a^2, b^2, (ab)^3> acts regularly on its six cosets over 1,
    # and not on its three cosets over <a>
    s3 = GroupPresentation(2, [(1, 1), (2, 2), (1, 2) * 3])
    regular = todd_coxeter(s3, [])
    regular.check_regular()
    for d in range(6):
        left = regular.left_translation(d)
        assert left[0] == d and sorted(left) == list(range(6))
    cosets = todd_coxeter(s3, [(1,)])
    with pytest.raises(TableMismatch):
        cosets.check_regular()
    assert cosets.left_translation(0) == [0, 1, 2]
    with pytest.raises(TableMismatch):
        cosets.left_translation(1)


def _renumbering_cases():
    s3 = GroupPresentation(2, [(1, 1), (2, 2), (1, 2) * 3])
    quaternion = GroupPresentation(2, [(1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)])
    pipe = Pipeline(CosetCache(None))
    g3 = g_n_presentation(pipe.peripherals("catalog:3_1"), 3)
    return [(s3, todd_coxeter(s3, [(2,)])), (s3, todd_coxeter(s3, [])),
            (quaternion, todd_coxeter(quaternion, [])),
            (g3, pipe.quandle("catalog:3_1", 3)[0]), (g3, pipe.branched("catalog:3_1", 3).table)]


def test_standardization_undoes_any_relabelling_that_fixes_coset_0():
    # the constructor is the one renumbering of every computed table: given
    # forward columns in any numbering with coset 0 first, it restores the table
    rng = random.Random(0)
    for g, table in _renumbering_cases():
        forward = table.to_json()["forward"]
        for _ in range(20):
            pi = [0] + rng.sample(range(1, table.size), table.size - 1)
            relabelled = [[0] * table.size for _ in forward]
            for col, new in zip(forward, relabelled):
                for c, d in enumerate(col):
                    new[pi[c]] = pi[d]
            again = CosetTable(g.ngens, relabelled, table.subgroup)
            again.check(g, table.subgroup)
            assert again == table and again.renumbered == (pi != sorted(pi))
            assert again.rep_words == table.rep_words and again.tree == table.tree
