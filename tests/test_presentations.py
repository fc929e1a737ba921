import hashlib
import random
from collections import Counter
from itertools import product
from math import gcd, isqrt, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qf.groups
import qf.presentations
from qf.diagrams import analyze, connected_sum, parse_pd, wirtinger_with_peripherals
from qf.groups import (
    GroupPresentation,
    Overflow,
    TableMismatch,
    abelianization,
    cyclic_reduce,
    free_reduce,
    g_n_presentation,
    invert_word,
    todd_coxeter,
    trefoil_branched_presentation,
)
from qf.intlinalg import AbelianGroup
from qf.pipeline import CosetCache, Pipeline
from qf.presentations import (
    _abelianization_with_characters,
    _character_orbits,
    _character_prime,
    _rank_deficiencies,
    abelian_quotient_table,
    branched_cover_certificate,
    enumerate_cosets,
    grading_kernel_presentation,
    reidemeister_schreier,
    shorten,
    simplify,
    subgroup_abelianization,
)
from qf.verify import CARDINALITY_CASES, H2_CASES, LONGITUDE_CASES, MONTESINOS_CANDIDATES

PIPE = Pipeline(CosetCache(None))
GOLDEN = Path(__file__).parent / "golden"
VERIFY_ROWS = sorted({(spec, n) for spec, n, _ in CARDINALITY_CASES + LONGITUDE_CASES + H2_CASES}
                     | {(MONTESINOS_CANDIDATES[0], 2)})
TWO_BRIDGE = [f"rational:{a},{b}" for a in range(3, 22, 2) for b in range(1, a) if gcd(a, b) == 1]


def _subgroups(per):
    return [(), ((per.meridian + 1,), per.longitude)]


def _assert_rewrites_into_kept(pres, keep):
    small, rewrite = simplify(pres, keep)
    assert len(rewrite) == pres.ngens
    assert rewrite[0] == (1,)  # generator 1 is kept, and stays generator 1
    assert all(1 <= abs(letter) <= small.ngens for word in rewrite for letter in word)
    return small


@pytest.mark.parametrize("spec,n", VERIFY_ROWS)
def test_verify_rows_enumerate_as_raw(spec, n):
    per = PIPE.peripherals(spec)
    pres = g_n_presentation(per, n)
    assert _assert_rewrites_into_kept(pres, (1,)).ngens <= 3
    for subgroup in _subgroups(per):
        lifted = enumerate_cosets(pres, subgroup)
        raw = todd_coxeter(pres, subgroup)
        assert lifted == raw
        assert lifted.to_json() == raw.to_json()


def test_two_bridge_g2_enumerates_as_raw():
    # raw HLT blows up on G_2 of the torus diagrams (beta = 1 or alpha - 1), so
    # it gets a small cap; the lifted enumeration must finish on every row
    compared = 0
    for spec in TWO_BRIDGE:
        alpha = int(spec.split(":")[1].split(",")[0])
        per = PIPE.peripherals(spec)
        pres = g_n_presentation(per, 2)
        # propagation from the meridian and one well-chosen arc reaches every arc
        assert _assert_rewrites_into_kept(pres, (1,)).ngens == 2, spec
        for subgroup in _subgroups(per):
            lifted = enumerate_cosets(pres, subgroup)
            assert lifted.size == (alpha if subgroup else 2 * alpha)
            try:
                raw = todd_coxeter(pres, subgroup, max_cosets=2000)
            except Overflow:
                assert not subgroup, spec
                continue
            assert lifted == raw and lifted.to_json() == raw.to_json(), spec
            compared += 1
    assert compared >= 170  # of 188; the rest are raw overflows of G_2


def test_trefoil_g2_simplifies_to_two_generators():
    pres = g_n_presentation(PIPE.peripherals("catalog:3_1"), 2)
    # propagation keeps generator 2 and solves generator 3; the two relators
    # left are one relator up to rotation and inversion
    assert simplify(pres, (1,)) == (GroupPresentation(2, [(1, 1), (-2, -1, -2, 1, 2, 1)]),
                                    ((1,), (2,), (-1, 2, 1)))


def test_greedy_elimination_after_propagation():
    # no relator ever has exactly one unexpressed generator occurring once, so
    # propagation keeps 2 and then 3; greedy then eliminates 2 = (3 3)^-1
    pres = GroupPresentation(3, [(2, 3, 3), (3, 3, 3), (1, 1), (1, 3, -1, -3)])
    small, rewrite = simplify(pres, (1,))
    assert small == GroupPresentation(2, [(1, 1), (2, 2, 2), (1, 2, -1, -2)])
    assert rewrite == ((1,), (-2, -2), (2,))
    for subgroup in ((), ((1,),), ((2, 3),)):
        assert enumerate_cosets(pres, subgroup) == todd_coxeter(pres, subgroup)


def test_simplify_never_eliminates_a_kept_generator():
    pres = GroupPresentation(3, [(2, 3, 3), (3, 3, 3), (1, 1), (1, 3, -1, -3)])
    small, rewrite = simplify(pres, (1, 2))
    assert small.ngens == 3 and rewrite == ((1,), (2,), (3,))


def _substitute(word, rewrite):
    """``qf.presentations._substitute`` as first written: the images, each
    generator's or the inverse of it, concatenated, then freely reduced."""
    images = (rewrite[abs(letter) - 1] if letter > 0 else invert_word(rewrite[abs(letter) - 1])
              for letter in word)
    return free_reduce([x for image in images for x in image])


def _canonical(relator):
    """``qf.presentations._canonical`` as first written: the least of all
    rotations of the relator and of its inverse."""
    return min(w[i:] + w[:i] for w in (relator, invert_word(relator)) for i in range(len(w)))


@st.composite
def _signed_words(draw):
    """Signed words of up to 60 letters over 3 generators, not reduced: a
    word, a power u^k (rotations that tie), or a rotation of the inverse of
    one."""
    letters = st.sampled_from([1, -1, 2, -2, 3, -3])
    shape = draw(st.sampled_from(["word", "power", "inverse"]))
    if shape == "power":
        u = draw(st.lists(letters, min_size=1, max_size=6))
        return tuple(u * draw(st.integers(1, 60 // len(u))))
    w = tuple(draw(st.lists(letters, min_size=1, max_size=60)))
    if shape == "inverse":
        i = draw(st.integers(0, len(w) - 1))
        w = invert_word(w[i:] + w[:i])
    return w


@settings(max_examples=300, deadline=None)
@given(_signed_words(), st.integers(0, 59))
def test_canonical_is_the_least_rotation_of_the_word_or_its_inverse(w, i):
    assert qf.presentations._canonical(w) == _canonical(w)
    i %= len(w)
    for other in (w[i:] + w[:i], invert_word(w[i:] + w[:i])):
        assert qf.presentations._canonical(other) == qf.presentations._canonical(w)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4]), max_size=40),
       st.lists(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=8), min_size=4, max_size=4))
def test_substitute_is_the_reduced_concatenation_of_the_images(word, images):
    # images need not be reduced, and may be empty
    rewrite = [tuple(image) for image in images]
    got = qf.presentations._substitute(word, rewrite)
    assert got == _substitute(word, rewrite) == free_reduce(got)
    assert qf.presentations._substitute(iter(word), rewrite) == got


def _propagate_by_closure(pres, protected):
    """Step 1 of ``simplify`` as first written: every relator re-solved from
    scratch for each step and, when none fires, for each candidate to keep."""
    def solvable(relator, known):
        free = [abs(letter) for letter in relator if abs(letter) not in known]
        return free[0] if len(free) == 1 else None

    def closure(known):
        known = set(known)
        while solved := {solvable(w, known) for w in relators} - {None}:
            known |= solved
        return known

    known, kept = set(protected), set(protected)
    expr = [(g,) if g in known else None for g in range(1, pres.ngens + 1)]
    relators = pres.relators
    unused = list(range(len(relators)))
    while len(known) < pres.ngens:
        i = next((i for i in unused if solvable(relators[i], known) is not None), None)
        if i is not None:
            x = solvable(relators[i], known)
            expr[x - 1] = _substitute(qf.presentations._solve(relators[i], x), expr)
            unused.remove(i)
        else:
            weight = Counter()
            for i in unused:
                free = {abs(letter) for letter in relators[i]} - known
                if len(free) == 2:
                    weight.update(free)
            x = max((g for g in range(1, pres.ngens + 1) if g not in known),
                    key=lambda g: (len(closure(known | {g})) == pres.ngens, weight[g], -g))
            expr[x - 1] = (x,)
            kept.add(x)
        known.add(x)
    rels = [cyclic_reduce(_substitute(relators[i], expr)) for i in unused]
    return kept, expr, [w for w in rels if w]


SIMPLIFY_POOL = [*(f"catalog:{k}" for k in ("3_1", "4_1", "5_1", "5_2")), *MONTESINOS_CANDIDATES,
                 *(f"rational:{a},{b}" for a in range(3, 26, 2) for b in range(1, a) if gcd(a, b) == 1)]


def test_propagation_matches_the_closure_version(monkeypatch):
    # simplify(G_n, (1,)), simplify(G_n, ()) and simplify(pi1, ()), the three
    # calls of the pipeline and the certificate, on every knot of the pool at
    # n = 2..4: the incremental propagation gives what re-solving every
    # relator gave, and so does simplify
    compared = 0
    for spec in SIMPLIFY_POOL:
        for n in (2, 3, 4):
            pres = g_n_presentation(PIPE.peripherals(spec), n)
            small = simplify(pres, (1,))[0]
            pi1 = grading_kernel_presentation(small, n)
            for given, keep in ((pres, (1,)), (pres, ()), (pi1, ())):
                protected = frozenset(keep)
                want = _propagate_by_closure(given, protected)
                assert qf.presentations._propagate(given, protected) == want, (spec, n, keep)
                compared += 1
    assert compared == 3 * 3 * len(SIMPLIFY_POOL) == 1278


def test_enumerate_cosets_overflows_and_checks_words():
    trefoil = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    per = wirtinger_with_peripherals(analyze(connected_sum(trefoil, trefoil)))
    with pytest.raises(Overflow):  # the granny knot: Q_2 is infinite
        enumerate_cosets(g_n_presentation(per, 2), _subgroups(per)[1], max_cosets=2000)
    with pytest.raises(ValueError):
        enumerate_cosets(GroupPresentation(1, [(1, 1)]), [(2,)])
    assert enumerate_cosets(GroupPresentation(0, []), []).size == 1
    # the lifted table is checked against the presentation itself: a wrong
    # simplification (D4 for S3) gives a table on which (ab)^3 moves cosets
    s3 = GroupPresentation(2, [(1, 1), (2, 2), (1, 2) * 3])
    d4 = GroupPresentation(2, [(1, 1), (2, 2), (1, 2) * 4])
    with pytest.raises(TableMismatch, match=r"relator \(1, 2, 1, 2, 1, 2\) does not act"):
        enumerate_cosets(s3, [], simplified=(d4, ((1,), (2,))))


def test_canonical_runs_only_on_relators_of_shared_length(monkeypatch):
    # G_50 of the trefoil keeps the meridian's 50th power, the one relator of
    # its length, so it is its own key and needs no least rotation
    lengths = []
    canonical = qf.presentations._canonical
    monkeypatch.setattr(qf.presentations, "_canonical",
                        lambda w: lengths.append(len(w)) or canonical(w))
    pres = g_n_presentation(PIPE.peripherals("catalog:3_1"), 50)
    small, _ = simplify(pres, (1,))
    assert (1,) * 50 in small.relators
    assert 50 not in lengths
    # the two relators of length 6 are compared (simplify looks _canonical up
    # when it runs, so the patch is seen)
    assert Counter(lengths) == {6: 2}


# The knots of the verdict sweep in ROADMAP.md's Baselines, a Montesinos knot,
# a 2-bridge knot whose G_n relators run to hundreds of letters, and the PD
# files beside the golden certificates
TIETZE_POOL = [*(f"catalog:{k}" for k in ("3_1", "4_1", "5_1", "5_2")),
               *(f"rational:{ab}" for ab in ("7,3", "7,2", "9,2", "9,4", "11,3")), "torus:2,7",
               *(f"rational:{ab}" for ab in ("11,2", "11,4", "11,5", "13,2", "13,3", "13,4",
                                             "13,5", "13,6", "15,2", "15,4", "15,7")),
               "montesinos:1,1/2,1/3,1/3", "rational:987,610",
               *(f"tests/golden/{pd.name}" for pd in sorted(GOLDEN.glob("*.pd")))]


def _tietze_lines():
    """One line per knot of TIETZE_POOL and n = 2..6: the sha256 of the repr
    of simplify(G_n, (1,)) with its rewrite words, simplify(pi1, ()), shorten
    of that, and simplify of the shortened presentation. tests/golden/tietze.txt
    holds them as the quadratic word layer gave them:
      PYTHONPATH=src:tests python -c "from test_presentations import _tietze_lines; print(*_tietze_lines(), sep='\\n')"
    """
    for spec in TIETZE_POOL:
        path = GOLDEN.parents[1] / spec
        per = PIPE.peripherals(str(path) if path.is_file() else spec)
        for n in range(2, 7):
            small, rewrite = simplify(g_n_presentation(per, n), (1,))
            pi1 = simplify(grading_kernel_presentation(small, n), ())
            shorter = shorten(pi1[0])
            outputs = (small, rewrite, pi1, shorter, simplify(shorter, ()))
            yield f"{spec} {n} {hashlib.sha256(repr(outputs).encode()).hexdigest()}"


def test_tietze_outputs_are_pinned():
    # simplify's output feeds the pinned capped enumerations, and the
    # certificate's passes read pi1 simplified and shortened
    assert list(_tietze_lines()) == (GOLDEN / "tietze.txt").read_text().splitlines()


# --- Reidemeister-Schreier and certificates of infiniteness -----------------

S3 = GroupPresentation(2, [(1, 1), (2, 2, 2), (1, 2, 1, 2)])


def test_reidemeister_schreier_presents_the_subgroup():
    # <b> in S3 is Z/3; the trivial subgroup is trivial; all of S3 has H1 = Z/2
    for subgroup, want in (([(2,)], AbelianGroup(0, (3,))), ([], AbelianGroup(0)),
                           ([(1,), (2,)], AbelianGroup(0, (2,)))):
        table = todd_coxeter(S3, subgroup)
        sub = reidemeister_schreier(S3, table)
        assert sub.ngens == table.size * (S3.ngens - 1) + 1  # one per non-tree edge
        assert abelianization(sub) == want


def test_reidemeister_schreier_on_a_free_group():
    # an index-3 subgroup of the free group of rank 2 is free of rank 3*(2-1)+1
    free = GroupPresentation(2, [])
    assert grading_kernel_presentation(free, 3) == GroupPresentation(4, [])
    table = todd_coxeter(GroupPresentation(2, [(1, 1, 1), (1, -2)]))
    assert table.size == 3
    assert reidemeister_schreier(free, table) == GroupPresentation(4, [])
    with pytest.raises(ValueError):
        reidemeister_schreier(GroupPresentation(3, []), table)


def test_grading_kernel_presentation():
    # pi1(M_3) of the trefoil, over simplified G_3: Schreier generator 3 is
    # the meridian's cube, read from each of the three grades
    pres = simplify(g_n_presentation(PIPE.peripherals("catalog:3_1"), 3), (1,))[0]
    assert pres == GroupPresentation(2, [(1, 1, 1), (-2, -1, -2, 1, 2, 1)])
    assert grading_kernel_presentation(pres, 3) == GroupPresentation(4, [
        (3,), (3,), (3,), (-4, -1, 2, 3), (-1, -3, -2, 4), (-2, -4, 3, 1)])
    with pytest.raises(TableMismatch):  # the meridian's 3rd power is not 0 mod 2
        grading_kernel_presentation(pres, 2)


# The granny knot and the four connected sums of the tc_overflow benchmark
# workload, each with an infinite Q_2: (PD, derived index, free rank).
INFINITE_SUMS = [
    ("X(1,4,2,5) X(3,6,4,7) X(5,2,6,3) X(7,10,8,11) X(9,12,10,1) X(11,8,12,9)", 9, 4),
    ("X(5,2,6,3) X(1,4,2,5) X(3,12,4,1) X(8,11,9,12) X(10,7,11,8) X(6,9,7,10)", 9, 4),
    ("X(14,4,1,3) X(2,6,3,5) X(4,2,5,1) X(10,8,11,7) X(6,12,7,11) X(12,9,13,10) "
     "X(8,13,9,14)", 15, 8),
    ("X(7,5,8,4) X(3,1,4,16) X(1,6,2,7) X(5,2,6,3) X(10,16,11,15) X(14,12,15,11) "
     "X(12,9,13,10) X(8,13,9,14)", 25, 16),
    ("X(5,3,6,2) X(1,7,2,6) X(7,4,8,5) X(3,18,4,1) X(10,15,11,16) X(12,17,13,18) "
     "X(14,9,15,10) X(16,11,17,12) X(8,13,9,14)", 25, 16),
]


@pytest.mark.parametrize("pd, index, rank", INFINITE_SUMS)
def test_connected_sums_are_certified_infinite(pd, index, rank):
    pres = g_n_presentation(wirtinger_with_peripherals(analyze(parse_pd(pd))), 2)
    for given_pres in (pres, simplify(pres, (1,))[0]):  # raw or simplified G_2
        cert = branched_cover_certificate(given_pres, 2)
        assert (cert.n, cert.index, cert.abelianization.free_rank) == (2, index, rank)
    assert str(cert) == f"pi1(M_2) has a subgroup of index {index} with abelianization Z^{rank}"


def test_trefoil_sixfold_cover_is_certified_by_its_first_homology():
    cert = branched_cover_certificate(g_n_presentation(PIPE.peripherals("catalog:3_1"), 6), 6)
    assert (cert.index, cert.abelianization) == (1, AbelianGroup(2))
    assert str(cert) == "pi1(M_6) has abelianization Z^2"


@pytest.mark.parametrize("spec,n", VERIFY_ROWS)
def test_no_certificate_on_a_verify_row(spec, n):
    pres = g_n_presentation(PIPE.peripherals(spec), n)
    assert branched_cover_certificate(simplify(pres, (1,))[0], n) is None


@st.composite
def _two_bridge_up_to_29(draw):
    alpha = 2 * draw(st.integers(1, 14)) + 1
    beta = draw(st.sampled_from([b for b in range(1, alpha) if gcd(alpha, b) == 1]))
    return f"rational:{alpha},{beta}"


@settings(max_examples=40, deadline=None)
@given(_two_bridge_up_to_29())
def test_no_certificate_on_a_two_bridge_double_cover(spec):
    # pi1 of a lens space is finite, so no certificate can exist
    pres = g_n_presentation(PIPE.peripherals(spec), 2)
    assert branched_cover_certificate(simplify(pres, (1,))[0], 2) is None


# Rows whose certificate attempt reaches the second pass: H1(M_n) finite and
# not trivial. (per, n) pairs; the sums first.
SECOND_PASS_POOL = ([(wirtinger_with_peripherals(analyze(parse_pd(pd))), 2) for pd, _, _ in INFINITE_SUMS]
                    + [(PIPE.peripherals(spec), n) for spec, n in (
                        ("3_1", 3), ("3_1", 4), ("3_1", 8), ("4_1", 3), ("5_1", 5), ("5_2", 4),
                        (MONTESINOS_CANDIDATES[0], 2), ("rational:29,12", 2), ("rational:25,3", 2))])


def _with_commutators(pi1):
    gens = range(1, pi1.ngens + 1)
    return GroupPresentation(pi1.ngens, pi1.relators + tuple(
        (a, b, -a, -b) for a in gens for b in gens if a < b))


def _simplified_pi1(pres, n):
    """pi1(M_n) as the certificate's CERTIFICATE_WORK check reads it: simplified."""
    return simplify(grading_kernel_presentation(pres, n), ())[0]


def _second_pass(per, n):
    """The simplified G_n; pi1(M_n) as the certificate's second pass reads it,
    simplified, shortened and, where that changed it, simplified again; and
    |H1(M_n)|."""
    pres = simplify(g_n_presentation(per, n), (1,))[0]
    index = abelianization(grading_kernel_presentation(pres, n)).order()
    pi1 = _simplified_pi1(pres, n)
    if (shorter := shorten(pi1)) != pi1:
        pi1, _ = simplify(shorter, ())
    return pres, pi1, index



def _quotient_table(pres, order):
    """The table of pi1 / pi1' read off the character map of pres's own
    Smith form, as a recomputation; the certificate passes the map of the
    unsimplified pi1, restricted to the generators that simplify keeps."""
    _, torsion_map = qf.presentations._abelianization_with_characters(pres)
    return abelian_quotient_table(pres, order, torsion_map)

def test_hermite_table_is_the_enumerated_table():
    # read off the character map of pi1, with or without the commutators of
    # its generators among the relators, the table is the one that
    # enumerating pi1 with them gives, representative words included
    for per, n in SECOND_PASS_POOL:
        _, pi1, index = _second_pass(per, n)
        assert index > 1
        enumerated = todd_coxeter(_with_commutators(pi1), (), 10 ** 6)
        for pres in (pi1, _with_commutators(pi1)):
            table = _quotient_table(pres, index)
            assert table.to_json() == enumerated.to_json() and table.tree == enumerated.tree
            assert table.size == index


def test_one_pass_abelianization_matches_the_presentation():
    for per, n in SECOND_PASS_POOL:
        _, pi1, index = _second_pass(per, n)
        table = _quotient_table(pi1, index)
        assert subgroup_abelianization(pi1, table) == abelianization(reidemeister_schreier(pi1, table))
    for subgroup in ([(2,)], [], [(1,), (2,)], [(1,)]):
        table = todd_coxeter(S3, subgroup)
        assert subgroup_abelianization(S3, table) == abelianization(reidemeister_schreier(S3, table))


def _shift_character(monkeypatch, i, j):
    """Make ``_abelianization_with_characters`` return coefficient j of the
    i-th torsion factor off by one."""
    characters = qf.presentations._abelianization_with_characters

    def shifted(pres):
        h1, torsion_map = characters(pres)
        wrong = list(torsion_map)
        d, u = wrong[i]
        wrong[i] = (d, {**u, j: u.get(j, 0) + 1})
        return h1, tuple(wrong)

    monkeypatch.setattr(qf.presentations, "_abelianization_with_characters", shifted)


def test_hermite_table_rejects_a_wrong_order_or_a_dropped_row(monkeypatch):
    _, pi1, index = _second_pass(PIPE.peripherals("rational:29,12"), 2)
    assert pi1 == GroupPresentation(1, [(1,) * 29])  # the lens space L(29, 12)
    with pytest.raises(TableMismatch, match="has 29 cosets, not 30"):
        _quotient_table(pi1, index + 1)
    # on the granny knot's pi1(M_2) = Z/3 * Z/3 every map to H1 = (Z/3)^2 is a
    # homomorphism; with a coefficient of the character map off by one, the
    # translations reach only 3 of the 9 cosets
    _, pi1, index = _second_pass(SECOND_PASS_POOL[0][0], 2)
    assert (pi1, index) == (GroupPresentation(2, [(2, 2, 2), (-1, -1, -1)]), 9)
    with monkeypatch.context() as patch:
        _shift_character(patch, 1, 0)
        with pytest.raises(TableMismatch, match="reach every coset"):
            _quotient_table(pi1, index)
    # pi1(M_2) of 3_1 # 4_1 is Z/3 * Z/5, and H1 = Z/15; it drops rank at a
    # character of H1, so its certificate reaches the table, and with a
    # coefficient off by one a^3 no longer acts trivially
    pres, pi1, index = _second_pass(SECOND_PASS_POOL[2][0], 2)
    assert (pi1.relators[0], index) == ((-1, -1, -1), 15)
    _shift_character(monkeypatch, 0, 0)
    for attempt in (lambda: _quotient_table(pi1, index),
                    lambda: branched_cover_certificate(pres, 2)):
        with pytest.raises(TableMismatch, match=r"relator \(-1, -1, -1\) does not act trivially"):
            attempt()



def test_certificate_reads_the_quotient_table_off_its_own_character_map(monkeypatch):
    # the certificate restricts the character map of pi1 as
    # Reidemeister-Schreier gives it to the generators that each simplify
    # keeps, and takes no second Smith form; on every golden certificate row
    # past H1 and the four tc_overflow sums, the table is the recomputed one
    built = []
    quotient_table = qf.presentations.abelian_quotient_table

    def spy(pres, order, torsion_map):
        built.append((pres, order, quotient_table(pres, order, torsion_map)))
        return built[-1][2]

    monkeypatch.setattr(qf.presentations, "abelian_quotient_table", spy)
    rows = [*_golden_certificate_rows(), *SECOND_PASS_POOL[1:len(INFINITE_SUMS)]]
    for per, n in rows:
        built.clear()
        pres = simplify(g_n_presentation(per, n), (1,))[0]
        assert branched_cover_certificate(pres, n) is not None
        if n == 6:  # 3_1 at n=6: H1(M_6) is infinite, which is the certificate
            assert built == []
            continue
        ((pi1, index, table),) = built
        recomputed = _quotient_table(pi1, index)
        assert table.to_json() == recomputed.to_json() and table.tree == recomputed.tree
    assert len(rows) == 7 + 4

def test_hermite_table_is_checked_against_every_relator(monkeypatch):
    # H1 = Z/12 with a -> 1 and b -> 2; with b -> 3 the translations still
    # reach all 12 cosets, so only the check of a^2 b^-1 finds the wrong map
    g = GroupPresentation(2, [(1,) * 12, (2,) * 12, (1, 1, -2)])
    assert _quotient_table(g, 12).to_json() == todd_coxeter(
        _with_commutators(g), (), 100).to_json()
    assert _abelianization_with_characters(g)[1] == ((12, {0: 1, 1: 2}),)
    _shift_character(monkeypatch, 0, 1)
    with pytest.raises(TableMismatch, match=r"relator \(1, 1, -2\) does not act trivially"):
        _quotient_table(g, 12)


@pytest.mark.parametrize("pd", [pd for pd, _, _ in INFINITE_SUMS])
def test_shortened_pi1_of_a_connected_sum_is_a_free_product_of_two_cyclic_groups(pd):
    # pi1(M_2) of a sum of two 2-bridge knots is Z/a * Z/b; simplify leaves
    # up to 4 generators and 6 relators (80 letters), the move 2 and 2
    pres = simplify(g_n_presentation(wirtinger_with_peripherals(analyze(parse_pd(pd))), 2), (1,))[0]
    pi1 = _simplified_pi1(pres, 2)
    small, _ = simplify(shorten(pi1), ())
    assert (small.ngens, len(small.relators)) == (2, 2)
    assert abelianization(small) == abelianization(pi1)


def test_shorten_never_lengthens_and_keeps_pi1_prime():
    for per, n in SECOND_PASS_POOL:
        pres = simplify(g_n_presentation(per, n), (1,))[0]
        pi1 = _simplified_pi1(pres, n)
        short = shorten(pi1)
        assert short.ngens == pi1.ngens and len(short.relators) <= len(pi1.relators)
        assert sum(map(len, short.relators)) <= sum(map(len, pi1.relators))
        assert abelianization(short) == abelianization(pi1)
        # pi1' abelianized over the shortened pi1, as the certificate does,
        # and over the simplified pi1, as it did before the move
        _, small, index = _second_pass(per, n)
        assert (subgroup_abelianization(small, _quotient_table(small, index))
                == subgroup_abelianization(pi1, _quotient_table(pi1, index)))


def test_shorten_by_hand():
    # (1 2)^3 holds all of (1 2)^2 1 (u, with v empty) and then 2, so it
    # becomes 2; each 2 of (1 2)^2 1 is then a whole conjugate of it
    pres = GroupPresentation(2, [(1, 2, 1, 2, 1, 2), (1, 2, 1, 2, 1)])
    assert shorten(pres) == GroupPresentation(2, [(2,), (1, 1, 1)])
    # a piece of a conjugate of the inverse: 1^-1 2^-1 1^-1 is 3 letters of (2 1 2 1)^-1
    assert shorten(GroupPresentation(2, [(2, 1, 2, 1), (-1, -2, -1, 2, 2, 2)])) \
        == GroupPresentation(2, [(2, 1, 2, 1), (2, 2, 2, 2)])
    # no piece of more than half: nothing moves, and a presentation is returned as it is
    free_product = GroupPresentation(2, [(1, 1, 1), (2, 2, 2, 2, 2)])
    assert shorten(free_product) == free_product


@st.composite
def _presentation_with_a_piece(draw):
    """Relators over 1-3 generators, one of which holds a piece u of a cyclic
    conjugate u v of another relator or of its inverse, |u| > |v|."""
    ngens = draw(st.integers(1, 3))
    letter = st.integers(1, ngens).flatmap(lambda g: st.sampled_from((g, -g)))
    rels = [cyclic_reduce(w) for w in draw(st.lists(st.lists(letter, min_size=1, max_size=6),
                                                    min_size=2, max_size=4))]
    rels = [w for w in rels if w] or [(1, 1)]
    s = draw(st.sampled_from(rels))
    w = s if draw(st.booleans()) else tuple(-x for x in reversed(s))
    i = draw(st.integers(0, len(w) - 1))
    c = w[i:] + w[:i]
    u = c[:draw(st.integers(len(c) // 2 + 1, len(c)))]
    j = draw(st.integers(0, len(rels) - 1))
    p = draw(st.integers(0, len(rels[j])))
    rels.append(rels[j][:p] + u + rels[j][p:])
    return GroupPresentation(ngens, rels)


@settings(max_examples=60, deadline=None)
@given(_presentation_with_a_piece())
def test_shorten_keeps_the_group(pres):
    short = shorten(pres)
    assert short.ngens == pres.ngens
    assert sum(map(len, short.relators)) <= sum(map(len, pres.relators))
    assert abelianization(short) == abelianization(pres)
    try:
        orders = [todd_coxeter(p, (), 2000).size for p in (pres, short)]
    except Overflow:
        return
    assert orders[0] == orders[1]


def test_no_certificate_past_the_work_bound_before_the_move(monkeypatch):
    # rational:9,2 at n=6: |H1(M_6)| = 3969, and the bound of the exact pass,
    # the simplified pi1's letters and 4 per commutator of its generators from
    # every coset, reads 452,466; the table's check no longer walks the
    # commutators, but the bound is kept as it was so that the same rows give
    # up, and it reads pi1 before the move, so it gives up without shortening
    def refuse(pres):
        raise AssertionError("shorten called")

    monkeypatch.setattr(qf.presentations, "shorten", refuse)
    pres = simplify(g_n_presentation(PIPE.peripherals("rational:9,2"), 6), (1,))[0]
    pi1 = _simplified_pi1(pres, 6)
    index = abelianization(pi1).order()
    assert index == 3969
    assert 6 * sum(map(len, pres.relators)) <= qf.presentations.CERTIFICATE_WORK
    assert index * sum(map(len, _with_commutators(pi1).relators)) > qf.presentations.CERTIFICATE_WORK
    assert branched_cover_certificate(pres, 6) is None


# --- the character scan ------------------------------------------------------


def _golden_certificate_rows():
    """(per, n) of each line of tests/golden/certificates.txt."""
    for line in (GOLDEN / "certificates.txt").read_text().splitlines():
        knot, n, _ = line.split(" ", 2)
        path = GOLDEN.parents[1] / knot
        yield PIPE.peripherals(str(path) if path.is_file() else knot), int(n)


def _scanned_pi1(per, n):
    """The simplified G_n, pi1(M_n) as the certificate's scan reads it (as
    Reidemeister-Schreier gives it), its H1 and the torsion map of H1."""
    pres = simplify(g_n_presentation(per, n), (1,))[0]
    pi1 = grading_kernel_presentation(pres, n)
    return (pres, pi1, *_abelianization_with_characters(pi1))


def test_character_scan_matches_the_exact_free_rank():
    # over every nontrivial character, the rank deficiencies mod p sum to
    # dim H1(A-cover; F_p), which is the free rank of pi1'^ab on every row
    # here; the certificate's scan, one character per Galois orbit, finds a
    # deficient one exactly where that rank is positive. The rows: the golden
    # certificates, the second-pass pool, the verify-tables rows and 5_2 at
    # n=5, whose exact pass is the 605 x 485 Smith form
    rows = [*_golden_certificate_rows(), *SECOND_PASS_POOL,
            *((PIPE.peripherals(spec), n) for spec, n in VERIFY_ROWS), (PIPE.peripherals("5_2"), 5)]
    ranks = []
    for per, n in rows:
        pres, pi1, h1, torsion_map = _scanned_pi1(per, n)
        if h1.free_rank or h1.order() == 1:
            continue
        _, small, index = _second_pass(per, n)
        exact = subgroup_abelianization(small, _quotient_table(small, index)).free_rank
        moduli = [d for d, _ in torsion_map]
        every = [k for k in product(*map(range, moduli)) if any(k)]
        assert sum(_rank_deficiencies(pi1, torsion_map, every)) == exact, (n, h1)
        assert any(_rank_deficiencies(pi1, torsion_map, _character_orbits(moduli))) == (exact > 0)
        assert (branched_cover_certificate(pres, n) is None) == (exact == 0)
        ranks.append(exact)
    # the six golden rows past H1, the 14 rows of the pool, the eight verify
    # rows with H1 finite and not trivial, and 5_2 at n=5
    assert sorted(r for r in ranks if r) == [3, 3, 4, 4, 4, 4, 8, 8, 10, 10, 16, 16, 16, 16]
    assert len(ranks) == 6 + 14 + 8 + 1 and ranks[-1] == 0


def test_character_scan_is_charged_per_orbit(monkeypatch):
    # rational:15,2 at n=5: |H1(M_5)| x the letters of pi1 is past
    # CERTIFICATE_WORK, but its 62 orbits of characters are within the budget,
    # and full rank at each proves that no certificate exists before simplify
    class Simplified(Exception):
        pass

    def refuse(*args):
        raise Simplified

    pres, pi1, h1, torsion_map = _scanned_pi1(PIPE.peripherals("rational:15,2"), 5)
    moduli = [d for d, _ in torsion_map]
    letters = sum(map(len, pi1.relators))
    assert h1.order() * letters > qf.presentations.CERTIFICATE_WORK
    assert len(list(_character_orbits(moduli))) == 62 <= qf.presentations.CERTIFICATE_WORK // letters
    monkeypatch.setattr(qf.presentations, "simplify", refuse)
    assert branched_cover_certificate(pres, 5) is None
    # the scan's powers of zeta and its marked characters number up to |H1|,
    # so past |H1| = CERTIFICATE_WORK it is not tried: rational:121393,75025
    # (25 crossings) has H1(M_2) = Z/121393, and goes to the exact pass
    def scan(e):
        raise AssertionError("character scan tried")

    monkeypatch.setattr(qf.presentations, "_character_prime", scan)
    pres = g_n_presentation(PIPE.peripherals("rational:121393,75025"), 2)
    with pytest.raises(Simplified):
        branched_cover_certificate(pres, 2)


def test_character_orbits_cover_every_nontrivial_character_once():
    for moduli in ((2,), (29,), (2, 2), (4, 2), (3, 9), (2, 6, 6)):
        orbits = list(_character_orbits(moduli))
        assert orbits[0] == tuple(d - 1 for d in moduli)
        covered = []
        for k in orbits:
            order = next(o for o in range(1, prod(moduli) + 1)
                         if all(o * a % d == 0 for a, d in zip(k, moduli)))
            covered += [tuple(a * b % d for b, d in zip(k, moduli))
                        for a in range(1, order) if gcd(a, order) == 1]
        assert sorted(covered) == [k for k in product(*map(range, moduli)) if any(k)]


def test_character_scan_fails_on_a_corrupted_character_or_jacobian(monkeypatch):
    # 5_2 at n=3: H1 = Z/5 x Z/5 and pi1'^ab finite, so the scan proves full
    # rank; off by one in one coefficient of the character map, or in one
    # Jacobian entry, it no longer does
    pres, pi1, h1, torsion_map = _scanned_pi1(PIPE.peripherals("5_2"), 3)
    assert h1 == AbelianGroup(0, (5, 5))
    orbits = list(_character_orbits([d for d, _ in torsion_map]))
    assert len(orbits) == 6 and not any(_rank_deficiencies(pi1, torsion_map, orbits))
    for i, (d, u) in enumerate(torsion_map):
        for j in u:
            wrong = list(torsion_map)
            wrong[i] = (d, {**u, j: u[j] + 1})
            assert any(_rank_deficiencies(pi1, wrong, orbits)), (i, j)

    jacobian = qf.presentations._fox_jacobian
    exact = []

    def corrupt(pres, exponents, powers):
        rows = jacobian(pres, exponents, powers)
        rows[0][0] += 1
        return rows

    def spy(pres, table):
        exact.append(table.size)
        return abelianization(reidemeister_schreier(pres, table))

    monkeypatch.setattr(qf.presentations, "_fox_jacobian", corrupt)
    monkeypatch.setattr(qf.presentations, "subgroup_abelianization", spy)
    assert any(_rank_deficiencies(pi1, torsion_map, orbits))
    # the scan proves nothing, so the exact pass runs and finds no certificate
    assert branched_cover_certificate(pres, 3) is None and exact == [25]


def test_character_prime_is_the_least_above_the_floor():
    floor = qf.presentations.CHARACTER_PRIME_FLOOR
    bound = isqrt(2 * floor) + 1
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for q in range(2, isqrt(bound) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytearray(len(range(q * q, bound, q)))
    small = [q for q in range(bound) if sieve[q]]

    def is_prime(m):  # trial division, for m < 2 * floor
        return all(m % q for q in small if q * q <= m)

    for e in (2, 3, 4, 16, 25, 29, 63, 330, 961, 3969):
        p, powers = _character_prime(e)
        assert floor < p < 2 * floor and p % e == 1 and is_prime(p)
        first = next(q for q in range(floor + 1, floor + e + 1) if q % e == 1)
        assert not any(is_prime(q) for q in range(first, p, e)), e
        zeta = powers[1 % e]
        assert powers == tuple(pow(zeta, t, p) for t in range(e)) and pow(zeta, e, p) == 1
        assert all(pow(zeta, e // q, p) != 1 for q in small if e % q == 0), e


def test_certificates_enumerate_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("todd_coxeter called")

    for module in (qf.groups, qf.presentations):
        monkeypatch.setattr(module, "todd_coxeter", refuse)
    certified = 0
    for per, n in SECOND_PASS_POOL:
        pres = simplify(g_n_presentation(per, n), (1,))[0]
        certified += branched_cover_certificate(pres, n) is not None
    assert certified == len(INFINITE_SUMS) + 3  # 4_1 n=3, 5_1 n=5 and 5_2 n=4


def _cover_homology(pres, n):
    return abelianization(grading_kernel_presentation(pres, n))


@pytest.mark.parametrize("n", range(2, 10))
def test_cover_homology_matches_the_cyclic_presentation(n):
    pres = g_n_presentation(PIPE.peripherals("catalog:3_1"), n)
    want = abelianization(trefoil_branched_presentation(n)[0])
    assert _cover_homology(pres, n) == _cover_homology(simplify(pres, (1,))[0], n) == want


def test_double_covers_of_two_bridge_knots_are_lens_spaces():
    for spec in TWO_BRIDGE:
        alpha = int(spec.split(":")[1].split(",")[0])
        pres = g_n_presentation(PIPE.peripherals(spec), 2)
        assert _cover_homology(pres, 2) == AbelianGroup(0, (alpha,)), spec


def _invariant_factor_chains(bound, least=2):
    """Every chain d_1 | d_2 | ... of factors >= 2 with product <= bound."""
    yield ()
    for d in range(least, bound + 1):
        for rest in _invariant_factor_chains(bound // d, d):
            if all(e % d == 0 for e in rest):
                yield (d,) + rest


def _random_unimodular(rng, k):
    """A signed permutation matrix, then two row operations that each add 1
    or 2 times one row to another, or subtract it. With more of them the
    relators grow to hundreds of letters, and todd_coxeter at a 10^4 cap
    overflows on some draws before the commutators collapse the table."""
    perm = rng.sample(range(k), k)
    m = [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(k)] for i in range(k)]
    for _ in range(2):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def test_hermite_table_lemma_on_every_abelian_group_of_order_at_most_40():
    # the lemma of abelian_quotient_table on random presentations U D V of
    # each group, D the invariant factors padded with 1s: the table read off
    # the character map is the one enumerated with the commutators added
    rng = random.Random(40)
    chains = list(_invariant_factor_chains(40))
    assert len(chains) == 68  # the abelian groups of order 1..40, up to isomorphism
    for chain in chains:
        order = prod(chain)
        for _ in range(rng.choice((2, 3))):
            k = max(len(chain), rng.choice((2, 3)))
            d = (1,) * (k - len(chain)) + chain
            u, v = _random_unimodular(rng, k), _random_unimodular(rng, k)
            matrix = [[sum(u[i][t] * d[t] * v[t][j] for t in range(k)) for j in range(k)]
                      for i in range(k)]
            relators = [[(j + 1) * (1 if e > 0 else -1) for j, e in enumerate(row)
                         for _ in range(abs(e))] for row in matrix]
            pres = GroupPresentation(k, relators)
            table = _quotient_table(pres, order)
            assert table.size == order
            enumerated = todd_coxeter(_with_commutators(pres), (), 10 ** 4)
            assert table.to_json() == enumerated.to_json(), (chain, matrix)
            with pytest.raises(TableMismatch):
                _quotient_table(pres, 2 * order)
