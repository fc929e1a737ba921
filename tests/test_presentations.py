from math import gcd

import pytest

from qf.diagrams import analyze, connected_sum, parse_pd, wirtinger_with_peripherals
from qf.groups import GroupPresentation, Overflow, g_n_presentation, todd_coxeter
from qf.pipeline import CosetCache, Pipeline
from qf.presentations import enumerate_cosets, simplify
from qf.verify import CARDINALITY_CASES, H2_CASES, LONGITUDE_CASES, MONTESINOS_CANDIDATES

PIPE = Pipeline(CosetCache(None))
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


def test_enumerate_cosets_overflows_and_checks_words():
    trefoil = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    per = wirtinger_with_peripherals(analyze(connected_sum(trefoil, trefoil)))
    with pytest.raises(Overflow):  # the granny knot: Q_2 is infinite
        enumerate_cosets(g_n_presentation(per, 2), _subgroups(per)[1], max_cosets=2000)
    with pytest.raises(ValueError):
        enumerate_cosets(GroupPresentation(1, [(1, 1)]), [(2,)])
    assert enumerate_cosets(GroupPresentation(0, []), []).size == 1
