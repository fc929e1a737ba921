from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qf.catalog import resolve_knot_spec
from qf.diagrams import (
    LabelError,
    MultiComponent,
    OrientationInconsistent,
    PDCode,
    PDSyntaxError,
    analyze,
    arc_assignment,
    connected_sum,
    parse_pd,
    quandle_presentation,
    wirtinger_with_peripherals,
)
from qf.groups import Overflow, g_n_presentation, quandle_from_cosets, todd_coxeter
from qf.intlinalg import AbelianGroup
from qf.groups import abelianization
from qf.homology import quandle_homology
from qf.presentations import enumerate_cosets
from qf.quandles import check_relators

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"


def test_parse_trefoil():
    pd = parse_pd(TREFOIL)
    assert pd.n_crossings == 3
    assert pd.crossings == ((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3))


def test_parse_errors():
    with pytest.raises(PDSyntaxError):
        parse_pd("")
    with pytest.raises(PDSyntaxError):
        parse_pd("X(1,2,3)")
    with pytest.raises(PDSyntaxError) as err:
        parse_pd("X(1,4,2,5) Y(3,6,4,1)")
    assert err.value.position == 11
    with pytest.raises(LabelError):
        parse_pd("X(1,1,1,1)")
    # Hopf link: labels fine, two components
    with pytest.raises(MultiComponent):
        parse_pd("X(1,3,2,4) X(3,1,4,2)")


def test_analyze_trefoil():
    d = analyze(parse_pd(TREFOIL))
    assert d.n_arcs == 3
    assert all(x.sign == 1 for x in d.crossings)
    assert d.writhe == 3
    # basepoint arc contains edge 1
    assert 1 in d.arcs[0]
    assert [x.over_arc_long for x in d.crossings] == [2, 3, 1]
    assert [x.over_arc_closed for x in d.crossings] == [2, 0, 1]


def test_analyze_rejects_double_under_in():
    # edge 3 enters two crossings as understrand; labels are still balanced
    with pytest.raises(OrientationInconsistent):
        analyze(parse_pd("X(1,5,2,6) X(3,6,4,1) X(3,2,5,4)"))


def test_wirtinger_trefoil():
    d = analyze(parse_pd(TREFOIL))
    p = wirtinger_with_peripherals(d)
    assert p.group.ngens == 3
    assert len(p.group.relators) == 3
    assert p.meridian == 0
    assert p.writhe == 3
    # preferred longitude has zero exponent sum
    assert sum(1 if v > 0 else -1 for v in p.longitude) == 0
    assert abelianization(p.group) == AbelianGroup(1)


def test_longitude_commutes_with_meridian_in_finite_quotient():
    d = analyze(parse_pd(TREFOIL))
    p = wirtinger_with_peripherals(d)
    for n in (2, 3, 4):
        t = todd_coxeter(g_n_presentation(p, n), [])
        m = (p.meridian + 1,)
        comm = m + p.longitude + tuple(-v for v in reversed(m)) + tuple(-v for v in reversed(p.longitude))
        assert t.walk(range(t.size), comm) == list(range(t.size))


def test_g2_trefoil_order_six():
    d = analyze(parse_pd(TREFOIL))
    p = wirtinger_with_peripherals(d)
    assert todd_coxeter(g_n_presentation(p, 2), []).size == 6


def test_g1_is_trivial():
    d = analyze(parse_pd(TREFOIL))
    p = wirtinger_with_peripherals(d)
    assert todd_coxeter(g_n_presentation(p, 1), []).size == 1


def test_quandle_presentation_shape():
    d = analyze(parse_pd(TREFOIL))
    # a_{i-1} * a_k = a_i at each positive crossing, over the arcs a_0..a_3
    crossings = ((0, ((2, 1),), 1), (1, ((3, 1),), 2), (2, ((1, 1),), 3))
    assert quandle_presentation(d, 0) == crossings
    assert quandle_presentation(d, 3) == crossings + tuple((i, ((0, 3),), i) for i in (1, 2, 3))


def test_quandle_presentation_relators_hold_in_enumeration():
    # the right-handed trefoil, and the left-handed one, whose crossings are all negative
    for pd in (parse_pd(TREFOIL), resolve_knot_spec("rational:3,2").pd):
        d = analyze(pd)
        p = wirtinger_with_peripherals(d)
        for n in (2, 3, 4):
            t = todd_coxeter(g_n_presentation(p, n), [(p.meridian + 1,), p.longitude])
            q = quandle_from_cosets(t, (p.meridian + 1,))
            assert check_relators(q, arc_assignment(d, t), quandle_presentation(d, n)), \
                f"{pd.crossings} n={n}"


def test_connected_sum_structure():
    pd = parse_pd(TREFOIL)
    s = connected_sum(pd, pd)
    assert s.n_crossings == 6
    d = analyze(s)
    assert d.writhe == 6
    p = wirtinger_with_peripherals(d)
    assert abelianization(p.group) == AbelianGroup(1)
    # G_n(K) abelianizes to Z/n regardless of the knot
    assert abelianization(g_n_presentation(p, 2)) == AbelianGroup(0, (2,))


def test_connected_sum_overflow():
    # the 2-fold cover group of a granny knot is an infinite free product, so
    # the quandle enumeration must hit any cap
    pd = parse_pd(TREFOIL)
    s = connected_sum(pd, pd)
    p = wirtinger_with_peripherals(analyze(s))
    with pytest.raises(Overflow):
        todd_coxeter(g_n_presentation(p, 2), [(p.meridian + 1,), p.longitude], max_cosets=20000)


# (spec, n) drawn by the diagram-move tests
MOVE_ROWS = st.one_of(
    st.sampled_from([(f"rational:{a},{b}", 2) for a in range(3, 16, 2) for b in range(1, a)
                     if gcd(a, b) == 1]),
    st.sampled_from([("catalog:3_1", 3), ("catalog:3_1", 4)]))


def _orders(pd, n):
    """|Q_n|, |G_n| and H2(Q_n) of the diagram; G_n through the simplified
    presentation, since raw HLT takes over 10 s on G_2 of T(2, 13) and T(2, 15)."""
    p = wirtinger_with_peripherals(analyze(pd))
    pres = g_n_presentation(p, n)
    meridian = (p.meridian + 1,)
    table = todd_coxeter(pres, [meridian, p.longitude])
    h2 = quandle_homology(quandle_from_cosets(table, meridian))[1]
    return table.size, enumerate_cosets(pres, []).size, h2


@settings(max_examples=15, deadline=None)
@given(MOVE_ROWS)
def test_reidemeister_one_kink_keeps_orders(row):
    spec, n = row
    pd = resolve_knot_spec(spec).pd
    kinked = connected_sum(pd, parse_pd("X(1,2,2,1)"))
    assert _orders(kinked, n) == _orders(pd, n)


@settings(max_examples=15, deadline=None)
@given(MOVE_ROWS, st.integers(min_value=1))
def test_basepoint_shift_keeps_orders(row, k):
    spec, n = row
    pd = resolve_knot_spec(spec).pd
    labels = 2 * pd.n_crossings
    shifted = PDCode.from_crossings([tuple((v - 1 + k) % labels + 1 for v in c) for c in pd.crossings])
    assert _orders(shifted, n) == _orders(pd, n)
