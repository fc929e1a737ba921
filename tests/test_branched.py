from dataclasses import replace

import pytest

from qf.builders import build_rational, build_torus
from qf.diagrams import analyze, wirtinger_with_peripherals
from qf.groups import (
    Overflow,
    branched_cover,
    g_n_presentation,
    quandle_from_cosets,
    todd_coxeter,
)
from qf.pipeline import Pipeline
from qf.quandles import ExtensionWitness, FiniteQuandle, quandle_type, verify_extension
from qf.verify import LONGITUDE_CASES, MODEL_CASES, _projection_witness

from test_quandles import cover_reference

TREFOIL = build_torus(2, 3)
CINQUEFOIL = build_torus(2, 5)


def element_order(g, x):
    """Least k >= 1 with x^k = identity: the reference for the orbit order of qf."""
    k = 1
    y = x
    while y != g.identity:
        y = g.mult[y][x]
        k += 1
    return k


def peripherals(pd):
    return wirtinger_with_peripherals(analyze(pd))


def cover(per, n, max_cosets=10 ** 6):
    """The cover read off G_n's table over <m>, enumerated by raw HLT."""
    table = todd_coxeter(g_n_presentation(per, n), [(per.meridian + 1,)], max_cosets)
    return branched_cover(per, n, table)


def branched(per, n):
    return cover_reference(cover(per, n))


def galex(g):
    return FiniteQuandle(g.galex())


def enumerated(per, n):
    t = todd_coxeter(g_n_presentation(per, n), [(per.meridian + 1,), per.longitude])
    return t, quandle_from_cosets(t, (per.meridian + 1,))


def natural_projection(per, n):
    """pi1(M_n) with phi and l, Q_n, and the projection x -> <m, l> x between them."""
    data = cover(per, n)
    q_table, q_enum = enumerated(per, n)
    return cover_reference(data), q_enum, tuple(map(q_table.coset_of_word, data.table.rep_words))


def is_homomorphism(p, total, base):
    rng = range(total.size)
    return all(p[total.op(x, y)] == base.op(p[x], p[y]) for x in rng for y in rng)


def test_trefoil_n3_branched_data():
    per = peripherals(TREFOIL)
    g = branched(per, 3)
    assert g.order == 8
    assert g.phi[g.longitude] == g.longitude
    assert element_order(g, g.longitude) == 2


def test_trefoil_n5_branched_data():
    per = peripherals(TREFOIL)
    g = branched(per, 5)
    assert g.order == 120
    assert element_order(g, g.longitude) == 10


def test_cinquefoil_gn_order():
    per = peripherals(CINQUEFOIL)
    pres = g_n_presentation(per, 3)
    assert todd_coxeter(pres, []).size == 360
    g = branched(per, 3)
    assert g.order == 120
    assert element_order(g, g.longitude) == 6


def test_two_bridge_longitude_trivial():
    per = peripherals(build_rational(5, 1))
    g = branched(per, 2)
    assert g.order == 5
    assert g.longitude == g.identity


@pytest.mark.parametrize("alpha", range(13, 30, 2))
def test_torus_diagram_double_covers_through_the_pipeline(alpha):
    # the diagrams on which raw HLT blew up: G_2 has order 2 alpha, the double
    # branched cover is the lens space L(alpha, 1) and the longitude is trivial
    pipe = Pipeline()
    for beta in (1, alpha - 1):
        data = pipe.branched(f"rational:{alpha},{beta}", 2)
        assert (data.gn_order, cover_reference(data).order, data.longitude_order) == \
            (2 * alpha, alpha, 1)


def test_galex_on_branched_cover_type():
    # the twist-spin quandle on pi_1(M^3) has 8 elements and type 3
    per = peripherals(TREFOIL)
    q = galex(branched(per, 3))
    assert q.size == 8
    assert quandle_type(q) == 3


def test_coset_model_matches_enumeration():
    # the lemma of qf.verify by brute force: the projection is a homomorphism from
    # GAlex onto Q_n whose fibres are the right cosets <l> x, so it factors through
    # an isomorphism from the coset quandle
    per = peripherals(TREFOIL)
    g, q_enum, p = natural_projection(per, 3)
    sub = [g.identity, g.longitude]
    assert element_order(g, g.longitude) == 2
    assert is_homomorphism(p, galex(g), q_enum)
    fibres = {frozenset(x for x in range(g.order) if p[x] == b) for b in range(q_enum.size)}
    assert fibres == {frozenset(g.mult[a][x] for a in sub) for x in range(g.order)}
    assert len(fibres) == q_enum.size == 4


def test_remark_trivial_longitude_collapses_extension():
    # for a 2-bridge knot at n = 2 the longitude dies, so the projection is an
    # isomorphism from the twist-spin quandle onto the knot 2-quandle itself
    per = peripherals(build_rational(7, 3))
    g, q_enum, p = natural_projection(per, 2)
    assert g.longitude == g.identity
    assert sorted(p) == list(range(q_enum.size))
    assert is_homomorphism(p, galex(g), q_enum)


def test_extension_witness_and_type_transfer():
    per = peripherals(TREFOIL)
    for n in (3, 4):
        g, q_enum, p = natural_projection(per, n)
        total = galex(g)
        witness = ExtensionWitness(total, q_enum, p, element_order(g, g.longitude),
                                   tuple(g.mult[g.longitude]))
        assert verify_extension(witness).ok
        # covering with connected total: source and target types agree
        assert quandle_type(total) == quandle_type(q_enum) == n


def test_finiteness_equivalence_on_composite():
    from qf.diagrams import connected_sum
    granny = connected_sum(TREFOIL, TREFOIL)
    per = peripherals(granny)
    # both the quandle enumeration and the group enumeration must blow up
    with pytest.raises(Overflow):
        todd_coxeter(g_n_presentation(per, 2), [(per.meridian + 1,), per.longitude],
                     max_cosets=30000)
    with pytest.raises(Overflow):
        cover(per, 2, max_cosets=30000)


@pytest.mark.parametrize("spec, n, want", LONGITUDE_CASES)
def test_orbit_orders_match_the_group(spec, n, want):
    # the rows read |pi1| and ord(l) off the orbit of coset 0; the group built
    # from the same table is the reference (LONGITUDE_CASES has 5_1 n=3 and 3_1 n=5)
    data = Pipeline().branched(spec, n)
    g = cover_reference(data)
    assert data.longitude_order == element_order(g, g.longitude) == want
    assert data.pi1_order == g.order == data.gn_order // n


def brute_force_hom_and_e1(w, total):
    """The homomorphism and (E1) over every pair (x, y), as defined, on the
    full table of the witness's total quandle, ``total``."""
    tt, tb, p, lam = total.table, w.base.table, w.projection, w.action
    pairs = [(x, y) for x in range(w.total.size) for y in range(w.total.size)]
    return (all(p[tt[x][y]] == tb[p[x]][p[y]] for x, y in pairs),
            all(lam[tt[x][y]] == tt[lam[x]][y] and tt[x][lam[y]] == tt[x][y] for x, y in pairs))


def test_extension_checked_on_w_rejects_a_corruption_outside_w():
    # verify_extension checks the homomorphism and (E1) for y in W only
    # (Lemma 5d, 5e of qf.quandles); a witness wrong at one element outside W
    # must still fail, in the projection and in the action
    pipe = Pipeline()
    w = _projection_witness(pipe, "catalog:3_1", 4)
    data = pipe.branched("catalog:3_1", 4)
    total = galex(cover_reference(data))
    assert verify_extension(w).ok and brute_force_hom_and_e1(w, total) == (True, True)
    outside = [x for x in range(w.total.size) if x not in w.total.generators]
    assert len(outside) == w.total.size - len(w.total.generators) > 1
    for z, other in zip(outside, outside[1:] + outside[:1]):
        p = list(w.projection)
        p[z] = (p[z] + 1) % w.base.size
        bad = replace(w, projection=tuple(p))
        report = verify_extension(bad)
        assert not report.projection_is_homomorphism and not report.ok, z
        assert not brute_force_hom_and_e1(bad, total)[0], z

        lam = list(w.action)
        lam[z], lam[other] = lam[other], lam[z]
        bad = replace(w, action=tuple(lam))
        report = verify_extension(bad)
        assert not report.e1 and not report.ok, z
        assert not brute_force_hom_and_e1(bad, total)[1], z


@pytest.mark.parametrize("spec, n", [*MODEL_CASES, ("montesinos:1,1/2,1/3,1/3", 2)])
def test_witness_read_off_the_table_matches_galex(spec, n):
    # the witness reads GAlex(pi1, phi) column by column and x -> l x off G_n's
    # table over <m>, and the projection along its tree; the reference is
    # GAlex on the Cayley table of pi1, its row of l, and one walk per element
    pipe = Pipeline()
    w = _projection_witness(pipe, spec, n)
    data = pipe.branched(spec, n)
    q_table, _ = pipe.quandle(spec, n)
    g = cover_reference(data)
    view, total = data.galex, galex(g)
    assert w.total is view
    assert (view.size, view.generators) == (total.size, total.generators)
    assert w.projection == tuple(map(q_table.coset_of_word, data.table.rep_words))
    assert w.action == data.longitude_action == tuple(g.mult[g.longitude])
    read = {*view.generators, *(w.action[y] for y in view.generators)}
    for y in sorted(read):
        assert view.column(y) == total.column(y), y
    # the witness check reads a few columns, not the table
    assert verify_extension(w).ok
    assert len(view._columns) <= max(8, view.size // 2)
