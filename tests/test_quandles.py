import itertools
from typing import NamedTuple

import pytest

from qf.quandles import (
    AxiomViolation,
    ExtensionWitness,
    FiniteQuandle,
    MalformedWitness,
    check_relators,
    components,
    dihedral_quandle,
    is_connected,
    quandle_type,
    trivial_quandle,
    verify_extension,
)


def brute_force_axioms(table):
    """Independent axiom oracle: direct triple loops over the table."""
    n = len(table)
    for x in range(n):
        if table[x][x] != x:
            return False
    for y in range(n):
        if sorted(table[x][y] for x in range(n)) != list(range(n)):
            return False
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[table[x][z]][table[y][z]]:
                    return False
    return True


class CoverReference(NamedTuple):
    """pi1(M_n) of a ``BranchedCover`` as plain tables, with no check."""
    mult: list[list[int]]  # mult[x][y] = x y
    identity: int
    inv: list[int]
    phi: list[int]  # phi(x) = m^-1 x m
    longitude: int

    @property
    def order(self) -> int:
        return len(self.mult)

    def galex(self) -> list[list[int]]:
        """GAlex(pi1, phi): x * y = phi(x y^-1) y."""
        mult, inv, phi = self.mult, self.inv, self.phi
        rng = range(self.order)
        return [[mult[phi[mult[x][inv[y]]]][y] for y in rng] for x in rng]


def cover_reference(cover) -> CoverReference:
    """The reference that the column view of a cover is compared with. The
    element x is the grade-0 element m^-k rep_x of coset x of G_n's table
    over <m>, k the exponent sum of rep_x; x y is the coset that the word of
    y walks to from x, and phi(x) = m^-1 x m the coset x m."""
    t, n, m = cover.table, cover.n, cover.peripherals.meridian + 1
    cosets = range(t.size)
    columns = [t.walk(cosets, (-m,) * (sum(1 if x > 0 else -1 for x in rep) % n) + rep)
               for rep in t.rep_words]
    mult = [list(row) for row in zip(*columns)]
    return CoverReference(mult, 0, [row.index(0) for row in mult], t.walk(cosets, (m,)),
                          t.coset_of_word(cover.peripherals.longitude))


def alexander_quandle(m: int, t: int) -> FiniteQuandle:
    """Z/m with x * y = t x + (1 - t) y, t a unit mod m: GAlex(Z/m, x -> t x)."""
    return FiniteQuandle([[(t * x + (1 - t) * y) % m for y in range(m)] for x in range(m)])


def test_singleton():
    q = FiniteQuandle([[0]])
    assert q.size == 1
    assert quandle_type(q) == 1
    assert components(q) == ((0,),)


def test_dihedral_r3():
    table = [[(2 * y - x) % 3 for y in range(3)] for x in range(3)]
    assert brute_force_axioms(table)
    q = FiniteQuandle(table)
    assert quandle_type(q) == 2
    assert components(q) == ((0, 1, 2),)
    assert is_connected(q)


def test_axiom_violations_name_the_witness():
    with pytest.raises(AxiomViolation) as err:
        FiniteQuandle([[0, 0], [0, 1]])
    assert err.value.axiom == "bijectivity"
    with pytest.raises(AxiomViolation) as err:
        FiniteQuandle([[1, 1], [0, 0]])
    assert err.value.axiom == "idempotence"
    # idempotent, columns bijective, but (0*1)*0 = 1 while (0*0)*(1*0) = 0
    table = [
        [0, 2, 0],
        [2, 1, 1],
        [1, 0, 2],
    ]
    with pytest.raises(AxiomViolation) as err:
        FiniteQuandle(table)
    assert err.value.axiom == "distributivity"
    x, y, z = err.value.witness
    assert table[table[x][y]][z] != table[table[x][z]][table[y][z]]


def test_trivial_quandle_components():
    q = trivial_quandle(2)
    assert quandle_type(q) == 1
    assert components(q) == ((0,), (1,))


def test_inverse_table():
    q = dihedral_quandle(5)
    for x in range(5):
        for y in range(5):
            assert q.op(q.inverse_table[x][y], y) == x
            assert q.inverse_table[q.op(x, y)][y] == x


def test_pow_op():
    q = dihedral_quandle(3)
    for x in range(3):
        for y in range(3):
            assert q.pow_op(x, y, 2) == x
            assert q.pow_op(x, y, -1) == q.op(x, y)
            assert q.pow_op(x, y, 0) == x


def test_galex_identity_gives_trivial():
    assert alexander_quandle(5, 1) == trivial_quandle(5)


def test_galex_negation_is_r3():
    q = alexander_quandle(3, 2)  # GAlex(Z/3, -1)
    # brute-force isomorphism search over all 3! bijections
    r3 = dihedral_quandle(3)
    found = [p for p in itertools.permutations(range(3))
             if all(p[q.op(x, y)] == r3.op(p[x], p[y]) for x in range(3) for y in range(3))]
    assert found


def test_verify_extension_trivial():
    q = dihedral_quandle(3)
    w = ExtensionWitness(q, q, tuple(range(3)), 1, tuple(range(3)))
    report = verify_extension(w)
    assert report.ok


def test_verify_extension_bad_action():
    total = trivial_quandle(4)
    base = trivial_quandle(2)
    good = ExtensionWitness(total, base, (0, 0, 1, 1), 2, (1, 0, 3, 2))
    assert verify_extension(good).ok
    # same data but the action hops between fibers
    bad = ExtensionWitness(total, base, (0, 0, 1, 1), 2, (2, 3, 0, 1))
    report = verify_extension(bad)
    assert not report.e2
    assert not report.ok


def test_action_order_is_the_order_of_the_permutation():
    # cycle type (3, 4) on 7 points: order 12, more than the number of points
    total = trivial_quandle(7)
    action = (1, 2, 0, 4, 5, 6, 3)
    for group_order, matches in ((12, True), (6, False)):
        w = ExtensionWitness(total, trivial_quandle(1), (0,) * 7, group_order, action)
        assert verify_extension(w).action_order_matches is matches


def test_verify_extension_malformed():
    q = dihedral_quandle(3)
    with pytest.raises(MalformedWitness):
        verify_extension(ExtensionWitness(q, q, (0, 1), 1, (0, 1, 2)))
    with pytest.raises(MalformedWitness):
        verify_extension(ExtensionWitness(q, q, (0, 1, 2), 1, (0, 0, 2)))


def test_check_relators():
    # Alexander quandle x * y = 2x - y on Z/5: translations of order 4, so the
    # sign of k, the order of a chain and the ends of a relator all matter
    q = alexander_quandle(5, 2)
    ids = range(5)  # generator i is element i
    assert check_relators(q, ids, [(1, ((2, 1),), 0)])  # 1 * 2 = 0
    assert not check_relators(q, ids, [(0, ((2, 1),), 1)])
    assert check_relators(q, ids, [(1, ((2, -1),), 4), (1, ((2, 4),), 1), (3, (), 3)])
    assert not check_relators(q, ids, [(1, ((2, 1),), 4)])
    assert check_relators(q, (1, 2, 0), [(0, ((1, 1),), 2)])  # generators are 1, 2, 0
    for bad in [(0, ((5, 1),), 0), (0, ((-1, 1),), 0), (-1, (), 4), (0, (), 5)]:
        with pytest.raises(ValueError, match="generator"):
            check_relators(q, ids, [bad])


def test_check_relators_left_association():
    q = alexander_quandle(5, 2)
    ids = range(5)
    # chains associate to the left: (1 * 2) * 3 = 2, while 1 * (2 * 3) = 1
    assert check_relators(q, ids, [(1, ((2, 1), (3, 1)), 2)])
    assert not check_relators(q, ids, [(1, ((2, 1), (3, 1)), 1)])
    # a * (b * c) = ((a *^-1 c) * b) * c
    assert check_relators(q, ids, [(1, ((3, -1), (2, 1), (3, 1)), 1)])


def test_type_divides_surjection_target():
    # type of a homomorphic image divides the type of the source: GAlex(Z/8, -1)
    # is the dihedral quandle R_8, and x -> x mod 4 maps it onto R_4
    total = alexander_quandle(8, 7)
    base = dihedral_quandle(4)
    assert all(total.op(x, y) % 4 == base.op(x % 4, y % 4) for x in range(8) for y in range(8))
    assert quandle_type(base) in (1, 2, 4, 8)
    assert quandle_type(total) % quandle_type(base) == 0


def test_generating_sets_are_pinned():
    # the greedy W of _generating_set, read through column(); the reduced
    # complex of qf.homology and the extension witness are built on it
    from qf.pipeline import Pipeline
    assert [dihedral_quandle(k).generators for k in (9, 17, 29)] == [(0, 1)] * 3
    pipe = Pipeline()
    assert pipe.quandle("catalog:3_1", 5)[1].generators == (0, 1)
    assert pipe.quandle("catalog:5_1", 3)[1].generators == (0, 10)
    assert pipe.quandle("montesinos:1,1/2,1/3,1/3", 2)[1].generators == (0, 1, 5)
