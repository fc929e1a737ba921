import itertools
import math
import random
from types import SimpleNamespace

import pytest

import qf.homology
from qf import intlinalg
from qf.builders import build_torus
from qf.diagrams import analyze, wirtinger_with_peripherals
from qf.groups import g_n_presentation, quandle_from_cosets, todd_coxeter
from qf.homology import (
    DivisibilityError,
    _ReducedComplex,
    boundaries,
    h2_order_via_extension,
    quandle_homology,
    reduced_boundaries,
)
from qf.intlinalg import (
    AbelianGroup,
    NotAComplex,
    SparseIntMatrix,
    homology_of_pair,
    smith_normal_form,
)
from qf.pipeline import Pipeline
from qf.quandles import (
    AxiomViolation,
    FiniteGroupElementSet,
    FiniteQuandle,
    GroupAutomorphism,
    _generating_set,
    components,
    dihedral_quandle,
    galex,
    is_connected,
    quandle_type,
    trivial_quandle,
)
from qf.verify import CARDINALITY_CASES, H2_CASES, MONTESINOS_CANDIDATES

from test_quandles import brute_force_axioms


def random_quandle(rng: random.Random) -> FiniteQuandle:
    """A random member of a pool of valid constructions, randomly relabelled."""
    kind = rng.choice(["dihedral", "trivial", "galex", "product"])
    if kind == "dihedral":
        q = dihedral_quandle(rng.randint(1, 6))
    elif kind == "trivial":
        q = trivial_quandle(rng.randint(1, 6))
    elif kind == "galex":
        n = rng.randint(2, 6)
        units = [u for u in range(1, n) if __import__("math").gcd(u, n) == 1]
        u = rng.choice(units)
        g = FiniteGroupElementSet.cyclic(n)
        q = galex(g, GroupAutomorphism(g, tuple((u * a) % n for a in range(n))))
    else:
        a = dihedral_quandle(rng.choice([1, 3]))
        b = trivial_quandle(rng.randint(1, 2))
        table = [[0] * (a.size * b.size) for _ in range(a.size * b.size)]
        for x1 in range(a.size):
            for x2 in range(b.size):
                for y1 in range(a.size):
                    for y2 in range(b.size):
                        table[x1 * b.size + x2][y1 * b.size + y2] = \
                            a.op(x1, y1) * b.size + b.op(x2, y2)
        q = FiniteQuandle(table)
    perm = list(range(q.size))
    rng.shuffle(perm)
    inv = [0] * q.size
    for i, p in enumerate(perm):
        inv[p] = i
    return FiniteQuandle([[perm[q.op(inv[x], inv[y])] for y in range(q.size)]
                          for x in range(q.size)])


def enumerated_quandle(q_torus: int, n: int) -> FiniteQuandle:
    per = wirtinger_with_peripherals(analyze(build_torus(2, q_torus)))
    t = todd_coxeter(g_n_presentation(per, n), [(per.meridian + 1,), per.longitude])
    return quandle_from_cosets(t, (per.meridian + 1,))


def test_boundary_shapes():
    s = boundaries(dihedral_quandle(3))
    assert s.d2.rows == 3 and s.d2.cols == 6
    assert s.d3.rows == 6 and s.d3.cols == 12
    assert len(s.basis3) == 3 * 2 * 2
    # every d2 column has one +1 and one -1
    cols = {}
    for row in s.d2.row_dicts:
        for c, v in row.items():
            cols.setdefault(c, []).append(v)
    assert sorted(cols) == list(range(6))
    assert all(sorted(vals) == [-1, 1] for vals in cols.values())


def test_singleton_boundaries_empty():
    s = boundaries(trivial_quandle(1))
    assert s.d2.nnz == 0 and s.d3.nnz == 0
    assert quandle_homology(trivial_quandle(1))[1] == AbelianGroup(0)


def test_d2_d3_composes_to_zero_randomized():
    rng = random.Random(1234)
    for _ in range(100):
        s = boundaries(random_quandle(rng))
        assert s.d2.mul(s.d3).is_zero()


def test_h1_values():
    assert quandle_homology(dihedral_quandle(3))[0] == AbelianGroup(1)
    assert quandle_homology(trivial_quandle(2))[0] == AbelianGroup(2)


def test_h1_counts_the_orbits(reduction_pool):
    # d2' is the incidence matrix of the graph x -> x*w (w in W), whose
    # connected pieces are the orbits, so coker(d2') is free of that rank
    for i, q in enumerate(reduction_pool):
        assert quandle_homology(q)[0] == AbelianGroup(len(components(q))), (i, q.size)


def alexander_quandle(m: int, t: int) -> FiniteQuandle:
    """Z/m with x * y = t x + (1 - t) y, t a unit mod m."""
    return FiniteQuandle([[(t * x + (1 - t) * y) % m for y in range(m)] for x in range(m)])


def disjoint_union(a: FiniteQuandle, b: FiniteQuandle) -> FiniteQuandle:
    """a then b; an element of one acts trivially on the other."""
    k, n = a.size, a.size + b.size

    def op(x, y):
        if x < k and y < k:
            return a.op(x, y)
        if x >= k and y >= k:
            return k + b.op(x - k, y - k)
        return x

    return FiniteQuandle([[op(x, y) for y in range(n)] for x in range(n)])


def test_lemma_5_agrees_with_the_definitions(reduction_pool):
    # components, quandle_type and the factors of d2 read off the R_w, w in W
    # (Lemma 5 of qf.quandles), against all-pairs union-find, the cycles of
    # every column and a Smith normal form of the full d2
    extra = [trivial_quandle(n) for n in (1, 2, 5)] + [dihedral_quandle(n) for n in (4, 6, 9)]
    extra += [alexander_quandle(m, t) for m, t in ((5, 2), (7, 3), (8, 3), (9, 2), (9, 4), (12, 5))]
    # orbits whose translations have different orders: T_1 + R_5 has type 2
    # though its first generator acts trivially
    extra += [disjoint_union(trivial_quandle(1), dihedral_quandle(5)),
              disjoint_union(dihedral_quandle(3), alexander_quandle(5, 2))]
    disconnected = 0
    for i, q in enumerate(reduction_pool + extra):
        n, tab = q.size, q.table
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for x in range(n):
            for y in range(n):
                a, b = sorted((find(x), find(tab[x][y])))
                parent[b] = a
        orbits = {}
        for x in range(n):
            orbits.setdefault(find(x), []).append(x)
        assert components(q) == tuple(tuple(orbits[r]) for r in sorted(orbits)), i

        lengths = set()
        for y in range(n):
            seen = set()
            for x in range(n):
                length = 0
                while x not in seen:
                    seen.add(x)
                    x = tab[x][y]
                    length += 1
                if length:
                    lengths.add(length)
        assert quandle_type(q) == math.lcm(*lengths), i

        snf = smith_normal_form(boundaries(q).d2)
        assert snf.factors == (1,) * (n - len(orbits)), i
        assert quandle_homology(q)[0] == AbelianGroup(n - snf.rank), i
        disconnected += len(orbits) > 1
    assert extra[-6].size == 8 and len(components(extra[-6])) > 1  # Z/8, t = 3
    assert quandle_type(extra[-2]) == 2 and quandle_type(extra[-1]) == 4
    assert disconnected > 10


def test_h1_is_z_for_connected():
    rng = random.Random(99)
    seen_connected = 0
    for _ in range(40):
        q = random_quandle(rng)
        if is_connected(q):
            seen_connected += 1
            assert quandle_homology(q)[0] == AbelianGroup(1)
    assert seen_connected > 5


def test_h2_dihedral_trivial():
    # quandle_homology reduces d3 to 2(p-1) rows and builds only the 2p
    # columns whose first entry is in W (32x34 for R_17, not the 32x272 of
    # all of d3' nor the 272x4352 of the full d3, which
    # test_snf_pivot_sequence_is_pinned reduces); they certify H2 = 0 at
    # every p here (Lemma 4).
    for p in (3, 5, 15, 17):
        assert quandle_homology(dihedral_quandle(p))[1] == AbelianGroup(0), p


# (rows, cols, sum of |entries|) of the dense remainder (rows is the shorter
# side on every row here) and the number of sparse unit pivots in the SNF of
# d3, counted with the row-scan pivot picker
# that the heap replaced (the ("3_1", 4) row by the heap, once the small-block
# dense early exit was removed): another pivot order changes the fill-in and
# with it these figures, and a picker that gives up early leaves fewer unit
# pivots.
PINNED_D3_ELIMINATIONS = {
    ("5_1", 3): ((2, 3424, 57288), 360),
    ("3_1", 5): ((2, 132, 2640), 120),
    ("montesinos:1,1/2,1/3,1/3", 2): ((1, 696, 1724), 120),
    ("3_1", 4): ((1, 12, 48), 24),
    ("R_17", None): ((0, 0, 0), 256),
}


def test_snf_pivot_sequence_is_pinned(monkeypatch):
    # the first Hermite pass sees the remainder oriented so that its rows are
    # the longer side, so its shape reads (k, rows); the rank of its Hermite
    # form is the remainder's
    remainders = []
    hermite = intlinalg.hermite_rows

    def spy(rows, k):
        out = hermite(rows, k)
        shape = (k, len(rows), sum(abs(v) for row in rows for v in row))
        remainders.append((shape, sum(map(any, out))))
        return out

    monkeypatch.setattr(intlinalg, "hermite_rows", spy)
    pipe = Pipeline()
    for (spec, n), (shape, units) in PINNED_D3_ELIMINATIONS.items():
        q = dihedral_quandle(17) if n is None else pipe.quandle(spec, n)[1]
        remainders.clear()
        rank = intlinalg.smith_normal_form(boundaries(q).d3).rank
        got_shape, dense_rank = remainders[0]
        assert (got_shape, rank - dense_rank) == (shape, units), spec


def test_h2_enumerated_trefoil_quandles():
    assert quandle_homology(enumerated_quandle(3, 3))[1] == AbelianGroup(0, (2,))
    assert quandle_homology(enumerated_quandle(3, 4))[1] == AbelianGroup(0, (4,))


def test_h2_is_relabelling_invariant():
    rng = random.Random(5)
    base = enumerated_quandle(3, 3)
    expected = quandle_homology(base)[1]
    for _ in range(5):
        perm = list(range(base.size))
        rng.shuffle(perm)
        inv = [0] * base.size
        for i, p in enumerate(perm):
            inv[p] = i
        table = [[perm[base.op(inv[x], inv[y])] for y in range(base.size)]
                 for x in range(base.size)]
        assert quandle_homology(FiniteQuandle(table))[1] == expected


def test_h2_order_via_extension():
    assert h2_order_via_extension(120, 20) == 6
    assert h2_order_via_extension(8, 4) == 2
    assert h2_order_via_extension(7, 7) == 1
    with pytest.raises(DivisibilityError):
        h2_order_via_extension(10, 4)


@pytest.fixture(scope="module")
def reduction_pool():
    """300 seeded random quandles, the Q_n that the verify table reaches, and R_p for p <= 17."""
    rng = random.Random(2003)
    pool = [random_quandle(rng) for _ in range(300)]
    pipe = Pipeline()
    pool += [pipe.quandle(spec, n)[1] for spec, n, _ in CARDINALITY_CASES]
    pool.append(pipe.quandle(MONTESINOS_CANDIDATES[0], 2)[1])
    pool += [dihedral_quandle(p) for p in range(1, 18)]
    return pool


def test_spanning_triples_keep_the_homology(reduction_pool):
    for i, q in enumerate(reduction_pool):
        s = boundaries(q)
        assert homology_of_pair(s.d2, s.d3) == quandle_homology(q), (i, q.size)


def test_spanning_triples_are_nondegenerate_and_few():
    q = dihedral_quandle(29)
    gens = _generating_set(q)
    assert len(gens) == 2  # any two elements generate R_29
    triples = reduced_boundaries(q).basis3
    assert all(x != y != z and z in gens for x, y, z in triples)
    assert sorted(set(triples)) == list(triples)
    # of the 2 * 28^2 triples ending in W, the 27 * 28 matched ones are gone
    assert len(triples) == 2 * 28 ** 2 - 27 * 28 == 29 * 28


def test_reduced_shapes_and_pivots(reduction_pool):
    # rows: the |W|(n-1) pairs ending in W; one pivot per other pair, so the
    # matched pivots and rank(d3') add up to the rank of the full d3
    for i, q in enumerate(reduction_pool):
        gens = _generating_set(q)
        n, w = q.size, len(gens)
        s = reduced_boundaries(q)
        assert all(z in gens for _, z in s.basis2)
        assert (s.d2.rows, s.d2.cols) == (n, w * (n - 1)), i
        assert (s.d3.rows, s.d3.cols) == (w * (n - 1), n * (n - 1) * (w - 1)), i
        matched = (n - w) * (n - 1)
        rank = intlinalg.smith_normal_form(s.d3).rank
        assert matched + rank == intlinalg.smith_normal_form(boundaries(q).d3).rank, i
    s = reduced_boundaries(dihedral_quandle(29))
    assert (s.d3.rows, s.d3.cols) == (56, 812)


def test_reduced_homology_matches_the_full_complex():
    pipe = Pipeline()
    quandles = [dihedral_quandle(p) for p in range(19, 30, 2)]  # homology_warm's heavy rows
    quandles += [pipe.quandle(spec, n)[1] for spec, n, _ in H2_CASES]
    quandles.append(pipe.quandle(MONTESINOS_CANDIDATES[0], 2)[1])
    for q in quandles:
        full, reduced = boundaries(q), reduced_boundaries(q)
        assert homology_of_pair(full.d2, full.d3) == homology_of_pair(reduced.d2, reduced.d3), q.size


def spy_on_batches(monkeypatch) -> list:
    """(xs, basis3, d3) of every batch of d3' columns that is built."""
    batches = []
    build = _ReducedComplex.d3_columns

    def spy(self, xs, after=None):
        basis3, d3 = build(self, xs, after)
        batches.append((tuple(xs), basis3, d3))
        return basis3, d3

    monkeypatch.setattr(_ReducedComplex, "d3_columns", spy)
    return batches


def test_w_first_columns_certify_h2_zero(monkeypatch):
    # Lemma 4 on R_29: the 58 columns (x, y, w) with x in W give H2 = 0 alone,
    # so the other 754 columns of d3' are never built
    batches = spy_on_batches(monkeypatch)
    q = dihedral_quandle(29)
    assert quandle_homology(q)[1] == AbelianGroup(0)
    (xs, basis3, d3), = batches
    assert sorted(xs) == sorted(q.generators)
    assert (d3.rows, d3.cols, d3.nnz) == (56, 58, 180) and len(basis3) == 58


def test_w_first_certificate_does_not_fire_where_h2_is_not_zero(monkeypatch):
    pipe = Pipeline()
    q = pipe.quandle("3_1", 4)[1]
    s = reduced_boundaries(q)
    batches = spy_on_batches(monkeypatch)
    assert quandle_homology(q) == homology_of_pair(s.d2, s.d3) == (AbelianGroup(1), AbelianGroup(0, (4,)))
    (_, first, w_first), (_, rest, d3) = batches
    # the W-first columns have rank 4, all of d3' rank 5
    assert intlinalg.smith_normal_form(w_first).rank == 4
    assert intlinalg.smith_normal_form(d3).rank == 5
    assert sorted(first + rest) == list(s.basis3) and d3.cols == len(s.basis3)
    # T_2: W is the whole quandle, so the W-first columns are all of d3', and
    # H2 = Z^2 is free
    batches.clear()
    s = boundaries(trivial_quandle(2))
    assert quandle_homology(trivial_quandle(2)) == homology_of_pair(s.d2, s.d3)
    assert homology_of_pair(s.d2, s.d3)[1] == AbelianGroup(2) and len(batches) == 1


def test_quandle_homology_builds_each_column_once(reduction_pool, monkeypatch):
    batches = spy_on_batches(monkeypatch)
    snfs = []
    snf = intlinalg.smith_normal_form
    monkeypatch.setattr(qf.homology, "smith_normal_form", lambda m: snfs.append(m) or snf(m))
    fell_back = 0
    for i, q in enumerate(reduction_pool):
        batches.clear()
        snfs.clear()
        h2 = quandle_homology(q)[1]
        gens = set(q.generators)
        (xs, first, _), *rest = batches
        assert set(xs) == gens, i
        # one Smith normal form per batch, of the batch's own matrix, so none
        # of d2', whose factors are read off the orbits (Lemma 5c)
        assert list(map(id, snfs)) == [id(d3) for _, _, d3 in batches], i
        if not rest:
            # certified (or W is all of q): stage 1 is every column read
            assert h2 == AbelianGroup(0) or gens == set(range(q.size)), i
            continue
        fell_back += 1
        (others, second, d3), = rest
        assert not gens & set(others) and len(set(first + second)) == len(first) + len(second), i
        assert sorted(first + second) == list(reduced_boundaries(q).basis3), i
        assert d3.cols == len(first) + len(second), i
    assert 0 < fell_back < len(reduction_pool)


def test_d3_kills_d4(reduction_pool):
    # d4(x,y,z,w) = t - t.w + (x,z,w) - (x*y,z,w) - (x,y,w) + (x*z,y*z,w) with
    # t = (x,y,z) and t.w = (x*w,y*w,z*w): the identity behind Lemma 1.
    rng = random.Random(406)
    checked = 0
    for q in reduction_pool:
        if q.size < 2:
            continue
        s = boundaries(q)
        column = {t: {} for t in s.basis3}
        for r, row in enumerate(s.d3.row_dicts):
            for c, v in row.items():
                column[s.basis3[c]][r] = v
        op = q.op
        for _ in range(5):
            x, y, z, w = (rng.randrange(q.size) for _ in range(4))
            if x == y or y == z or z == w:
                continue
            d4 = ((1, (x, y, z)), (-1, (op(x, w), op(y, w), op(z, w))),
                  (1, (x, z, w)), (-1, (op(x, y), z, w)),
                  (-1, (x, y, w)), (1, (op(x, z), op(y, z), w)))
            total: dict[int, int] = {}
            for sign, t in d4:
                for r, v in column.get(t, {}).items():  # degenerate faces are zero
                    total[r] = total.get(r, 0) + sign * v
            assert not any(total.values()), (q.table, (x, y, z, w))
            checked += 1
    assert checked > 500


def test_non_distributive_table_is_not_a_complex():
    # idempotent with bijective columns, but (0*1)*2 = 2 while (0*2)*(1*2) = 1
    table = ((0, 2, 1), (1, 1, 0), (2, 0, 2))
    with pytest.raises(AxiomViolation) as err:
        FiniteQuandle(table)
    assert err.value.axiom == "distributivity"
    x, y, z = err.value.witness
    assert table[table[x][y]][z] != table[table[x][z]][table[y][z]]
    # the full complex of the bare table, which FiniteQuandle refuses
    s = boundaries(SimpleNamespace(size=3, table=table))
    with pytest.raises(NotAComplex):
        homology_of_pair(s.d2, s.d3)


def test_reduced_pair_is_checked_as_a_complex(monkeypatch):
    # the d2' d3' = 0 check (check_complex, which quandle_homology also runs)
    # is live: one changed entry of d3' breaks it, whether it changes a stored
    # entry or adds one
    s = reduced_boundaries(dihedral_quandle(7))
    assert homology_of_pair(s.d2, s.d3)[1] == AbelianGroup(0)
    rng = random.Random(7)
    for _ in range(20):
        rows = [dict(row) for row in s.d3.row_dicts]
        r, c = rng.randrange(s.d3.rows), rng.randrange(s.d3.cols)
        rows[r][c] = rows[r].get(c, 0) + rng.choice([-2, -1, 1, 2])
        rows[r] = {k: v for k, v in rows[r].items() if v}
        with pytest.raises(NotAComplex):
            homology_of_pair(s.d2, SparseIntMatrix(s.d3.rows, s.d3.cols, rows))

    # quandle_homology checks the columns it reads, where the W-first ones
    # certify H2 = 0 (R_7) and where it builds all of d3' (Q_4(3_1))
    build = _ReducedComplex.d3_columns

    def one_entry_off(self, xs, after=None):
        basis3, d3 = build(self, xs, after)
        rows = [dict(row) for row in d3.row_dicts]
        # a row (x, w) with x*w != x, so that d2' sees the change
        r = next(i for i, (x, w) in enumerate(self.basis2) if self.q.table[x][w] != x)
        rows[r][0] = rows[r].get(0, 0) + 1 or 1
        return basis3, SparseIntMatrix(d3.rows, d3.cols, rows)

    monkeypatch.setattr(_ReducedComplex, "d3_columns", one_entry_off)
    for q in (dihedral_quandle(7), Pipeline().quandle("3_1", 4)[1]):
        with pytest.raises(NotAComplex):
            quandle_homology(q)


def test_spanning_triples_check_distributivity_in_full():
    # Every idempotent, column-bijective table of order <= 4: the check on the
    # triples ending in the generating set (Lemma 2 of qf.quandles) accepts
    # exactly the tables that pass the check over every triple.
    for n in range(1, 5):
        columns = [[p for p in itertools.permutations(range(n)) if p[y] == y]
                   for y in range(n)]
        for choice in itertools.product(*columns):
            table = [[choice[y][x] for y in range(n)] for x in range(n)]
            try:
                FiniteQuandle(table)
                accepted = True
            except AxiomViolation as err:
                assert err.axiom == "distributivity", table
                accepted = False
            assert accepted == brute_force_axioms(table), table
