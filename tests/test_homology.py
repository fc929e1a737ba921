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
    check_complex,
    homology_of_pair,
    smith_normal_form,
)
from qf.pipeline import Pipeline
from qf.quandles import (
    AxiomViolation,
    FiniteQuandle,
    _generating_set,
    components,
    dihedral_quandle,
    is_connected,
    quandle_type,
    trivial_quandle,
)
from qf.verify import CARDINALITY_CASES, H2_CASES, MONTESINOS_CANDIDATES

from test_quandles import alexander_quandle, brute_force_axioms


def random_quandle(rng: random.Random) -> FiniteQuandle:
    """A random member of a pool of valid constructions, randomly relabelled."""
    kind = rng.choice(["dihedral", "trivial", "galex", "product"])
    if kind == "dihedral":
        q = dihedral_quandle(rng.randint(1, 6))
    elif kind == "trivial":
        q = trivial_quandle(rng.randint(1, 6))
    elif kind == "galex":
        n = rng.randint(2, 6)
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        u = rng.choice(units)
        q = alexander_quandle(n, u)
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
        check_complex(s.d2, s.d3)


def test_h1_values():
    assert quandle_homology(dihedral_quandle(3))[0] == AbelianGroup(1)
    assert quandle_homology(trivial_quandle(2))[0] == AbelianGroup(2)


def test_h1_counts_the_orbits(reduction_pool):
    # d2' is the incidence matrix of the graph x -> x*w (w in W), whose
    # connected pieces are the orbits, so coker(d2') is free of that rank
    for i, q in enumerate(reduction_pool):
        assert quandle_homology(q)[0] == AbelianGroup(len(components(q))), (i, q.size)


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


def orbits_by_union_find(q: FiniteQuandle) -> tuple[tuple[int, ...], ...]:
    """The orbits of Inn(Q), by union-find over all pairs (x, x*y)."""
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
    return tuple(tuple(orbits[r]) for r in sorted(orbits))


def type_over_all_columns(q: FiniteQuandle) -> int:
    """The lcm of the cycle lengths of every column x -> x*y."""
    n, tab = q.size, q.table
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
    return math.lcm(*lengths)


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
        n = q.size
        orbits = orbits_by_union_find(q)
        assert components(q) == orbits, i
        assert quandle_type(q) == type_over_all_columns(q), i
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


def test_lemma_6_matches_the_full_complex():
    # every Alexander quandle Z/m, x * y = a x + (1 - a) y, with m <= 15 and a
    # a unit; the reduction pool is compared in the test above
    quandles = [alexander_quandle(m, a) for m in range(2, 16) for a in range(1, m)
                if math.gcd(a, m) == 1]
    torsion = 0
    for q in quandles:
        s = boundaries(q)
        h = quandle_homology(q)
        assert h == homology_of_pair(s.d2, s.d3), q.table
        torsion += bool(h[1].torsion)
    assert len(quandles) == 71 and torsion == 8


# (spec, n): shapes of the Smith forms that quandle_homology takes, the
# columns of all of d3' and H2. The last Smith form is that of Lemma 6, on one
# column per torsion entry of the one before; none is of all of d3'.
LEMMA_6_PATHS = {
    ("5_1", 3): ([(38, 40), (1, 1)], 380, AbelianGroup(0, (6,))),
    (MONTESINOS_CANDIDATES[0], 2): ([(33, 70), (1, 1)], 264, AbelianGroup(0, (2,))),
    ("3_1", 4): ([(10, 12), (10, 22), (1, 1)], 30, AbelianGroup(0, (4,))),
    ("3_1", 5): ([(22, 24), (22, 46), (1, 1)], 132, AbelianGroup(0, (10,))),
}


def test_h2_is_read_off_one_smith_form_per_layer(monkeypatch):
    batches = spy_on_batches(monkeypatch)
    matrices = spy_on_smith_forms(monkeypatch)
    mapped = spy_on_images(monkeypatch)
    pipe = Pipeline()
    for (spec, n), (shapes, cols, h2) in LEMMA_6_PATHS.items():
        q = pipe.quandle(spec, n)[1]
        batches.clear()
        matrices.clear()
        mapped.clear()
        assert quandle_homology(q)[1] == h2, spec
        assert [(m.rows, m.cols) for m in matrices] == shapes, spec
        # one batch per Smith form of S; the other columns are never built,
        # but mapped into its torsion once, and together they are all of d3'
        (_, _, _, images), = mapped
        assert len(batches) == len(shapes) - 1, spec
        assert batches[-1][2].cols + len(images) == cols, spec


def test_lemma_6_maps_the_other_columns_into_the_torsion(monkeypatch):
    # On every quandle above, the columns that reach rank ker(d2') already
    # span im(d3'), so each phi(c) is 0. Doubling them all puts a Z/2 per
    # unit of rank into T that only mapped columns can remove: the columns
    # as they were are mapped with the others, and H2 must not change.
    build, images = _ReducedComplex.d3_columns, _ReducedComplex.torsion_images

    def doubled(self, xs, after=None):
        assert after is None  # S is the first batch on each of these rows
        basis3, d3 = build(self, xs)
        return basis3, SparseIntMatrix(d3.rows, d3.cols, [
            {c: 2 * v for c, v in row.items()} for row in d3.row_dicts])

    def with_s(self, xs, torsion_map):
        return images(self, range(self.q.size), torsion_map)

    pipe = Pipeline()
    quandles = [dihedral_quandle(7), pipe.quandle("5_1", 3)[1],
                pipe.quandle(MONTESINOS_CANDIDATES[0], 2)[1]]
    expected = [quandle_homology(q) for q in quandles]
    monkeypatch.setattr(_ReducedComplex, "d3_columns", doubled)
    monkeypatch.setattr(_ReducedComplex, "torsion_images", with_s)
    batches = spy_on_batches(monkeypatch)
    mapped = spy_on_images(monkeypatch)
    for q, h in zip(quandles, expected):
        batches.clear()
        mapped.clear()
        assert quandle_homology(q) == h, q.size
        # R_7's S now has torsion, so it maps too; the images of S's own
        # columns are what kill the Z/2
        (_, _, _, got), = mapped
        assert len(batches) == 1 and any(got), q.size


def test_torsion_images_are_those_of_the_columns(reduction_pool, monkeypatch):
    # The image of each kept triple read off the tables of Lemma 7 is u . c
    # mod d for its column c of d3': for every torsion pair (d, u) of S on
    # every quandle that reaches Lemma 6 (the five paper rows with H2 != 0,
    # all in the reduction pool), and for a random pair on every quandle, as
    # the true images are all 0. Every tree step passes its check.
    quandles = reduction_pool + [alexander_quandle(m, a) for m in range(2, 16)
                                 for a in range(1, m) if math.gcd(a, m) == 1]
    images_of = _ReducedComplex.torsion_images
    calls = spy_on_images(monkeypatch)
    rng = random.Random(2312)
    reached, nonzero = set(), 0
    for i, q in enumerate(quandles):
        calls.clear()
        h2 = quandle_homology(q)[1]
        c, torsion_map = (calls[0][0], calls[0][2]) if calls else (_ReducedComplex(q), ())
        if calls:
            reached.add((q.size, h2))
        s = reduced_boundaries(q)
        columns: list[dict[int, int]] = [{} for _ in range(s.d3.cols)]
        for r, row in enumerate(s.d3.row_dicts):
            for col, v in row.items():
                columns[col][r] = v
        pairs = (*torsion_map, (1_000_003, {r: rng.randint(-50, 50) for r in range(s.d3.rows)}))
        got = images_of(c, range(q.size), pairs)
        assert len(got) == len(columns), i
        for col, image in zip(columns, got):
            for k, (d, u) in enumerate(pairs):
                assert image.get(k, 0) == sum(u.get(r, 0) * v for r, v in col.items()) % d, (i, k)
        nonzero += sum(len(pairs) - 1 in image for image in got)
    assert reached == {(4, AbelianGroup(0, (2,))), (6, AbelianGroup(0, (4,))),
                       (12, AbelianGroup(0, (10,))), (20, AbelianGroup(0, (6,))),
                       (12, AbelianGroup(0, (2,)))}
    assert nonzero > 10_000


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


def spy_on_images(monkeypatch) -> list:
    """(complex, xs, torsion_map, images) of every call of torsion_images."""
    calls = []
    images = _ReducedComplex.torsion_images

    def spy(self, xs, torsion_map):
        got = images(self, xs, torsion_map)
        calls.append((self, tuple(xs), torsion_map, got))
        return got

    monkeypatch.setattr(_ReducedComplex, "torsion_images", spy)
    return calls


def test_w_first_columns_certify_h2_zero(monkeypatch):
    # Lemma 4 on R_29: the 58 columns (x, y, w) with x in W give H2 = 0 alone,
    # so the other 754 columns of d3' are never built, and theirs is the one
    # Smith form taken
    batches = spy_on_batches(monkeypatch)
    matrices = spy_on_smith_forms(monkeypatch)
    q = dihedral_quandle(29)
    assert quandle_homology(q)[1] == AbelianGroup(0)
    (xs, basis3, d3), = batches
    assert matrices == [d3]
    assert sorted(xs) == sorted(q.generators)
    assert (d3.rows, d3.cols, d3.nnz) == (56, 58, 180) and len(basis3) == 58


def test_w_first_certificate_does_not_fire_where_h2_is_not_zero(monkeypatch):
    pipe = Pipeline()
    q = pipe.quandle("3_1", 4)[1]
    s = reduced_boundaries(q)
    batches = spy_on_batches(monkeypatch)
    mapped = spy_on_images(monkeypatch)
    assert quandle_homology(q) == homology_of_pair(s.d2, s.d3) == (AbelianGroup(1), AbelianGroup(0, (4,)))
    (_, first, w_first), (_, layer, grown) = batches
    # the W-first columns have rank 4; with the first entries at depth 1 they
    # reach rank ker(d2') = 5, that of all of d3'. No column deeper than that
    # layer is built: the rest are mapped, one image per kept triple
    assert intlinalg.smith_normal_form(w_first).rank == 4
    assert intlinalg.smith_normal_form(grown).rank == intlinalg.smith_normal_form(s.d3).rank == 5
    (c, xs, _, images), = mapped
    assert sorted(xs) == [x for x in range(q.size) if c._depth[x] > 1]
    rest = tuple(t for t in s.basis3 if t[0] in xs)
    assert sorted(first + layer + rest) == list(s.basis3) and len(images) == len(rest)
    # T_2: W is the whole quandle, so the W-first columns are all of d3', their
    # rank stays below that of ker(d2'), and H2 = Z^2 is free
    batches.clear()
    s = boundaries(trivial_quandle(2))
    assert quandle_homology(trivial_quandle(2)) == homology_of_pair(s.d2, s.d3)
    assert homology_of_pair(s.d2, s.d3)[1] == AbelianGroup(2) and len(batches) == 1


def spy_on_smith_forms(monkeypatch) -> list:
    """The matrix of every Smith normal form taken, abelian_group's included."""
    matrices = []

    def spy(m, torsion_map=False):
        matrices.append(m)
        return smith_normal_form(m, torsion_map)

    monkeypatch.setattr(intlinalg, "smith_normal_form", spy)
    monkeypatch.setattr(qf.homology, "smith_normal_form", spy)
    return matrices


def test_quandle_homology_builds_each_column_once(reduction_pool, monkeypatch):
    batches = spy_on_batches(monkeypatch)
    matrices = spy_on_smith_forms(monkeypatch)
    images = spy_on_images(monkeypatch)
    grown = mapped = 0
    for i, q in enumerate(reduction_pool):
        batches.clear()
        matrices.clear()
        images.clear()
        h2 = quandle_homology(q)[1]
        n, w = q.size, len(q.generators)
        kernel_rank = w * (n - 1) - (n - len(components(q)))
        (xs, _, _), *_ = batches
        assert set(xs) == set(q.generators), i
        built = [t for _, basis3, _ in batches for t in basis3]
        assert len(set(built)) == len(built), i
        # one Smith form of the columns built so far after each batch, and
        # another batch only while their rank is below that of ker(d2'); none
        # of d2', whose factors are read off the orbits (Lemma 5c)
        taken = [d3 for _, _, d3 in batches]
        assert matrices[:len(taken)] == taken and all(
            a is b for a, b in zip(matrices, taken)), i
        ranks = [smith_normal_form(m).rank for m in taken]
        assert all(r < kernel_rank for r in ranks[:-1]), i
        grown += len(taken) > 1
        if not images:
            # T = 0 (Lemma 4), or S is all of d3'
            assert len(matrices) == len(taken), i
            assert h2 == AbelianGroup(0) or taken[-1].cols == n * (n - 1) * (w - 1), i
            continue
        # Lemma 6: no column deeper than the layer that reached rank ker(d2')
        # is built; the others are mapped into the torsion T of the last
        # Smith form, and the last one is of k columns, one per factor of T
        mapped += 1
        (c, others, torsion_map, got), = images
        level = max(c._depth[x] for xs, _, _ in batches for x in xs)
        assert sorted(others) == [x for x in range(n) if c._depth[x] > level], i
        assert ranks[-1] == kernel_rank and len(built) + len(got) == n * (n - 1) * (w - 1), i
        other, = matrices[len(taken):]
        assert other.cols == len(torsion_map) > 0, i
    assert (grown, mapped) == (56, 5)


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

    # quandle_homology checks every column it builds: one entry off raises
    # where the column is in S, the columns whose Smith form is taken (R_7,
    # where they certify H2 = 0, and Q_4(3_1), which adds a layer)
    build = _ReducedComplex.d3_columns

    def one_entry_off(self, xs, after=None):
        basis3, d3 = build(self, xs, after)
        if after is not None:
            return basis3, d3
        rows = [dict(row) for row in d3.row_dicts]
        # the batch's first column, in a row (x, w) with x*w != x, so that
        # d2' sees the change
        r = next(i for i, (x, w) in enumerate(self.basis2) if self.q.table[x][w] != x)
        rows[r][0] = rows[r].get(0, 0) + 1 or 1
        return basis3, SparseIntMatrix(d3.rows, d3.cols, rows)

    pipe = Pipeline()
    for q in (dihedral_quandle(7), pipe.quandle("3_1", 4)[1]):
        monkeypatch.setattr(_ReducedComplex, "d3_columns", one_entry_off)
        with pytest.raises(NotAComplex):
            quandle_homology(q)
    monkeypatch.undo()

    # The columns mapped into the torsion of S are never built (the
    # Montesinos row): there the check of every tree step (Lemma 7) is what
    # raises, on a step that a mapped image reads and no column of S does
    q = pipe.quandle(MONTESINOS_CANDIDATES[0], 2)[1]
    c = _ReducedComplex(q)

    def chain(a, b):  # the tree steps that E(a, b) is read along
        while c._depth[b]:
            yield b, a
            a, b = c._step[b][a][0], c._edge[b][0]

    read_by_s, read_by_mapped = set(), set()
    for x in range(q.size):
        for y, w in c._kept:
            if x != y:
                read = read_by_mapped if c._depth[x] else read_by_s
                read.update(chain(x, y), chain(q.op(x, w), q.op(y, w)))
    z, a = min(read_by_mapped - read_by_s)

    class CorruptedStep(_ReducedComplex):
        def __init__(self, q):
            super().__init__(q)
            ap, r1, r2 = self._step[z][a]
            self._step[z][a] = (ap, r2, r1)

    monkeypatch.setattr(qf.homology, "_ReducedComplex", CorruptedStep)
    with pytest.raises(NotAComplex, match="tree step"):
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


def all_quandles(n: int) -> list[FiniteQuandle]:
    """Every quandle of order n, one per isomorphism class. The translations
    R_y (x -> x*y) are chosen in turn, each a permutation fixing y; right
    distributivity, R_z R_y = R_(y*z) R_z, is checked as soon as the three
    translations are chosen. A table is kept unless a relabelling of one
    kept before is equal to it."""
    choices = [[p for p in itertools.permutations(range(n)) if p[y] == y] for y in range(n)]
    perms = list(itertools.permutations(range(n)))
    cols: list[tuple[int, ...]] = []
    seen: set = set()
    found = []

    def distributive(k):  # the conditions whose last translation chosen is R_k
        for y in range(k + 1):
            for z in range(k + 1):
                t = cols[z][y]
                if max(y, z, t) == k and any(cols[z][cols[y][x]] != cols[t][cols[z][x]]
                                             for x in range(n)):
                    return False
        return True

    def extend():
        k = len(cols)
        if k == n:
            table = tuple(tuple(cols[y][x] for y in range(n)) for x in range(n))
            if table not in seen:
                found.append(FiniteQuandle(table))
                for perm in perms:
                    relabelled = [[0] * n for _ in range(n)]
                    for x in range(n):
                        for y in range(n):
                            relabelled[perm[x]][perm[y]] = perm[table[x][y]]
                    seen.add(tuple(map(tuple, relabelled)))
            return
        for p in choices[k]:
            cols.append(p)
            if distributive(k):
                extend()
            cols.pop()

    extend()
    return found


def test_every_quandle_of_order_at_most_5(monkeypatch):
    # 1, 1, 3, 7 and 22 classes (OEIS A181769; Ho & Nelson, Homology Homotopy
    # Appl. 7, 2005). On each, the lemmas behind quandle_homology, components
    # and quandle_type agree with the definitions
    classes = {n: all_quandles(n) for n in range(1, 6)}
    assert [len(classes[n]) for n in range(1, 6)] == [1, 1, 3, 7, 22]
    calls = spy_on_images(monkeypatch)
    mapped = []
    for n, quandles in classes.items():
        for q in quandles:
            calls.clear()
            s = boundaries(q)
            h = quandle_homology(q)
            assert h == homology_of_pair(s.d2, s.d3), q.table
            assert components(q) == orbits_by_union_find(q), q.table
            assert quandle_type(q) == type_over_all_columns(q), q.table
            if calls:
                mapped.append(q)
    # the tetrahedral quandle, the one connected quandle of order 4, has
    # H2 = Z/2 and reaches Lemma 6: its other columns are mapped, not built
    tetrahedral, = [q for q in classes[4] if is_connected(q)]
    assert quandle_homology(tetrahedral)[1] == AbelianGroup(0, (2,))
    assert tetrahedral in mapped
