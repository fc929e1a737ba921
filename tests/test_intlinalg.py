import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

import pytest

from qf import intlinalg
from qf.groups import abelianization, g_n_presentation
from qf.intlinalg import (
    AbelianGroup,
    NotAComplex,
    SparseIntMatrix,
    abelian_group,
    check_complex,
    homology_of_pair,
    rank_mod_p,
    smith_normal_form,
)
from qf.pipeline import CosetCache, Pipeline
from qf.presentations import (
    _abelianization_with_characters,
    _schreier_steps,
    abelian_quotient_table,
    grading_kernel_presentation,
    simplify,
)


def from_dense(dense):
    """The sparse matrix of a list of equal-length rows."""
    dense = [list(row) for row in dense]
    cols = len(dense[0]) if dense else 0
    rows = [{c: v for c, v in enumerate(row) if v} for row in dense]
    return SparseIntMatrix(len(dense), cols, rows)


def rational_rank(dense):
    """Independent rank oracle: Gaussian elimination over the rationals."""
    a = [[Fraction(v) for v in row] for row in dense]
    rank = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][c]
        a[rank] = [v * inv for v in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][c]:
                f = a[r][c]
                a[r] = [v - f * w for v, w in zip(a[r], a[rank])]
        rank += 1
    return rank


def determinant(a):
    """Laplace expansion along the first row; exact, and quick at these sizes."""
    if not a:
        return 1
    return sum((-1) ** j * v * determinant([row[:j] + row[j + 1:] for row in a[1:]])
               for j, v in enumerate(a[0]) if v)


def determinantal_factors(dense):
    """Independent invariant-factor oracle: d_k is the gcd of all k x k minors,
    and the invariant factors are d_k / d_(k-1) for every k with d_k != 0."""
    rows = len(dense)
    cols = len(dense[0]) if dense else 0
    factors, previous = [], 1
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                d = gcd(d, determinant([[dense[r][c] for c in cs] for r in rs]))
        if not d:
            break
        factors.append(d // previous)
        previous = d
    return tuple(factors)


def oracle_pool():
    # without the kept pivot, alternating Hermite forms of this one cycle
    yield [[-2, 2], [0, -2]]
    for entries in product(range(-2, 3), repeat=4):
        yield [list(entries[:2]), list(entries[2:])]
    rng = random.Random(23)
    for _ in range(150):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        yield from (random_dense(rng, rows, cols), random_dense(rng, cols, rows))


def test_snf_matches_the_determinantal_divisors():
    for dense in oracle_pool():
        assert smith_normal_form(from_dense(dense)).factors == determinantal_factors(dense), dense


def test_hermite_rows_is_a_triangular_basis_of_the_row_lattice():
    for dense in oracle_pool():
        k = len(dense[0])
        hermite = intlinalg.hermite_rows(dense, k)
        assert len(hermite) == k and all(len(row) == k for row in hermite), dense
        for i, row in enumerate(hermite):
            assert not any(row[:i]) and row[i] >= 0 and (row[i] or not any(row)), dense
        assert determinantal_factors(hermite) == determinantal_factors(dense), dense


def test_torsion_map_is_the_quotient_onto_the_torsion():
    # phi(v) = (u . v mod d) over the pairs (d, u) kills im(m), its moduli
    # multiply to the order of the torsion of Z^rows / im(m), and it maps the
    # torsion, the v in Z^rows in the rational span of m's columns (here those
    # in {-1, 0, 1}^rows), onto the sum of the Z/d
    checked = 0
    for dense in oracle_pool():
        m = from_dense(dense)
        snf = smith_normal_form(m, torsion_map=True)
        assert snf == smith_normal_form(m) and snf.factors == determinantal_factors(dense), dense
        pairs = snf.torsion_map
        moduli = [d for d, _ in pairs]
        assert prod(moduli) == prod(snf.factors), dense
        for d, u in pairs:
            assert all(sum(u.get(r, 0) * v for r, v in enumerate(col)) % d == 0
                       for col in zip(*dense)), dense
        if not pairs:
            continue
        kernel = left_kernel(dense)
        images = {tuple(sum(u.get(r, 0) * a for r, a in enumerate(v)) % d for d, u in pairs)
                  for v in product((-1, 0, 1), repeat=len(dense))
                  if not any(sum(y * a for y, a in zip(row, v)) for row in kernel)}
        span = {tuple(0 for _ in moduli)}
        frontier = list(span)
        while frontier:
            a = frontier.pop()
            for b in images:
                c = tuple((x + y) % d for x, y, d in zip(a, b, moduli))
                if c not in span:
                    span.add(c)
                    frontier.append(c)
        assert len(span) == prod(moduli), dense
        checked += 1
    assert checked > 50


def left_kernel(dense):
    """A basis of the y with y m = 0 over the rationals, as Fraction rows."""
    a = [[Fraction(v) for v in col] for col in zip(*dense)]
    pivots = []
    for c in range(len(dense)):
        r = next((r for r in range(len(pivots), len(a)) if a[r][c]), None)
        if r is None:
            continue
        i = len(pivots)
        a[i], a[r] = a[r], a[i]
        a[i] = [v / a[i][c] for v in a[i]]
        for j in range(len(a)):
            if j != i and a[j][c]:
                a[j] = [v - a[j][c] * w for v, w in zip(a[j], a[i])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(len(dense)) if c not in pivots):
        y = [Fraction(0)] * len(dense)
        y[free] = Fraction(1)
        for i, c in enumerate(pivots):
            y[c] = -a[i][free]
        basis.append(y)
    return basis


def test_zero_matrix():
    assert smith_normal_form(SparseIntMatrix(3, 4, [{}, {}, {}])).factors == ()
    assert smith_normal_form(SparseIntMatrix(0, 0, [])).factors == ()


def test_identity():
    eye = SparseIntMatrix(3, 3, [{i: 1} for i in range(3)])
    assert smith_normal_form(eye).factors == (1, 1, 1)


def test_diag_2_3():
    # hand computation: diag(2,3) is equivalent to diag(1,6)
    m = SparseIntMatrix(2, 2, [{0: 2}, {1: 3}])
    assert smith_normal_form(m).factors == (1, 6)


def test_known_small_matrices():
    m = from_dense([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    # classical worked example with factors (2, 2, 156)
    assert smith_normal_form(m).factors == (2, 2, 156)
    m = from_dense([[1, 2], [3, 4]])
    assert smith_normal_form(m).factors == (1, 2)


def test_rank_matches_rational_oracle():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        dense = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        m = from_dense(dense)
        assert smith_normal_form(m).rank == rational_rank(dense)


def test_rank_mod_p_matches_the_minors():
    # the rank over F_p is the size of the largest minor that p does not
    # divide; small primes make ranks drop, and 2^31 - 1 is the rank over Q
    rng = random.Random(31)
    for p in (2, 3, 5, 7, 2 ** 31 - 1):
        for _ in range(60):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            dense = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            want = max((k for k in range(1, min(rows, cols) + 1)
                        for rs in combinations(range(rows), k) for cs in combinations(range(cols), k)
                        if determinant([[dense[r][c] for c in cs] for r in rs]) % p), default=0)
            assert rank_mod_p(dense, p) == want, (p, dense)
    assert rank_mod_p([], 5) == 0 and rank_mod_p([[0, 5, 10]], 5) == 0


def test_snf_invariant_under_unimodular_shuffles():
    rng = random.Random(11)
    base = [[2, 4, 0], [0, 6, 9], [0, 0, 0]]
    expected = smith_normal_form(from_dense(base)).factors
    for _ in range(100):
        dense = [row[:] for row in base]
        rp = list(range(3))
        cp = list(range(3))
        rng.shuffle(rp)
        rng.shuffle(cp)
        shuffled = [[dense[r][c] for c in cp] for r in rp]
        for r in range(3):
            if rng.random() < 0.5:
                shuffled[r] = [-v for v in shuffled[r]]
        for c in range(3):
            if rng.random() < 0.5:
                for r in range(3):
                    shuffled[r][c] = -shuffled[r][c]
        assert smith_normal_form(from_dense(shuffled)).factors == expected


def test_snf_large_sparse_unit_phase():
    # block of shifted identities exercises the sparse unit-pivot path
    n = 250
    m = SparseIntMatrix(n, n, [{i: 1, (i + 1) % n: -1} for i in range(n)])
    factors = smith_normal_form(m).factors
    # circulant (I - shift) has rank n-1 over Q and vanishing determinant
    assert len(factors) == n - 1
    assert all(f == 1 for f in factors)


@pytest.fixture
def dense_rows(monkeypatch):
    """Sizes k = min(rows, cols) of the blocks that smith_normal_form hands to
    the dense phase, one per Hermite pass."""
    seen = []
    hermite = intlinalg.hermite_rows

    def spy(rows, k):
        seen.append(k)
        return hermite(rows, k)

    monkeypatch.setattr(intlinalg, "hermite_rows", spy)
    return seen


def scrambled_diagonal(diagonal, rows, cols, moves, rng):
    """U * diag(diagonal) * V, with U and V products of random elementary unimodular moves."""
    a = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(diagonal):
        a[i][i] = d
    for _ in range(moves):
        kind = rng.choice(["add", "add", "swap", "negate"])
        k = rng.choice([-2, -1, 1, 2])
        if rng.random() < 0.5:  # row move, a left factor of U
            i, j = rng.sample(range(rows), 2)
            if kind == "add":
                a[i] = [x + k * y for x, y in zip(a[i], a[j])]
            elif kind == "swap":
                a[i], a[j] = a[j], a[i]
            else:
                a[i] = [-x for x in a[i]]
        else:  # column move, a right factor of V
            i, j = rng.sample(range(cols), 2)
            for row in a:
                if kind == "add":
                    row[i] += k * row[j]
                elif kind == "swap":
                    row[i], row[j] = row[j], row[i]
                else:
                    row[i] = -row[i]
    return a


def test_snf_sparse_phase_with_torsion(dense_rows):
    # Unit pivots are eliminated sparsely before the torsion reaches the dense
    # remainder; the expected factors are read off the diagonal, which is
    # already a divisibility chain.
    rows, cols = 400, 480
    diagonal = [1] * 310 + [2] * 20 + [6] * 20 + [12] * 20 + [0] * 30
    for seed in range(3):
        rng = random.Random(seed)
        dense = scrambled_diagonal(diagonal, rows, cols, 1500, rng)
        dense_rows.clear()
        factors = smith_normal_form(from_dense(dense)).factors
        assert factors == tuple(d for d in diagonal if d)
        assert 0 < dense_rows[0] < rows  # both phases ran
        # invariant factors do not depend on orientation
        transpose = from_dense(zip(*dense))
        assert (transpose.rows, transpose.cols) == (cols, rows)
        assert smith_normal_form(transpose).factors == factors


def test_snf_repicks_a_row_that_gains_a_unit(dense_rows):
    # Row 0 (2, 3, 0, 0) holds no unit, so the pivot search passes it over.
    # Pivoting on row 1 at column 0 turns it into (0, 1, -2, 0): the same
    # length, now with a unit, so it must be picked next, before the dense
    # phase.
    m = from_dense([[2, 3, 0, 0], [1, 1, 1, 0], [0, 2, 2, 2]])
    # the 3x3 minors have gcd 2 (e.g. -6 and -2), the 2x2 minors gcd 1
    assert smith_normal_form(m).factors == (1, 1, 2)
    assert dense_rows == [1]  # both unit pivots were taken sparsely


def scanned_unit_phase(m):
    """The unit phase of ``smith_normal_form`` by a scan of every live row, with
    no heap and no column index: the least (length, row) holding a +-1, then
    its unit in the column that the fewest rows hold, the least column on a
    tie. Returns the number of unit pivots, the remainder (live rows and
    columns in order, dense), each remainder row's coefficients over m's rows,
    and how many pivot rows held no unit when the phase began."""
    rows = [dict(row) for row in m.row_dicts]
    coef = [{r: 1} for r in range(m.rows)]
    seeded = [any(abs(v) == 1 for v in row.values()) for row in rows]
    units = gained = 0
    while True:
        holding = [(len(row), r) for r, row in enumerate(rows)
                   if any(abs(v) == 1 for v in row.values())]
        if not holding:
            break
        pr = min(holding)[1]
        prow = rows[pr]
        pc = min((sum(c in row for row in rows), c) for c, v in prow.items() if abs(v) == 1)[1]
        for r2, row2 in enumerate(rows):
            if r2 != pr and pc in row2:
                f = row2[pc] * prow[pc]
                for target, source in ((row2, prow), (coef[r2], coef[pr])):
                    for c, v in source.items():
                        target[c] = target.get(c, 0) - f * v
                        if not target[c]:
                            del target[c]
        rows[pr] = {}
        units += 1
        gained += not seeded[pr]
    live = [r for r, row in enumerate(rows) if row]
    cols = sorted({c for r in live for c in rows[r]})
    return units, [[rows[r].get(c, 0) for c in cols] for r in live], [coef[r] for r in live], gained


def test_heap_picks_the_pivots_of_a_full_scan(monkeypatch):
    # the heap's lazy deletion must leave the pivot sequence of a scan of
    # every live row (the argument in the smith_normal_form docstring): the
    # same remainder reaches the dense phase, and the torsion map, which
    # replays the logged row operations, is the reference's torsion map of
    # that remainder composed with the reference's coefficients
    first = []
    hermite = intlinalg.hermite_rows

    def spy(rows, k):
        first.append([list(row) for row in rows])
        return hermite(rows, k)

    monkeypatch.setattr(intlinalg, "hermite_rows", spy)
    rng = random.Random(30)
    remainders = torsion = gained = 0
    for _ in range(200):
        nrows, ncols = rng.randint(2, 10), rng.randint(2, 10)
        dense = []
        for _ in range(nrows):  # mostly +-1; a quarter of the rows start with no unit
            values = (2, -2, 3, -3) if rng.random() < 0.25 else (1, -1) * 3 + (2, -3)
            dense.append([rng.choice(values) if rng.random() < 0.4 else 0 for _ in range(ncols)])
        m = from_dense(dense)
        units, rest, coef, repicked = scanned_unit_phase(m)
        flipped = len(rest) < len(rest[0]) if rest else False
        expected = [list(col) for col in zip(*rest)] if flipped else rest

        first.clear()
        snf = smith_normal_form(m)
        assert first[0] == expected, dense
        of_rest = smith_normal_form(from_dense(rest), torsion_map=True)
        assert snf.factors == (1,) * units + of_rest.factors, dense

        pairs = []
        for d, u in of_rest.torsion_map:
            row = Counter()
            for i, a in u.items():
                for j, b in coef[i].items():
                    row[j] += a * b
            pairs.append((d, {j: v for j, v in row.items() if v}))
        assert list(smith_normal_form(m, torsion_map=True).torsion_map) == pairs, dense
        remainders += bool(rest)
        torsion += bool(pairs)
        gained += repicked
    # the pool reaches the dense phase, the torsion map and rows that gain a unit
    assert remainders > 100 and torsion > 50 and gained > 20, (remainders, torsion, gained)


@pytest.fixture(scope="module")
def derived_5_2():
    """The relation matrix of pi1' for 5_2 at n=5 (605 x 485), as
    ``branched_cover_certificate`` builds it, and the dense remainder that the
    unit phase of its Smith form leaves."""
    per = Pipeline(CosetCache(None)).peripherals("5_2")
    pres = simplify(g_n_presentation(per, 5), (1,))[0]
    pi1 = grading_kernel_presentation(pres, 5)
    index = abelianization(pi1).order()
    pi1, _ = simplify(pi1, ())
    table = abelian_quotient_table(pi1, index, _abelianization_with_characters(pi1)[1])
    ngens, walks = _schreier_steps(pi1, table.action, table.tree)
    rows = []
    for steps in walks:
        for start in range(table.size):
            c, row = start, Counter()
            for crossed, col, sign in steps:
                if crossed[c]:
                    row[crossed[c] - 1] += sign
                c = col[c]
            rows.append({g: v for g, v in row.items() if v})
    m = SparseIntMatrix(len(rows), ngens, rows)
    remainders = []

    def capture(rows, k):  # the Smith form stops at its first dense pass
        remainders.append([list(row) for row in rows])
        raise LookupError

    with pytest.MonkeyPatch.context() as patch, pytest.raises(LookupError):
        patch.setattr(intlinalg, "hermite_rows", capture)
        abelian_group(m)
    return m, remainders[0]


def test_certificate_smith_form_keeps_its_entries_small(derived_5_2):
    # combining rows by gcd cofactors takes the first 40 rows of this
    # remainder to entries of 50,873 bits, and the whole Smith form past
    # minutes; the factors are those of an independent dense routine that
    # pivots on the least entry of the whole block
    m, remainder = derived_5_2
    assert (m.rows, m.cols) == (605, 485)
    assert (len(remainder), len(remainder[0])) == (131, 55)
    hermite = intlinalg.hermite_rows(remainder[:40], 55)
    assert max(abs(v) for row in hermite for v in row).bit_length() <= 256
    assert abelian_group(m) == AbelianGroup(0, (2,) * 10 + (3082,) * 7 + (33902,) * 2 + (372922,))


def test_hermite_rows_spans_the_row_lattice_at_scale(derived_5_2):
    # minors do not scale to 131 x 55, so the two inclusions of lattices are
    # checked directly: each input row reduces to 0 against the triangular
    # rows, and each triangular row is its transform row times the input
    rows = derived_5_2[1]
    k = len(rows[0])
    extended = intlinalg.hermite_rows(
        [row + [int(i == j) for j in range(len(rows))] for i, row in enumerate(rows)], k)
    hermite = [row[:k] for row in extended]
    assert hermite == intlinalg.hermite_rows(rows, k)
    for i, row in enumerate(hermite):
        assert not any(row[:i]) and row[i] >= 0 and (row[i] or not any(row)), i
    for v in rows:
        v = list(v)
        for i, h in enumerate(hermite):
            if v[i]:
                assert h[i] and v[i] % h[i] == 0, i
                q = v[i] // h[i]
                v = [a - q * b for a, b in zip(v, h)]
        assert not any(v)
    for h, row in zip(hermite, extended):
        u = row[k:]
        assert [sum(c * r[j] for c, r in zip(u, rows)) for j in range(k)] == h


def test_homology_free():
    d_low = SparseIntMatrix(1, 3, [{}])
    d_high = SparseIntMatrix(3, 2, [{}, {}, {}])
    assert homology_of_pair(d_low, d_high)[1] == AbelianGroup(3)


def test_homology_torsion():
    d_low = SparseIntMatrix(1, 1, [{}])
    d_high = SparseIntMatrix(1, 1, [{0: 2}])
    assert homology_of_pair(d_low, d_high)[1] == AbelianGroup(0, (2,))


def test_homology_rejects_nonzero_composite():
    d_low = SparseIntMatrix(1, 1, [{0: 1}])
    d_high = SparseIntMatrix(1, 1, [{0: 1}])
    with pytest.raises(NotAComplex):
        homology_of_pair(d_low, d_high)


def test_homology_dimension_mismatch():
    with pytest.raises(ValueError):
        homology_of_pair(SparseIntMatrix(1, 2, [{}]), SparseIntMatrix(3, 1, [{}, {}, {}]))


def test_matrix_validation():
    with pytest.raises(ValueError, match="outside"):
        SparseIntMatrix(2, 2, [{0: 1}, {2: 1}])  # column out of range
    with pytest.raises(ValueError, match="outside"):
        SparseIntMatrix(2, 2, [{-1: 1}, {}])
    with pytest.raises(ValueError, match="row dicts"):
        SparseIntMatrix(2, 2, [{0: 1}])  # one row short
    with pytest.raises(ValueError, match="row dicts"):
        SparseIntMatrix(0, 2, [{}])
    with pytest.raises(ValueError, match="zero"):
        SparseIntMatrix(2, 2, [{0: 1, 1: 0}, {}])  # a stored zero
    with pytest.raises(ValueError):
        SparseIntMatrix(-1, 2, [])
    m = SparseIntMatrix(2, 3, [{2: -4}, {}])
    assert (m.rows, m.cols, m.nnz) == (2, 3, 1)
    assert m == from_dense([[0, 0, -4], [0, 0, 0]])
    assert SparseIntMatrix(0, 5, []).nnz == 0


def random_dense(rng, rows, cols):
    """A sparse-ish dense matrix in which whole rows and columns are often zero."""
    zero_rows = {r for r in range(rows) if rng.random() < 0.25}
    zero_cols = {c for c in range(cols) if rng.random() < 0.25}
    return [[0 if r in zero_rows or c in zero_cols or rng.random() < 0.5 else rng.randint(-3, 3)
             for c in range(cols)] for r in range(rows)]


def test_check_complex_matches_the_dense_product():
    def sparse(rows, cols, dense):  # like from_dense, but a 0 x cols shape keeps its cols
        return SparseIntMatrix(rows, cols, [{c: v for c, v in enumerate(row) if v} for row in dense])

    rng = random.Random(31)
    zero = 0
    for _ in range(300):
        n, k, m = (rng.randint(0, 6) for _ in range(3))
        a, b = random_dense(rng, n, k), random_dense(rng, k, m)
        product = [[sum(a[i][j] * b[j][c] for j in range(k)) for c in range(m)] for i in range(n)]
        if any(map(any, product)):
            with pytest.raises(NotAComplex):
                check_complex(sparse(n, k, a), sparse(k, m, b))
        else:
            check_complex(sparse(n, k, a), sparse(k, m, b))
            zero += 1
    assert 0 < zero < 300
    with pytest.raises(ValueError):
        check_complex(SparseIntMatrix(2, 3, [{}, {}]), SparseIntMatrix(2, 3, [{}, {}]))


def test_abelian_group_contract():
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 4))
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    g = AbelianGroup(1, (2, 6))
    assert g.order() is None
    assert AbelianGroup(0, (2, 6)).order() == 12
    assert str(AbelianGroup(0)) == "0"
    assert str(g) == "Z x Z/2 x Z/6"
    assert g.to_json() == {"free_rank": 1, "torsion": [2, 6]}
