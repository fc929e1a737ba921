import random
from fractions import Fraction

import pytest

from qf.intlinalg import (
    AbelianGroup,
    NotAComplex,
    SparseIntMatrix,
    homology_of_pair,
    smith_normal_form,
)


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


def test_zero_matrix():
    assert smith_normal_form(SparseIntMatrix(3, 4)).factors == ()
    assert smith_normal_form(SparseIntMatrix(0, 0)).factors == ()


def test_identity():
    eye = SparseIntMatrix(3, 3, [(i, i, 1) for i in range(3)])
    assert smith_normal_form(eye).factors == (1, 1, 1)


def test_diag_2_3():
    # hand computation: diag(2,3) is equivalent to diag(1,6)
    m = SparseIntMatrix(2, 2, [(0, 0, 2), (1, 1, 3)])
    assert smith_normal_form(m).factors == (1, 6)


def test_known_small_matrices():
    m = SparseIntMatrix.from_dense([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    # classical worked example with factors (2, 2, 156)
    assert smith_normal_form(m).factors == (2, 2, 156)
    m = SparseIntMatrix.from_dense([[1, 2], [3, 4]])
    assert smith_normal_form(m).factors == (1, 2)


def test_rank_matches_rational_oracle():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        dense = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        m = SparseIntMatrix.from_dense(dense)
        assert smith_normal_form(m).rank == rational_rank(dense)


def test_snf_invariant_under_unimodular_shuffles():
    rng = random.Random(11)
    base = [[2, 4, 0], [0, 6, 9], [0, 0, 0]]
    expected = smith_normal_form(SparseIntMatrix.from_dense(base)).factors
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
        assert smith_normal_form(SparseIntMatrix.from_dense(shuffled)).factors == expected


def test_snf_large_sparse_unit_phase():
    # block of shifted identities exercises the sparse unit-pivot path
    n = 250
    triples = [(i, i, 1) for i in range(n)] + [(i, (i + 1) % n, -1) for i in range(n)]
    m = SparseIntMatrix(n, n, triples)
    factors = smith_normal_form(m).factors
    # circulant (I - shift) has rank n-1 over Q and vanishing determinant
    assert len(factors) == n - 1
    assert all(f == 1 for f in factors)


def test_homology_free():
    d_low = SparseIntMatrix(1, 3)
    d_high = SparseIntMatrix(3, 2)
    assert homology_of_pair(d_low, d_high)[1] == AbelianGroup(3)


def test_homology_torsion():
    d_low = SparseIntMatrix(1, 1)
    d_high = SparseIntMatrix(1, 1, [(0, 0, 2)])
    assert homology_of_pair(d_low, d_high)[1] == AbelianGroup(0, (2,))


def test_homology_rejects_nonzero_composite():
    d_low = SparseIntMatrix(1, 1, [(0, 0, 1)])
    d_high = SparseIntMatrix(1, 1, [(0, 0, 1)])
    with pytest.raises(NotAComplex):
        homology_of_pair(d_low, d_high)


def test_homology_dimension_mismatch():
    with pytest.raises(ValueError):
        homology_of_pair(SparseIntMatrix(1, 2), SparseIntMatrix(3, 1))


def test_coordinate_roundtrip():
    m = SparseIntMatrix(3, 5, [(0, 4, -7), (2, 0, 3)])
    assert SparseIntMatrix.from_coordinate_text(m.to_coordinate_text()) == m


def test_matrix_validation():
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, [(2, 0, 1)])
    assert SparseIntMatrix(2, 2, [(0, 0, 0)]).nnz == 0


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
    assert AbelianGroup.from_json(g.to_json()) == g
