"""Quandle chain complex in low degrees and the first two quandle homology groups.

Degenerate tuples (equal adjacent entries) are quotiented away by deleting
them from the bases and zeroing their images, which is valid because they span
a subcomplex; what remains is quandle (not rack) homology.
"""

from __future__ import annotations

from dataclasses import dataclass

from qf.intlinalg import AbelianGroup, SparseIntMatrix, homology_of_pair
from qf.quandles import FiniteQuandle


class DivisibilityError(Exception):
    """The quandle order does not divide the group order."""


@dataclass(frozen=True)
class QuandleComplexSlice:
    """Bases in degrees 1..3 and the boundary maps d2, d3 between them."""

    quandle: FiniteQuandle
    basis1: tuple[int, ...]
    basis2: tuple[tuple[int, int], ...]
    basis3: tuple[tuple[int, int, int], ...]
    d2: SparseIntMatrix
    d3: SparseIntMatrix


def boundaries(q: FiniteQuandle) -> QuandleComplexSlice:
    """Boundary maps of the quandle complex.

    d2(x,y) = <x> - <x*y>; d3(x,y,z) = <x,z> - <x*y,z> - <x,y> + <x*z,y*z>,
    with degenerate targets dropped. Bases are ordered lexicographically.
    """
    n = q.size
    tab = q.table
    basis1 = tuple(range(n))
    basis2 = tuple((x, y) for x in range(n) for y in range(n) if x != y)
    basis3 = tuple((x, y, z) for x in range(n) for y in range(n) for z in range(n)
                   if x != y and y != z)
    index2 = {pair: i for i, pair in enumerate(basis2)}

    d2_entries: dict[tuple[int, int], int] = {}
    for col, (x, y) in enumerate(basis2):
        for row, sign in ((x, 1), (tab[x][y], -1)):
            key = (row, col)
            d2_entries[key] = d2_entries.get(key, 0) + sign
    d2 = SparseIntMatrix(n, len(basis2), {k: v for k, v in d2_entries.items() if v})

    d3_entries: dict[tuple[int, int], int] = {}
    for col, (x, y, z) in enumerate(basis3):
        for pair, sign in (((x, z), 1), ((tab[x][y], z), -1),
                           ((x, y), -1), ((tab[x][z], tab[y][z]), 1)):
            row = index2.get(pair)
            if row is not None:  # degenerate pairs map to zero
                key = (row, col)
                d3_entries[key] = d3_entries.get(key, 0) + sign
    d3 = SparseIntMatrix(len(basis2), len(basis3), {k: v for k, v in d3_entries.items() if v})
    return QuandleComplexSlice(q, basis1, basis2, basis3, d2, d3)


def quandle_homology(q: FiniteQuandle) -> tuple[AbelianGroup, AbelianGroup]:
    """First and second quandle homology: H1 = coker(d2), H2 = ker(d2) / im(d3)."""
    s = boundaries(q)
    return homology_of_pair(s.d2, s.d3)


def h2_order_via_extension(pi1_order: int, qn_order: int) -> int:
    """Order of the covering group, |total| / |base|; an independent route to |H2|."""
    if qn_order <= 0 or pi1_order % qn_order != 0:
        raise DivisibilityError(f"{qn_order} does not divide {pi1_order}")
    return pi1_order // qn_order
