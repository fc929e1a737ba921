"""Quandle chain complex in low degrees and the first two quandle homology groups.

Degenerate tuples (equal adjacent entries) are quotiented away by deleting
them from the bases and zeroing their images, which is valid because they span
a subcomplex; what remains is quandle (not rack) homology, the normalized
complex of Carter, Jelsovsky, Kamada, Langford & Saito (Trans. AMS 355, 2003).

H2 needs only the image of d3, and d3 d4 = 0 makes most d3 columns redundant,
as in algebraic Morse theory (Skoldberg, Trans. AMS 358, 2006). For a
nondegenerate triple t = (x,y,z), an element w != z and t.w = (x*w, y*w, z*w),

    d4(x,y,z,w) = t - t.w + (x,z,w) - (x*y,z,w) - (x,y,w) + (x*z,y*z,w),

so d3(t) - d3(t.w) lies in the span of d3 on triples ending in w (a
degenerate face is zero; t.w ends in w exactly when z = w). Let W be a set
whose orbit under the translations R_w (w in W) is the whole quandle, so each
z is w R_w1^e1 ... R_wk^ek with w and every wi in W and each ei = +-1; in a
quandle, such a W is a generating set, since R_(a*b) = R_b R_a R_b^-1.

Lemma 1: the d3 columns of the triples ending in W span im(d3). Induct on k:
unless t ends in wk (and is kept), the identity links t to t.wk^-ek, whose
last entry is a word of length k - 1. The invariant factors of d3 depend only
on its image lattice, so H2 is unchanged.

Lemma 2: for an idempotent table with bijective columns, d2 d3 = 0 on those
columns already forces right distributivity, so the product check of
``homology_of_pair`` keeps its full strength (Lemma 1 needs distributivity).
d2 d3(x,y,w) = <(x*y)*w> - <(x*w)*(y*w)>, zero by idempotence on degenerate
triples, so the check says that every R_w, w in W, is an automorphism; every
z is g(w) with g a product of such R_wi^+-1, and R_z = g R_w g^-1 is then one
too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from qf.intlinalg import AbelianGroup, SparseIntMatrix, homology_of_pair
from qf.quandles import FiniteQuandle


class DivisibilityError(Exception):
    """The quandle order does not divide the group order."""


@dataclass(frozen=True)
class QuandleComplexSlice:
    """Bases in degrees 2 and 3 and the boundary maps d2, d3 into degrees 1 and 2."""

    basis2: tuple[tuple[int, int], ...]
    basis3: tuple[tuple[int, int, int], ...]
    d2: SparseIntMatrix
    d3: SparseIntMatrix


def boundaries(q: FiniteQuandle,
               triples: Sequence[tuple[int, int, int]] | None = None) -> QuandleComplexSlice:
    """Boundary maps of the quandle complex.

    d2(x,y) = <x> - <x*y>; d3(x,y,z) = <x,z> - <x*y,z> - <x,y> + <x*z,y*z>,
    with degenerate targets dropped. Bases are ordered lexicographically;
    ``triples`` (nondegenerate) replaces basis3, so d3 has only their columns.
    """
    n = q.size
    tab = q.table
    basis2 = tuple((x, y) for x in range(n) for y in range(n) if x != y)
    if triples is None:
        basis3 = tuple((x, y, z) for x in range(n) for y in range(n) for z in range(n)
                       if x != y and y != z)
    else:
        basis3 = tuple(triples)
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
    return QuandleComplexSlice(basis2, basis3, d2, d3)


def _generating_set(q: FiniteQuandle) -> list[int]:
    """A small set W, in increasing order, whose orbit under the translations
    by W is all of q (a generating set of a quandle; see the module docstring).

    Greedy: each step adds the least element among those whose addition
    reaches the most. An element reached from the set plus c reaches no more
    than c does, so it is not tried in that step.
    """
    tab = q.table

    def generated(gens: list[int]) -> set[int]:
        seen = set(gens)
        stack = list(gens)
        while stack:
            row = tab[stack.pop()]
            for w in gens:
                b = row[w]
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        return seen

    gens: list[int] = []
    covered: set[int] = set()
    while len(covered) < q.size:
        best: tuple[int, set[int]] | None = None
        tried = set(covered)
        for c in range(q.size):
            if c not in tried:
                reach = generated(gens + [c])
                if best is None or len(reach) > len(best[1]):
                    best = (c, reach)
                tried |= reach
        gens.append(best[0])
        covered = best[1]
    return sorted(gens)


def spanning_triples(q: FiniteQuandle) -> tuple[tuple[int, int, int], ...]:
    """The nondegenerate triples ending in ``_generating_set(q)``, in
    lexicographic order: their d3 columns span im(d3) (module docstring)."""
    n = q.size
    gens = _generating_set(q)
    return tuple((x, y, z) for x in range(n) for y in range(n) if x != y
                 for z in gens if z != y)


def quandle_homology(q: FiniteQuandle) -> tuple[AbelianGroup, AbelianGroup]:
    """First and second quandle homology: H1 = coker(d2), H2 = ker(d2) / im(d3).

    d3 is built on ``spanning_triples(q)`` only; ``homology_of_pair`` raises
    ``NotAComplex`` on it exactly when the table is not distributive.
    """
    s = boundaries(q, spanning_triples(q))
    return homology_of_pair(s.d2, s.d3)


def h2_order_via_extension(pi1_order: int, qn_order: int) -> int:
    """Order of the covering group, |total| / |base|; an independent route to |H2|."""
    if qn_order <= 0 or pi1_order % qn_order != 0:
        raise DivisibilityError(f"{qn_order} does not divide {pi1_order}")
    return pi1_order // qn_order
