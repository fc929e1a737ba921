"""Exact sparse integer matrices, Smith and Hermite forms, finitely generated
abelian groups, and homology of a pair of boundary maps.

This module is the one home of integer elimination: ``smith_normal_form`` and
``abelian_group`` for invariant factors and abelianizations (and, where asked
for, the map of a cokernel's torsion onto its factors, which
``qf.presentations`` reads the characters of H1 and the table of pi1 / pi1'
off), and ``hermite_rows``, the one dense kernel, which only the Smith form
calls. All arithmetic uses Python integers, so there is no overflow anywhere.
Matrices are stored row-major, one {column: value} dict per row, with 0-based
indices; Smith normal form eliminates copies of those rows in place. The
dense kernel reduces by one rule, the Euclidean step, and never by gcd
cofactors.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Sequence


class NotAComplex(Exception):
    """The two boundary maps do not compose to zero."""


@dataclass(frozen=True)
class SNFResult:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix m.

    ``torsion_map``, filled only when ``smith_normal_form`` is asked for it:
    one pair (d, u) for each diagonal entry d > 1 of a diagonalization
    U m V = diag(...) with U and V unimodular, u being that row of U as a
    {row: coefficient} dict. Then v -> (u . v mod d) over the pairs maps the
    torsion of Z^rows / im(m) onto the direct sum of the Z/d. These d need
    not form a divisibility chain.
    """

    factors: tuple[int, ...]
    torsion_map: tuple[tuple[int, dict[int, int]], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if any(d <= 0 for d in self.factors):
            raise ValueError("invariant factors must be positive")
        for d, e in zip(self.factors, self.factors[1:]):
            if e % d != 0:
                raise ValueError(f"factors break the divisibility chain: {d} | {e} fails")

    @property
    def rank(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus torsion chain d1 | d2 | ...."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")
        for d, e in zip(self.torsion, self.torsion[1:]):
            if e % d != 0:
                raise ValueError(f"torsion breaks the divisibility chain: {d} | {e} fails")

    def order(self) -> int | None:
        """Group order, or None when the group is infinite."""
        if self.free_rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


def abelian_group(m: SparseIntMatrix) -> AbelianGroup:
    """The abelian group that the rows of m present, Z^cols / (row span), from
    its Smith form.

    Relation matrices are sparse and rich in +-1 entries at any size (those of
    Reidemeister-Schreier presentations have hundreds of rows), so unit pivots
    are eliminated before anything is handled densely.
    """
    snf = smith_normal_form(m)
    return AbelianGroup(m.cols - snf.rank, tuple(d for d in snf.factors if d > 1))


class SparseIntMatrix:
    """Integer matrix stored row-major: ``row_dicts[r]`` maps column -> value, and
    zero entries are never stored. The matrix owns the dicts it is given and
    never changes them."""

    def __init__(self, rows: int, cols: int, row_dicts: Sequence[dict[int, int]]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(row_dicts) != rows:
            raise ValueError(f"{len(row_dicts)} row dicts for a matrix of {rows} rows")
        for r, row in enumerate(row_dicts):
            if row and (min(row) < 0 or max(row) >= cols):
                raise ValueError(f"row {r} has a column outside a {rows}x{cols} matrix")
            if 0 in row.values():
                raise ValueError(f"row {r} stores a zero")
        self.rows = rows
        self.cols = cols
        self.row_dicts = row_dicts
        self.nnz = sum(map(len, row_dicts))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SparseIntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.row_dicts == other.row_dicts)

    def __repr__(self) -> str:
        return f"SparseIntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _chain_fix(values: list[int]) -> tuple[int, ...]:
    # diag(a, b) ~ diag(gcd, lcm) by unimodular moves, so pairwise repair is exact.
    ds = sorted(abs(v) for v in values if v)
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i]:
                    g = gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    changed = True
        ds.sort()
    return tuple(ds)


def hermite_rows(rows: Sequence[Sequence[int]], k: int) -> list[list[int]]:
    """An upper triangular basis of the lattice that the rows (each of k
    integers) span in Z^k, as k rows of k integers: row i has its first
    nonzero entry h_i > 0 in column i, or is zero (h_i = 0) where the lattice
    has lower rank. It is the row-style Hermite normal form but for the
    reduction of the entries above the diagonal, which no caller needs.

    Each column takes one rule, the Euclidean step (Kannan & Bachem, SIAM J.
    Comput. 8, 1979; Havas, Holt & Rees, Linear Algebra Appl. 192, 1993): the
    live row of least |entry|, the first in list order on a tie, reduces each
    other live row by its nearest-integer multiple, to at most half its entry,
    until one row is left; that pivot, the gcd of the column, is made positive.
    A first row whose entry divides the column is kept and clears it.

    Rows may be longer than k: the entries past k are carried through the
    same operations but never pivoted on, so rows extended by the identity
    return the rows of the transform that give the k rows returned."""
    width = len(rows[0]) if rows else k
    rest = [row for row in rows if any(row)]
    hermite = []
    for i in range(k):
        live = [row for row in rest if row[i]]
        rest = [row for row in rest if not row[i]]
        while len(live) > 1:
            pivot = min(live, key=lambda row: abs(row[i]))
            a, kept = pivot[i], []
            for row in live:
                if row is not pivot:
                    q = (2 * row[i] + a) // (2 * a)
                    row = [r - q * p for r, p in zip(row, pivot)]
                    if not row[i]:
                        if any(row):
                            rest.append(row)
                        continue
                kept.append(row)
            live = kept
        pivot = live[0] if live else [0] * width
        hermite.append([-p for p in pivot] if pivot[i] < 0 else list(pivot))
    return hermite


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """The rank over F_p, p prime, of the matrix whose rows are given, each
    of the same length: Gaussian elimination on the first column left, with
    the first row that is nonzero there as the pivot. The pivot row and that
    column then leave, and so do rows that become zero. It is meant for small
    dense matrices, such as the Fox Jacobians of
    ``qf.presentations.branched_cover_certificate``'s character scan."""
    rest = [row for row in ([a % p for a in row] for row in rows) if any(row)]
    rank = 0
    while rest:
        i = next((i for i, row in enumerate(rest) if row[0]), None)
        if i is None:
            rest = [row[1:] for row in rest]
            continue
        pivot = rest.pop(i)
        rank += 1
        inverse, tail, left = pow(pivot[0], -1, p), pivot[1:], []
        for row in rest:
            f = row[0] * inverse % p
            row = [(a - f * b) % p for a, b in zip(row[1:], tail)] if f else row[1:]
            if any(row):
                left.append(row)
        rest = left
    return rank


def smith_normal_form(m: SparseIntMatrix, torsion_map: bool = False) -> SNFResult:
    """Invariant factors of an integer matrix, and with ``torsion_map`` the
    rows of the left transform at its torsion positions (``SNFResult``).

    Sparse elimination greedily pivots on +-1 entries: the shortest row that
    holds one, then its unit in the lightest column, to limit fill-in; ties
    break on (row, col). Rows come from a heap of (length, row) with lazy
    deletion. A row is pushed when it is seeded and again each time an
    elimination changes it; a popped entry is dropped when its length is out
    of date (the row changed or was eliminated) or its row holds no unit.
    A row can only gain a unit by changing, which pushes it again, so every
    row that holds a unit has an entry at its current length, and the first
    entry that survives is the least (length, row) over those rows: the
    pivot that a scan of every live row would pick.

    The pivot entry leaves its row, and its column leaves the column index,
    before the other rows of that column are updated, so the update never
    visits the pivot column or the pivot row. A pivot row of length 1 only
    deletes its column from the other rows. Both only save bookkeeping per
    row update: the pivots and their order are those of the rule above.

    Once no unit pivot is left, the remainder is made dense, transposed where
    needed so that each row has k = min(rows, cols) entries, and diagonalized by
    alternating Hermite forms (Kannan & Bachem, SIAM J. Comput. 8, 1979):
    ``hermite_rows`` of its rows, then of the transpose, until nothing is left
    above the diagonal; the divisibility chain is repaired at the end. The
    loop ends because the first diagonal entry h never grows. A pass makes it
    the gcd of column 0, and after a transpose that column is h's row, so h
    falls strictly unless it divides its row. If it does, h is the least
    |entry| of that column and the first in list order, so the Euclidean
    step keeps it as the pivot and subtracts exact multiples of its row,
    (h, 0, ..., 0): row and column 0 are cleared and stay clear. The same
    holds for the block that is left, whose rows keep their order.

    For ``torsion_map`` the unit phase logs its row operations (row r2 minus f
    times the pivot row pr), and only a remainder that is left replays them,
    for the coefficients over m's rows of the remainder's rows; the Hermite
    forms of its rows carry those coefficients along. The pivots are the same
    either way.
    """
    rows = [dict(row) for row in m.row_dicts]
    col_rows: defaultdict[int, set[int]] = defaultdict(set)
    for r, row in enumerate(rows):
        for c in row:
            col_rows[c].add(r)
    live = {r for r in range(m.rows) if rows[r]}
    heap = [(len(rows[r]), r) for r in live]
    heapify(heap)

    log: list[tuple[int, int, int]] | None = [] if torsion_map else None
    units = 0
    while live:
        while heap:
            length, pr = heappop(heap)
            prow = rows[pr]
            if len(prow) == length:
                vals = prow.values()
                if 1 in vals or -1 in vals:
                    break
        else:
            break  # no live row holds a unit
        if length == 1:
            pc, pv = prow.popitem()
        else:
            _, pc = min((len(col_rows[c]), c) for c, v in prow.items() if v == 1 or v == -1)
            pv = prow.pop(pc)
        column = col_rows.pop(pc)
        column.remove(pr)
        for r2 in column:
            row2 = rows[r2]
            f = row2.pop(pc) * pv  # pv is +-1, so f*pv == row2[pc]/pv
            if log is not None:
                log.append((pr, r2, f))
            if prow:  # else the pivot row had length 1, and only its column goes
                for cc, vv in prow.items():
                    delta = f * vv
                    old = row2.get(cc)
                    if old is None:
                        row2[cc] = -delta
                        col_rows[cc].add(r2)
                    elif old == delta:
                        del row2[cc]
                        col_rows[cc].discard(r2)
                    else:
                        row2[cc] = old - delta
            if row2:
                heappush(heap, (len(row2), r2))
            else:
                live.discard(r2)
        for cc in prow:
            s = col_rows[cc]
            s.discard(pr)
            if not s:
                del col_rows[cc]
        rows[pr] = {}
        live.discard(pr)
        units += 1

    live_rows = sorted(live)
    live_cols = sorted({c for r in live_rows for c in rows[r]})
    dense = [[rows[r].get(c, 0) for c in live_cols] for r in live_rows]
    left = _coefficients(log, live_rows, m.rows) if log is not None and live_rows else None
    flipped = len(live_rows) < len(live_cols)
    if flipped:
        dense = list(zip(*dense))
    k = min(len(live_rows), len(live_cols))
    while True:
        if left is None or flipped:
            dense = hermite_rows(dense, k)
        else:
            extended = hermite_rows([list(row) + u for row, u in zip(dense, left)], k)
            dense, left = [row[:k] for row in extended], [row[k:] for row in extended]
        if not any(any(row[i + 1:]) for i, row in enumerate(dense)):
            break
        dense = list(zip(*dense))
        flipped = not flipped
    diagonal = [row[i] for i, row in enumerate(dense)]
    torsion = () if left is None else tuple(
        (d, {j: u for j, u in enumerate(left[i]) if u}) for i, d in enumerate(diagonal) if d > 1)
    return SNFResult((1,) * units + _chain_fix(diagonal), torsion)


def _coefficients(log: list[tuple[int, int, int]], targets: list[int], rows: int
                  ) -> list[list[int]]:
    """Each target row of the eliminated matrix as a dense combination of the
    original rows: the logged operations (row r2 minus f times row pr) that
    reach a target are found from the last back, then replayed in order."""
    needed, kept = set(targets), []
    for op in reversed(log):
        if op[1] in needed:
            needed.add(op[0])
            kept.append(op)
    coef = {r: {r: 1} for r in needed}
    for pr, r2, f in reversed(kept):
        c2 = coef[r2]
        for j, u in coef[pr].items():
            v = c2.get(j, 0) - f * u
            if v:
                c2[j] = v
            else:
                del c2[j]
    return [[coef[r].get(j, 0) for j in range(rows)] for r in targets]


def check_complex(d_low: SparseIntMatrix, d_high: SparseIntMatrix) -> None:
    """Raise unless d_high maps into the domain of d_low and d_low * d_high = 0.
    The product is taken one row at a time and never stored."""
    if d_low.cols != d_high.rows:
        raise ValueError(f"incompatible dimensions: d_low is {d_low.rows}x{d_low.cols}, "
                         f"d_high is {d_high.rows}x{d_high.cols}")
    right = d_high.row_dicts
    for i, row in enumerate(d_low.row_dicts):
        acc: dict[int, int] = {}
        for k, a in row.items():
            for c, b in right[k].items():
                acc[c] = acc.get(c, 0) + a * b
        if any(acc.values()):
            raise NotAComplex(f"d_low * d_high != 0 in row {i}")


def homology_of_pair(d_low: SparseIntMatrix, d_high: SparseIntMatrix
                     ) -> tuple[AbelianGroup, AbelianGroup]:
    """Isomorphism types of coker(d_low) and ker(d_low) / im(d_high).

    d_low maps the middle chain group down, d_high maps into it, so
    d_low.cols == d_high.rows and d_low * d_high must vanish.
    """
    check_complex(d_low, d_high)
    low, high = smith_normal_form(d_low), smith_normal_form(d_high)
    return (AbelianGroup(d_low.rows - low.rank, tuple(d for d in low.factors if d > 1)),
            AbelianGroup(d_low.cols - low.rank - high.rank, tuple(d for d in high.factors if d > 1)))
