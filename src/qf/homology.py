"""Quandle chain complex in low degrees and the first two quandle homology groups.

H1 is read off the orbits of the quandle, on which it is free (Lemma 5c of
``qf.quandles``); H2 off one Smith normal form of columns of the reduced d3'
below, and the images of the others in its torsion (Lemmas 6 and 7).

Degenerate tuples (equal adjacent entries) are quotiented away by deleting
them from the bases and zeroing their images, which is valid because they span
a subcomplex; what remains is quandle (not rack) homology, the normalized
complex of Carter, Jelsovsky, Kamada, Langford & Saito (Trans. AMS 355, 2003).

H2 needs only the image of d3, and d3 d4 = 0 makes most d3 columns redundant,
as in algebraic Morse theory (Skoldberg, Trans. AMS 358, 2006). For a
nondegenerate triple t = (x,y,z), an element w != z and t.w = (x*w, y*w, z*w),

    d4(x,y,z,w) = t - t.w + (x,z,w) - (x*y,z,w) - (x,y,w) + (x*z,y*z,w),

so d3(t) - d3(t.w) lies in the span of d3 on triples ending in w (a
degenerate face is zero; t.w ends in w exactly when z = w). Let W be
``q.generators``: its orbit under the translations R_w (w in W) is the whole
quandle (module docstring of ``qf.quandles``), so each z is
w R_w1^e1 ... R_wk^ek with w and every wi in W and each ei = +-1.

Lemma 1: the d3 columns of the triples ending in W span im(d3). Induct on k:
unless t ends in wk (and is kept), the identity links t to t.wk^-ek, whose
last entry is a word of length k - 1. The invariant factors of d3 depend only
on its image lattice, so H2 is unchanged.

Lemma 2 (in ``qf.quandles``, checked by the ``FiniteQuandle`` constructor):
given idempotence and bijective columns, right distributivity holds iff every
R_w, w in W, is an automorphism. As d2 d3(x,y,w) = <(x*y)*w> - <(x*w)*(y*w)>,
that is what d2 d3 = 0 on the columns of Lemma 1 says.

Lemma 3: run a breadth-first search from W along the translations R_w (w in
W); as each R_w has finite order, it reaches every z, and each z not in W gets
one tree edge (p(z), w_z) with p(z) * w_z = z and p(z) found before z. For
x != z let x' = x *^-1 w_z, so x' != p(z). The kept column of (x', p(z), w_z) is

    <x,z> + <x',w_z> - <x'*p(z),w_z> - <x',p(z)>,

with a 1 in row (x,z); its other rows end in W or in p(z), found before z (a
degenerate pair is zero). These unit pivots, taken with z in search order,
form an acyclic matching: the matched block is unitriangular, so eliminating
it changes bases of rows and columns over Z and leaves the rows of the
|W|(n-1) pairs ending in W and the columns of the unmatched kept triples. On
them d3' is d3 with every pair rewritten, modulo the matched columns, as

    E(x,z) = E(x',p(z)) - <x',w_z> + <x'*p(z),w_z>,

where E of a degenerate pair is 0 and E of a pair ending in W is itself. The
invariant factors of d3' are those of d3 without the |M| = (n - |W|)(n - 1)
unit ones of the matching, so rank d3' = rank d3 - |M|. d2' is d2 on the kept pairs: its image
is spanned by x - x*w (w in W), the differences within one orbit of the group
that the R_w generate, which is every inner automorphism, so im(d2') = im(d2)
and H1 is unchanged. H2 = ker(d2)/im(d3) has free rank (number of pairs) -
rank d2 - rank d3 and the torsion of coker(d3), both the same for the reduced
pair, which has |M| fewer pairs. Each column of d3' is a kept column minus
matched ones, all in ker(d2), so d2' d3' = 0 still holds. H1 = coker(d2') is
then free on the orbits, and d2' has n - #orbits invariant factors, all 1
(Lemma 5c of ``qf.quandles``); ``quandle_homology`` reads them off the
orbits, not off a Smith normal form of d2'.

Lemma 4: let S be any set of columns of d3'. If every invariant factor of S
is 1 and rank S = rank ker(d2') = (number of pairs) - rank d2', then
im(d3') = ker(d2') and H2 = 0. Proof: im S is in im(d3'), which is in
ker(d2'). All factors 1 make Z^pairs / im S free, so im S is saturated: kv in
im S with k != 0 puts v in im S. Equal ranks make ker(d2') / im S a torsion
group, as both lattices span the same rational space; saturation makes it
0. So im S = ker(d2'), and im(d3') lies between them. It is the case T = 0 of
Lemma 6.

Lemma 6: let S be a set of columns of d3' with rank S = rank ker(d2'), and
T = ker(d2') / im S. Then T is the torsion subgroup of Z^pairs / im S, and
H2 is T / <phi(c)> over the other columns c of d3', phi the quotient map.
Proof: ker(d2') is saturated (kv in it with k != 0 puts v in it), and with the
rank of im S it is the saturation of im S, the v with kv in im S for some
k != 0: exactly the preimage of the torsion of Z^pairs / im S. Let
U S V = diag(1, ..., d_1, ..., d_k, 0, ...) with U and V unimodular, d_i > 1
in row j_i. Then v -> Uv maps Z^pairs / im S isomorphically onto
Z^pairs / im(U S V): a Z/1 or Z/d_i per nonzero diagonal entry and a Z per
other row, whose torsion is at the rows j_i. So
phi(v) = ((Uv)_{j_i} mod d_i)_i maps T isomorphically onto the sum of the
Z/d_i. The d_i need not form a divisibility chain. As im S <= im(d3') <=
ker(d2') and im(d3') / im S is generated by the images of the other columns,
H2 = ker(d2') / im(d3') is T / <phi(c)>: the abelian group that the rows
d_i e_i and phi(c) present on k generators, whose Smith form gives the chain.
This needs every c in ker(d2'), which the check of Lemma 7 proves without
building c. With k = 0 it is Lemma 4, and the other columns are never built.

Lemma 7: for u on the rows of d3' (0 on the sink) let psi_u(a, b) =
u . E(a, b). Then psi_u(a, w) = u<a,w> for w in W (0 on the degenerate
(w, w)), and down the tree in search order

    psi_u(a, z) = psi_u(a', p(z)) - u<a',w_z> + u<a'*p(z),w_z>,

n^2 entries per u. The column of a kept triple (x, y, w) is
c = <x,w> - <x*y,w> - E(x,y) + E(x*w,y*w), so
u . c = u<x,w> - u<x*y,w> - psi_u(x,y) + psi_u(x*w,y*w), and phi(c) of
Lemma 6 is read off one table per pair (d_i, u_i), with c never built.
Every such c is in ker(d2') if every tree step preserves the image under
d2': <a'> - <a'*p(z)> - d2'<a',w_z> + d2'<a'*p(z),w_z> = <a> - <a*z> for
each z off W and each a, a sink row counting as 0. Proof: then
d2' E(a, b) = <a> - <a*b> for every pair, by induction along the search (a
pair ending in W is its own row, and a degenerate one is 0, as is
<a> - <a*a>), so

    d2' c = <x> - <x*w> - <x*y> + <(x*y)*w> - <x> + <x*y> + <x*w> - <(x*w)*(y*w)>
          = <(x*y)*w> - <(x*w)*(y*w)>,

which is 0 by right distributivity (Lemma 2, checked by the ``FiniteQuandle``
constructor). The check costs n per node of the tree, and fails only on step
tables that Lemma 3 did not build; ``quandle_homology`` then raises
``NotAComplex``.

``quandle_homology`` builds the columns (x, y, w) with x in W first (58 of
the 812 of R_29) and takes their Smith form, with the rows of U at the d_i
(``smith_normal_form(..., torsion_map=True)``). While their rank is below
that of ker(d2'), it adds the columns whose first entry is the next layer of
the breadth-first search of Lemma 3 and takes the Smith form again. On
Q_4(3_1) the W-first columns have rank 4 and ker(d2') rank 5; with the first
entries at depth 1, 22 of the 30 columns, they reach it. Once the rank is
reached, the other columns are never built: where T != 0 their images under
phi are read off the tables of Lemma 7. Where no set of layers reaches it (W
is all of T_2, whose H2 is Z^2), H2 is read off the Smith form of all of d3'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from qf.intlinalg import (
    AbelianGroup,
    NotAComplex,
    SparseIntMatrix,
    abelian_group,
    check_complex,
    smith_normal_form,
)
from qf.quandles import FiniteQuandle, components


class DivisibilityError(Exception):
    """The quandle order does not divide the group order."""


@dataclass(frozen=True)
class QuandleComplexSlice:
    """Bases in degrees 2 and 3 and the boundary maps d2, d3 into degrees 1 and 2."""

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
    basis2 = tuple((x, y) for x in range(n) for y in range(n) if x != y)
    basis3 = tuple((x, y, z) for x in range(n) for y in range(n) for z in range(n)
                   if x != y and y != z)
    index2 = {pair: i for i, pair in enumerate(basis2)}

    d3_rows: list[dict[int, int]] = [{} for _ in basis2]
    for col, (x, y, z) in enumerate(basis3):
        for pair, sign in (((x, z), 1), ((tab[x][y], z), -1),
                           ((x, y), -1), ((tab[x][z], tab[y][z]), 1)):
            r = index2.get(pair)
            if r is not None:  # degenerate pairs map to zero
                d3_rows[r][col] = d3_rows[r].get(col, 0) + sign
    d3 = SparseIntMatrix(len(basis2), len(basis3),
                         [{c: v for c, v in row.items() if v} for row in d3_rows])
    return QuandleComplexSlice(basis2, basis3, _d2(q, basis2), d3)


def _d2(q: FiniteQuandle, basis2: tuple[tuple[int, int], ...]) -> SparseIntMatrix:
    """d2(x,y) = <x> - <x*y> on the columns ``basis2``."""
    rows: list[dict[int, int]] = [{} for _ in range(q.size)]
    for col, (x, y) in enumerate(basis2):
        xy = q.table[x][y]
        if xy != x:
            rows[x][col] = 1
            rows[xy][col] = -1
    return SparseIntMatrix(q.size, len(basis2), rows)


class _ReducedComplex:
    """The pairs, the tree and d2' of Lemma 3; the columns of d3' are built in
    batches, by their first entry (``d3_columns``), and the others are mapped
    into the torsion of Lemma 6 without being built (``torsion_images``)."""

    def __init__(self, q: FiniteQuandle):
        n = q.size
        tab = q.table
        gens = q.generators
        self.q = q
        self.basis2 = tuple((x, w) for x in range(n) for w in gens if x != w)
        m = len(self.basis2)
        # rows[w][x] is the row of (x, w); m stands for the degenerate (w, w), a
        # sink row of d3 that is dropped at the end
        rows: list[list[int]] = [[] for _ in range(n)]
        for w in gens:
            rows[w] = [m] * n
        for i, (x, w) in enumerate(self.basis2):
            rows[w][x] = i

        # The tree: z = p(z) * w_z. For a != z, step[z][a] = (a', <a', w_z>,
        # <a' * p(z), w_z>) as rows, with a' = a *^-1 w_z: E(a, z) is E(a', p(z))
        # minus the first pair plus the second.
        depth = [0] * n
        edge: list[tuple[int, int] | None] = [None] * n
        step: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        order = list(gens)
        for p in order:  # breadth-first: order grows while it is read
            for u in gens:
                z = tab[p][u]
                if z in gens or edge[z] is not None:
                    continue
                depth[z] = depth[p] + 1
                edge[z] = (p, u)
                order.append(z)
                ru = rows[u]
                step[z] = [(ap, ru[ap], ru[tab[ap][p]]) for ap in (row[u] for row in q.inverse_table)]
        self._rows, self._depth, self._edge, self._step = rows, depth, edge, step
        self._tree = order[len(gens):]  # the z not in W, in search order
        # the second and third entries (y, w) of the kept triples: neither
        # degenerate nor a tree edge, so not matched as a pivot
        self._kept = [(y, w) for y in range(n) for w in gens
                      if y != w and edge[tab[y][w]] != (y, w)]
        self.d2 = _d2(q, self.basis2)

    def d3_columns(self, xs: Iterable[int], after: SparseIntMatrix | None = None
                   ) -> tuple[tuple[tuple[int, int, int], ...], SparseIntMatrix]:
        """The kept triples (x, y, w) with x in ``xs``, in the order of ``xs``
        and then lexicographic, and a matrix of d3' columns: those of
        ``after`` (copied, not rebuilt), then one for each of these triples."""
        tab = self.q.table
        rows, depth, edge, step = self._rows, self._depth, self._edge, self._step
        m = len(self.basis2)
        basis3 = []
        d3_rows: list[dict[int, int]] = [{} for _ in range(m + 1)]
        col = 0
        if after is not None:
            d3_rows[:m] = [dict(row) for row in after.row_dicts]
            col = after.cols
        for x in xs:
            tx = tab[x]
            for y, w in self._kept:
                if x == y:
                    continue
                basis3.append((x, y, w))
                rw = rows[w]
                xy = tx[y]
                total = {rw[x]: 1}
                total[rw[xy]] = total.get(rw[xy], 0) - 1
                # - E(x, y) + E(x*w, y*w): walk both up the tree, deeper first;
                # once they reach the same pair, the rest cancels
                a, b, c, d = x, y, tx[w], tab[y][w]
                while a != c or b != d:
                    db, dd = depth[b], depth[d]
                    if db >= dd:
                        if not db:  # both end in W
                            total[rows[b][a]] = total.get(rows[b][a], 0) - 1
                            total[rows[d][c]] = total.get(rows[d][c], 0) + 1
                            break
                        a, r1, r2 = step[b][a]
                        b = edge[b][0]
                        total[r1] = total.get(r1, 0) + 1
                        total[r2] = total.get(r2, 0) - 1
                    if dd >= db:
                        c, r1, r2 = step[d][c]
                        d = edge[d][0]
                        total[r1] = total.get(r1, 0) - 1
                        total[r2] = total.get(r2, 0) + 1
                for r, v in total.items():
                    if v:
                        d3_rows[r][col] = v
                col += 1
        return tuple(basis3), SparseIntMatrix(m, col, d3_rows[:m])

    def torsion_images(self, xs: Iterable[int],
                       torsion_map: Sequence[tuple[int, dict[int, int]]]) -> list[dict[int, int]]:
        """phi(c) of Lemma 6 for the d3' column c of each kept triple with
        first entry in ``xs``, in the order of ``d3_columns``: {i: u_i . c mod
        d_i} over the pairs (d_i, u_i) of ``torsion_map``, zeros left out.
        No column is built: the images are read off the tables of Lemma 7,
        after its check, which raises ``NotAComplex`` where a tree step does
        not preserve the d2' image."""
        self._check_steps()
        tab = self.q.table
        rows, edge, step = self._rows, self._edge, self._step
        tables = []
        for d, u in torsion_map:
            dense = [0] * (len(self.basis2) + 1)  # the sink row is 0
            for r, v in u.items():
                dense[r] = v
            # psi[b][a] = u . E(a, b), down the tree in search order
            psi = [[dense[r] for r in row] for row in rows]
            for z in self._tree:
                prev = psi[edge[z][0]]
                psi[z] = [prev[ap] - dense[r1] + dense[r2] for ap, r1, r2 in step[z]]
            tables.append((d, dense, psi))
        images = []
        for x in xs:
            tx = tab[x]
            for y, w in self._kept:
                if x == y:
                    continue
                rw, xy, xw, yw = rows[w], tx[y], tx[w], tab[y][w]
                image = {}
                for i, (d, dense, psi) in enumerate(tables):
                    v = (dense[rw[x]] - dense[rw[xy]] - psi[y][x] + psi[yw][xw]) % d
                    if v:
                        image[i] = v
                images.append(image)
        return images

    def _check_steps(self) -> None:
        """Lemma 7's check: for every z off W and every a, d2' of E(a', p(z))
        minus the step's first row plus its second is <a> - <a*z>, given that
        d2' E(a', p(z)) = <a'> - <a'*p(z)>."""
        n, tab = self.q.size, self.q.table
        # <x> is coded as 8^x. Each comparison is of 8 signed terms, so every
        # coefficient of the difference is in [-4, 4], and its code, the sum
        # of c_x 8^x, is 0 only if every c_x is
        code = [1 << 3 * x for x in range(n)]
        d2 = [code[x] - code[tab[x][w]] for x, w in self.basis2] + [0]  # the sink's is 0
        for z in self._tree:
            p = self._edge[z][0]
            got = [code[ap] - code[tab[ap][p]] - d2[r1] + d2[r2] for ap, r1, r2 in self._step[z]]
            want = [code[a] - code[az] for a, az in enumerate(self.q.column(z))]
            if got != want:
                a = next(a for a in range(n) if got[a] != want[a])
                raise NotAComplex(f"the tree step of ({a}, {z}) changes its image under d2'")


def reduced_boundaries(q: FiniteQuandle) -> QuandleComplexSlice:
    """d2' and d3' of Lemma 3 (module docstring), with H1 and H2 those of
    ``boundaries(q)``: basis2 is the pairs (x, w) with w in ``q.generators``,
    basis3 the kept triples (x, y, w) whose (y, w) is not a tree edge, both
    lexicographic.
    """
    c = _ReducedComplex(q)
    basis3, d3 = c.d3_columns(range(q.size))
    return QuandleComplexSlice(c.basis2, basis3, c.d2, d3)


def quandle_homology(q: FiniteQuandle) -> tuple[AbelianGroup, AbelianGroup]:
    """First and second quandle homology: H1 = coker(d2), H2 = ker(d2) / im(d3),
    computed on the reduced pair of Lemma 3. H1 is free on the orbits
    (Lemma 5c of ``qf.quandles``), so d2' is not eliminated. The columns of
    d3' are built by the layers of their first entry, W first, until their
    rank is that of ker(d2'); H2 is then read off their one Smith form and,
    where it has torsion, the images of the other columns in it, which are
    not built (Lemmas 4, 6 and 7 of the module docstring). d2' d3' = 0 is
    checked once, on every column that is built, and Lemma 7's check of
    every tree step stands for it on the columns mapped.
    """
    c = _ReducedComplex(q)
    h1 = AbelianGroup(len(components(q)))
    kernel_rank = c.d2.cols - (q.size - h1.free_rank)
    depth = c._depth
    d3 = None
    for level in range(max(depth) + 1):  # the search of Lemma 3 leaves no level empty
        _, d3 = c.d3_columns([x for x in range(q.size) if depth[x] == level], after=d3)
        snf = smith_normal_form(d3, torsion_map=True)
        if snf.rank == kernel_rank:
            break
    check_complex(c.d2, d3)
    others = [x for x in range(q.size) if depth[x] > level] if snf.torsion_map else []
    if not others:  # S is all of d3', or T = 0 (Lemma 4)
        return h1, AbelianGroup(kernel_rank - snf.rank, tuple(d for d in snf.factors if d > 1))
    # Lemma 6: T is the sum of the Z/d, and H2 is T modulo the phi(c), read
    # off the tables of Lemma 7; phi is 0 on the columns of S
    moduli = [d for d, _ in snf.torsion_map]
    relations = [{i: d} for i, d in enumerate(moduli)]
    relations += [image for image in c.torsion_images(others, snf.torsion_map) if image]
    return h1, abelian_group(SparseIntMatrix(len(relations), len(moduli), relations))


def h2_order_via_extension(pi1_order: int, qn_order: int) -> int:
    """Order of the covering group, |total| / |base|; an independent route to |H2|."""
    if qn_order <= 0 or pi1_order % qn_order != 0:
        raise DivisibilityError(f"{qn_order} does not divide {pi1_order}")
    return pi1_order // qn_order
