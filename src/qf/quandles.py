"""Finite quandles as explicit operation tables, central-extension witnesses and relators.

Elements are dense 0-based indices. ``FiniteQuandle(table)`` checks every
quandle axiom, so each ``FiniteQuandle`` is a quandle, whether its table comes
from a construction here or from the on-disk cache: idempotence and bijective
columns in O(n^2), and right distributivity by Lemma 2 in O(n^2 |W|).

Let W be a set whose orbit under the translations R_w (w in W) is the whole
table, so each z is w R_w1^e1 ... R_wk^ek with w and every wi in W and each
ei = +-1; in a quandle, such a W is a generating set, since
R_(a*b) = R_b R_a R_b^-1. ``FiniteQuandle.generators`` is the W that the
greedy ``_generating_set`` picks.

Lemma 2 (numbered with Lemmas 1 and 3 of ``qf.homology``, which need it):
for an idempotent table with bijective columns, the table is right
distributive iff every R_w, w in W, is an automorphism, i.e.
(x*y)*w = (x*w)*(y*w) for all x, y. Necessity is the axiom itself. For
sufficiency, every z is g(w) with g a product of such R_wi^+-1, all
automorphisms, and then x * g(w) = g(g^-1(x) * w), so R_z = g R_w g^-1 is an
automorphism too.

Lemma 5: in a quandle Q with generating set W, every R_y is a product of the
R_w^+-1 (w in W) and is conjugate to some R_w. Proof: as above, y = g(w) with
g a product of R_wi^+-1, and R_y = g R_w g^-1. Hence, with x in Q and w in W
throughout:
(a) the orbits of Inn(Q), the group generated by every R_y, are the orbits of
the group generated by the R_w; ``components`` closes each x under x -> x*w,
which in a finite permutation group reaches the inverses too.
(b) ord(R_y) = ord(R_w), so the type of Q, the lcm of every ord(R_y), is the
lcm of ord(R_w) over w in W (``quandle_type``).
(c) d2(x, y) = <x> - <x*y> spans the differences within the orbits of the
R_y, so coker(d2) is free on the orbits of (a) and d2 has n - #orbits
invariant factors, all 1; ``qf.homology`` reads H1 and the factors of d2'
(im d2' = im d2, Lemma 3 there) off the orbits.
(d) If a map p from Q to a quandle Y has p(x*w) = p(x)*p(w), that is
p R_w = R_p(w) p, for every x and w, then p is a homomorphism. The y with
p R_y = R_p(y) p include W, and they are closed under R_w^+-1: from
p R_w = R_p(w) p also p R_w^-1 = R_p(w)^-1 p, so for such a y
p R_(y*w) = p R_w R_y R_w^-1 = R_p(w) R_p(y) R_p(w)^-1 p = R_(p(y)*p(w)) p,
and p(y*w) = p(y)*p(w) by the hypothesis at (y, w); y *^-1 w is the same
with R_w^-1. So they are all of Q.
(e) If a permutation lam of Q has lam R_w = R_w lam and R_lam(w) = R_w for
every w, then lam commutes with every R_y, a product of the R_w^+-1, and
R_lam(y) = R_y for every y: that holds on W and is closed under R_w^+-1, as
R_lam(y*w) = R_(lam(y)*w) = R_w R_lam(y) R_w^-1 = R_w R_y R_w^-1 = R_(y*w),
the first step as lam commutes with R_w; y *^-1 w is the same with R_w^-1.
That is (E1) of ``verify_extension`` for all x, y.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # qf.groups imports this module
    from qf.groups import CosetQuandle

MAX_SIZE = 1 << 16

# (x, ((y1, k1), ..., (yr, kr)), z) over generator indices; see check_relators
Relator = tuple[int, tuple[tuple[int, int], ...], int]


class AxiomViolation(Exception):
    """A table fails a quandle axiom; carries the axiom name and a witness."""

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} fails at {witness}")


class MalformedWitness(Exception):
    """Extension witness data with mismatched sizes or out-of-range values."""


class FiniteQuandle:
    """A finite quandle given by its full operation table ``table[x][y] = x * y``.

    The constructor raises ``AxiomViolation`` unless the table is a quandle
    (module docstring) and keeps the generating set W as ``generators``.
    """

    def __init__(self, table: Sequence[Sequence[int]]):
        tab = tuple(tuple(row) for row in table)
        n = len(tab)
        if n == 0 or n > MAX_SIZE:
            raise ValueError(f"quandle size must be in 1..{MAX_SIZE}")
        for row in tab:
            if len(row) != n:
                raise ValueError("operation table must be square")
            for v in row:
                if not 0 <= v < n:
                    raise ValueError(f"table entry {v} outside 0..{n - 1}")
        self.size = n
        self.table = tab
        self.inverse_table = self._validate()
        self._columns = tuple(zip(*tab))
        self.generators = tuple(_generating_set(self))
        for w in self.generators:  # Lemma 2
            r = self._columns[w]
            for x, row in enumerate(tab):
                rxw = tab[r[x]]
                if [r[v] for v in row] != [rxw[v] for v in r]:
                    y = next(y for y, v in enumerate(row) if r[v] != rxw[r[y]])
                    raise AxiomViolation("distributivity", (x, y, w))

    def _validate(self) -> tuple[tuple[int, ...], ...]:
        n = self.size
        tab = self.table
        for x in range(n):
            if tab[x][x] != x:
                raise AxiomViolation("idempotence", (x,))
        inv = [[0] * n for _ in range(n)]
        for y in range(n):
            seen = [False] * n
            for x in range(n):
                z = tab[x][y]
                if seen[z]:
                    raise AxiomViolation("bijectivity", (x, y))
                seen[z] = True
                inv[z][y] = x
        return tuple(tuple(row) for row in inv)

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]

    def pow_op(self, x: int, y: int, k: int) -> int:
        """x *^k y, i.e. the k-th power of the translation by y applied to x."""
        tab = self.table if k >= 0 else self.inverse_table
        for _ in range(abs(k)):
            x = tab[x][y]
        return x

    def column(self, y: int) -> tuple[int, ...]:
        """The translation permutation S_y as a mapping x -> x * y."""
        return self._columns[y]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteQuandle) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FiniteQuandle(size={self.size})"


def _generating_set(q: FiniteQuandle | CosetQuandle) -> list[int]:
    """A small set W, in increasing order, whose orbit under the translations
    by W is all of q (a generating set of a quandle; see the module docstring).

    Greedy: each step adds the least element among those whose addition
    reaches the most. An element reached from the set plus c reaches no more
    than c does, so it is not tried in that step. The translations are read
    through ``q.column``; a single element generates only itself (x * x = x),
    so the first step, which picks 0, reads none.
    """
    def generated(gens: list[int]) -> set[int]:
        columns = [q.column(w) for w in gens]
        seen = set(gens)
        stack = list(gens)
        while stack:
            x = stack.pop()
            for col in columns:
                b = col[x]
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        return seen

    gens = [0]
    covered = {0}
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


def trivial_quandle(n: int) -> FiniteQuandle:
    return FiniteQuandle([[x] * n for x in range(n)])


def dihedral_quandle(n: int) -> FiniteQuandle:
    return FiniteQuandle([[(2 * y - x) % n for y in range(n)] for x in range(n)])


def _perm_order(perm: Sequence[int]) -> int:
    """The order of a permutation: the lcm of its cycle lengths."""
    seen = [False] * len(perm)
    out = 1
    for start in range(len(perm)):
        if not seen[start]:
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = perm[x]
                length += 1
            out = lcm(out, length)
    return out


def quandle_type(q: FiniteQuandle) -> int:
    """Least n >= 1 with x *^n y == x everywhere: the lcm of ord(R_w) over w
    in W (Lemma 5b)."""
    return lcm(*(_perm_order(q.column(w)) for w in q.generators))


def components(q: FiniteQuandle) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by all translations, read off the R_w, w
    in W (Lemma 5a), each ascending and in order of least element; one orbit
    means connected."""
    tab, gens = q.table, q.generators
    seen = [False] * q.size
    orbits = []
    for start in range(q.size):
        if not seen[start]:
            seen[start] = True
            orbit = [start]
            for x in orbit:  # orbit grows while it is read
                row = tab[x]
                for w in gens:
                    y = row[w]
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
            orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def is_connected(q: FiniteQuandle) -> bool:
    return len(components(q)) == 1


@dataclass(frozen=True)
class ExtensionWitness:
    """Data claiming that ``total`` extends ``base`` by a cyclic group.

    ``projection`` maps total elements onto base elements and ``action`` is the
    permutation by which the cyclic group generator acts on the total quandle.
    """

    total: FiniteQuandle | CosetQuandle
    base: FiniteQuandle
    projection: tuple[int, ...]
    group_order: int
    action: tuple[int, ...]


@dataclass(frozen=True)
class ExtensionReport:
    projection_is_homomorphism: bool
    projection_is_surjective: bool
    e1: bool
    e2: bool
    action_order_matches: bool

    @property
    def ok(self) -> bool:
        return (self.projection_is_homomorphism and self.projection_is_surjective
                and self.e1 and self.e2 and self.action_order_matches)


def verify_extension(w: ExtensionWitness) -> ExtensionReport:
    """Check the central-extension axioms (E1), (E2) on a finite witness.

    The homomorphism and (E1) are checked for y in the generating set W of
    the total quandle only, which proves them for every y (Lemma 5d, 5e), so
    the total quandle is read only through ``size``, ``generators`` and the
    columns of y and lam(y) for y in W: a ``FiniteQuandle`` or a
    ``CosetQuandle``, the GAlex of a branched cover.
    """
    nt = w.total.size
    if len(w.projection) != nt or len(w.action) != nt:
        raise MalformedWitness("projection/action length differs from the total size")
    if any(not 0 <= v < w.base.size for v in w.projection):
        raise MalformedWitness("projection value out of range")
    if sorted(w.action) != list(range(nt)):
        raise MalformedWitness("action is not a permutation of the total quandle")
    if w.group_order < 1:
        raise MalformedWitness("group order must be positive")

    tb, p, lam = w.base.table, w.projection, w.action
    columns = {y: w.total.column(y) for y in w.total.generators}
    hom = all(p[z] == tb[p[x]][p[y]] for y, col in columns.items() for x, z in enumerate(col))
    surj = len(set(p)) == w.base.size

    e1 = all(lam[col[x]] == col[lam[x]] for col in columns.values() for x in range(nt)) and all(
        w.total.column(lam[y]) == col for y, col in columns.items())

    action_order_matches = _perm_order(lam) == w.group_order

    fibers: dict[int, list[int]] = {}
    for x, b in enumerate(p):
        fibers.setdefault(b, []).append(x)
    e2 = True
    for fiber in fibers.values():
        if len(fiber) != w.group_order:
            e2 = False
            break
        x = fiber[0]
        orbit = [x]
        for _ in range(w.group_order - 1):
            x = lam[x]
            orbit.append(x)
        if len(set(orbit)) != w.group_order or set(orbit) != set(fiber):
            e2 = False
            break
    return ExtensionReport(hom, surj, e1, e2, action_order_matches)


def check_relators(q: FiniteQuandle, assignment: Sequence[int],
                   relators: Iterable[Relator]) -> bool:
    """True iff every relator holds in q when generator i is ``assignment[i]``.

    A relator ``(x, ((y1, k1), ..., (yr, kr)), z)`` reads
    (...((x *^k1 y1) *^k2 y2)...) *^kr yr = z over generators numbered from 0.
    Every quandle term has this left-normed form (Joyce 1982), since
    a * (b * c) = ((a *^-1 c) * b) * c. Raises ValueError for a generator
    outside 0..len(assignment)-1.
    """
    def element(i: int) -> int:
        if not 0 <= i < len(assignment):
            raise ValueError(f"generator {i} outside 0..{len(assignment) - 1}")
        return assignment[i]

    for x, chain, z in relators:
        v = element(x)
        for y, k in chain:
            v = q.pow_op(v, element(y), k)
        if v != element(z):
            return False
    return True
