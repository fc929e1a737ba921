"""Finite quandles as explicit operation tables, plus the group-flavoured constructions.

Elements are dense 0-based indices. ``FiniteQuandle(table)`` checks every
quandle axiom, so each ``FiniteQuandle`` is a quandle, whether its table comes
from a construction here or from the on-disk cache: idempotence and bijective
columns in O(n^2), and right distributivity by Lemma 2 in O(n^2 |W|).
``FiniteGroupElementSet`` proves associativity and keeps its greedy
generating set S as ``generators``; ``GroupAutomorphism`` proves a map a
homomorphism on S.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Sequence

MAX_SIZE = 1 << 16

# (x, ((y1, k1), ..., (yr, kr)), z) over generator indices; see check_relators
Relator = tuple[int, tuple[tuple[int, int], ...], int]


class AxiomViolation(Exception):
    """A table fails a quandle axiom; carries the axiom name and a witness."""

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} fails at {witness}")


class AutomorphismInvalid(Exception):
    """A claimed group automorphism does not satisfy its invariants."""


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
        self.generators = tuple(_generating_set(self))
        for w in self.generators:  # Lemma 2
            r = [row[w] for row in tab]
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
        return tuple(self.table[x][y] for x in range(self.size))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteQuandle) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FiniteQuandle(size={self.size})"


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


def trivial_quandle(n: int) -> FiniteQuandle:
    return FiniteQuandle([[x] * n for x in range(n)])


def dihedral_quandle(n: int) -> FiniteQuandle:
    return FiniteQuandle([[(2 * y - x) % n for y in range(n)] for x in range(n)])


def _perm_cycle_type(perm: Sequence[int]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if not seen[start]:
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = perm[x]
                length += 1
            lengths.append(length)
    return tuple(sorted(lengths))


def quandle_type(q: FiniteQuandle) -> int:
    """Least n >= 1 with x *^n y == x everywhere: the lcm of the translation orders."""
    out = 1
    for y in range(q.size):
        for length in set(_perm_cycle_type(q.column(y))):
            out = lcm(out, length)
    return out


def components(q: FiniteQuandle) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by all translations; one orbit means connected."""
    parent = list(range(q.size))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for y in range(q.size):
        for x in range(q.size):
            ra, rb = find(x), find(q.table[x][y])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    orbits: dict[int, list[int]] = {}
    for x in range(q.size):
        orbits.setdefault(find(x), []).append(x)
    return tuple(tuple(orbits[r]) for r in sorted(orbits))


def is_connected(q: FiniteQuandle) -> bool:
    return len(components(q)) == 1


@dataclass
class FiniteGroupElementSet:
    """A finite group as a full multiplication table on indices 0..order-1.

    The constructor raises ValueError unless the table is a group, and keeps
    the greedy generating set of Light's test as ``generators``.
    """

    order: int
    mult: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.order
        if len(self.mult) != n or any(len(row) != n for row in self.mult):
            raise ValueError("multiplication table must be order x order")
        if any(min(row) < 0 or max(row) >= n for row in self.mult):
            raise ValueError("multiplication table entry out of range")
        if len(self.inv) != n or any(not 0 <= v < n for v in (self.identity, *self.inv)):
            raise ValueError("identity or inverse table out of range")
        e = self.identity
        for a in range(n):
            if self.mult[e][a] != a or self.mult[a][e] != a:
                raise ValueError(f"identity law fails at {a}")
            if self.mult[a][self.inv[a]] != e or self.mult[self.inv[a]][a] != e:
                raise ValueError(f"inverse law fails at {a}")
        # Associativity is proved at every order by Light's test (Clifford & Preston,
        # The Algebraic Theory of Semigroups, 1961, section 1.2): the elements s with
        # (a s) b == a (s b) for all a, b contain e and are closed under products, and
        # subgroup_generated reaches every element as a product of the greedy
        # generators and their inverses, so checking those s suffices.
        gens: list[int] = []
        reached = {e}
        for x in range(n):
            if x not in reached:
                gens.append(x)
                reached = set(self.subgroup_generated(gens))
        self.generators = tuple(gens)
        mult = self.mult
        for s in sorted({*gens, *(self.inv[g] for g in gens)}):
            ms = mult[s]
            for a in range(n):
                ma = mult[a]
                mas = mult[ma[s]]
                for b in range(n):
                    if mas[b] != ma[ms[b]]:
                        raise ValueError(f"associativity fails at {(a, s, b)}")

    def subgroup_generated(self, gens: Iterable[int]) -> tuple[int, ...]:
        seen = {self.identity}
        frontier = [self.identity]
        gens = list(gens)
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    for b in (self.mult[a][g], self.mult[a][self.inv[g]]):
                        if b not in seen:
                            seen.add(b)
                            nxt.append(b)
            frontier = nxt
        return tuple(sorted(seen))

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroupElementSet":
        mult = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
        return cls(n, mult, 0, tuple((-a) % n for a in range(n)))


@dataclass
class GroupAutomorphism:
    """A group automorphism given as a permutation of element indices.

    A permutation f that fixes e is a homomorphism iff f(a s) = f(a) f(s) for
    every a and every s in S u S^-1, S = ``source.generators``: every b is a
    product over S u S^-1, and by induction on its length
    f(a b s) = f(a b) f(s) = f(a) f(b) f(s) = f(a) f(b s). The constructor
    checks that in O(order |S|).
    """

    source: FiniteGroupElementSet
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.source.order
        if len(self.map) != n or sorted(self.map) != list(range(n)):
            raise AutomorphismInvalid("map is not a permutation of the elements")
        if self.map[self.source.identity] != self.source.identity:
            raise AutomorphismInvalid("identity is not fixed")
        g, f = self.source, self.map
        mult = g.mult
        for s in sorted({*g.generators, *(g.inv[x] for x in g.generators)}):
            fs = f[s]
            for a in range(n):
                if f[mult[a][s]] != mult[f[a]][fs]:
                    raise AutomorphismInvalid(f"homomorphism fails at {(a, s)}")

    def __call__(self, a: int) -> int:
        return self.map[a]


def galex(g: FiniteGroupElementSet, phi: GroupAutomorphism) -> FiniteQuandle:
    """Generalized Alexander quandle on the elements of g: x * y = phi(x y^-1) y."""
    if phi.source is not g and phi.source != g:
        raise AutomorphismInvalid("automorphism does not act on the given group")
    mult, inv, f = g.mult, g.inv, phi.map
    table = [[mult[f[mult[x][inv[y]]]][y] for y in range(g.order)] for x in range(g.order)]
    return FiniteQuandle(table)


@dataclass(frozen=True)
class ExtensionWitness:
    """Data claiming that ``total`` extends ``base`` by a cyclic group.

    ``projection`` maps total elements onto base elements and ``action`` is the
    permutation by which the cyclic group generator acts on the total quandle.
    """

    total: FiniteQuandle
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
    """Check the central-extension axioms (E1), (E2) on a finite witness."""
    nt = w.total.size
    if len(w.projection) != nt or len(w.action) != nt:
        raise MalformedWitness("projection/action length differs from the total size")
    if any(not 0 <= v < w.base.size for v in w.projection):
        raise MalformedWitness("projection value out of range")
    if sorted(w.action) != list(range(nt)):
        raise MalformedWitness("action is not a permutation of the total quandle")
    if w.group_order < 1:
        raise MalformedWitness("group order must be positive")

    tt, tb = w.total.table, w.base.table
    p, lam = w.projection, w.action

    hom = all(p[tt[x][y]] == tb[p[x]][p[y]] for x in range(nt) for y in range(nt))
    surj = len(set(p)) == w.base.size

    e1 = all(lam[tt[x][y]] == tt[lam[x]][y] and tt[x][lam[y]] == tt[x][y]
             for x in range(nt) for y in range(nt))

    order = 1
    img = tuple(lam)
    ident = tuple(range(nt))
    while img != ident and order <= nt:
        img = tuple(lam[v] for v in img)
        order += 1
    action_order_matches = img == ident and order == w.group_order

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
