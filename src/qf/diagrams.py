"""Oriented knot diagrams from PD codes, and their group/quandle presentations.

PD convention: a crossing X(a,b,c,d) lists edge labels counterclockwise
starting at the incoming understrand a, with edges numbered 1..2c consecutively
along the knot. The crossing sign is +1 when d = b+1 (mod 2c) and -1 when
b = d+1 (mod 2c); the understrand always satisfies c = a+1 (mod 2c).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from qf.groups import GroupPresentation, Word, free_reduce
from qf.quandles import Relator


class PDSyntaxError(Exception):
    """Malformed PD text; carries the character position of the offence."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class LabelError(Exception):
    """Edge labels do not form the multiset 1..2c, each exactly twice."""


class MultiComponent(Exception):
    """The code describes a link with more than one component."""

    def __init__(self, components: int):
        self.components = components
        super().__init__(f"diagram has {components} components, expected 1")


class OrientationInconsistent(Exception):
    """Edge labels cannot be oriented consistently with the successor convention."""


class ParameterError(Exception):
    """Builder parameters outside the supported family."""


@dataclass(frozen=True)
class PDCode:
    """A planar diagram code: one (a, b, c, d) tuple of edge labels per crossing."""

    crossings: tuple[tuple[int, int, int, int], ...]

    @classmethod
    def from_crossings(cls, crossings: Iterable[Sequence[int]]) -> "PDCode":
        xs = tuple(tuple(int(v) for v in c) for c in crossings)
        if not xs:
            raise ValueError("a PD code needs at least one crossing")
        if any(len(c) != 4 for c in xs):
            raise ValueError("each crossing needs exactly four edge labels")
        n2 = 2 * len(xs)
        counts = [0] * (n2 + 1)
        for c in xs:
            for v in c:
                if not 1 <= v <= n2:
                    raise LabelError(f"edge label {v} outside 1..{n2}")
                counts[v] += 1
        bad = [v for v in range(1, n2 + 1) if counts[v] != 2]
        if bad:
            raise LabelError(f"labels used other than exactly twice: {bad}")
        # components: strand passages pair {a,c} and {b,d}
        parent = list(range(n2 + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b, c, d in xs:
            for u, v in ((a, c), (b, d)):
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[max(ru, rv)] = min(ru, rv)
        comps = len({find(v) for v in range(1, n2 + 1)})
        if comps != 1:
            raise MultiComponent(comps)
        return cls(xs)

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)


_PD_TOKEN = re.compile(r"\s*X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_pd(text: str) -> PDCode:
    """Parse whitespace-separated X(a,b,c,d) tokens into a validated PDCode."""
    pos = 0
    crossings = []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _PD_TOKEN.match(text, pos)
        if m is None:
            raise PDSyntaxError("expected X(a,b,c,d)", pos)
        crossings.append(tuple(int(g) for g in m.groups()))
        pos = m.end()
    if not crossings:
        raise PDSyntaxError("empty diagram", 0)
    return PDCode.from_crossings(crossings)


@dataclass(frozen=True)
class CrossingData:
    """One crossing in traversal order: sign, arcs, and the over-arc indices."""

    sign: int
    under_in_arc: int
    under_out_arc: int
    over_arc_long: int
    over_arc_closed: int


@dataclass(frozen=True)
class Diagram:
    """An oriented diagram: closed arcs, traversal-ordered crossings, writhe."""

    pd: PDCode
    arcs: tuple[tuple[int, ...], ...]
    crossings: tuple[CrossingData, ...]
    writhe: int

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)


def _oriented_roles(pd: PDCode):
    """Per crossing: (sign, over_in, over_out); raises on inconsistent labels."""
    n2 = 2 * pd.n_crossings

    def succ(e: int) -> int:
        return e % n2 + 1

    roles = []
    incoming_seen = [0] * (n2 + 1)
    outgoing_seen = [0] * (n2 + 1)
    for a, b, c, d in pd.crossings:
        if succ(a) != c:
            raise OrientationInconsistent(
                f"under strand {a}->{c} breaks consecutive numbering")
        if succ(b) == d:
            sign, over_in, over_out = 1, b, d
        elif succ(d) == b:
            sign, over_in, over_out = -1, d, b
        else:
            raise OrientationInconsistent(
                f"over strand {{{b},{d}}} breaks consecutive numbering")
        roles.append((sign, over_in, over_out))
        incoming_seen[a] += 1
        incoming_seen[over_in] += 1
        outgoing_seen[c] += 1
        outgoing_seen[over_out] += 1
    for e in range(1, n2 + 1):
        if incoming_seen[e] != 1 or outgoing_seen[e] != 1:
            raise OrientationInconsistent(
                f"edge {e} enters {incoming_seen[e]} and leaves {outgoing_seen[e]} crossings")
    return roles


def analyze(pd: PDCode) -> Diagram:
    """Orient a PD code: arcs from the basepoint, signs, over-arc indices, writhe.

    Arcs are maximal overstrand runs, numbered consecutively along the
    orientation with the arc containing edge 1 first. Crossings come out in
    traversal order; the over-arc carries both its long-knot index (the
    basepoint arc splits into first and last arc of the cut-open knot) and its
    closed index.
    """
    roles = _oriented_roles(pd)
    m = pd.n_crossings
    n2 = 2 * m
    under_in_of = {pd.crossings[i][0]: i for i in range(m)}

    # long arcs: edge runs starting at 1, broken after each under-in edge
    long_arcs: list[list[int]] = [[]]
    for e in range(1, n2 + 1):
        long_arcs[-1].append(e)
        if e in under_in_of:
            long_arcs.append([])
    # the trailing segment (possibly empty) is the far end of the cut-open knot
    closed_arcs = [tuple(long_arcs[-1] + long_arcs[0])]
    closed_arcs.extend(tuple(arc) for arc in long_arcs[1:-1])
    long_of_edge = {}
    for idx, arc in enumerate(long_arcs):
        for e in arc:
            long_of_edge[e] = idx

    crossings = []
    writhe = 0
    order = sorted(range(m), key=lambda i: pd.crossings[i][0])
    for pos, i in enumerate(order, start=1):
        sign, over_in, _ = roles[i]
        writhe += sign
        long_idx = long_of_edge[over_in]
        crossings.append(CrossingData(
            sign=sign,
            under_in_arc=(pos - 1) % m,
            under_out_arc=pos % m,
            over_arc_long=long_idx,
            over_arc_closed=long_idx % m,
        ))
    return Diagram(pd, tuple(closed_arcs), tuple(crossings), writhe)


@dataclass(frozen=True)
class PeripheralPresentation:
    """Wirtinger presentation with its peripheral pair (meridian, longitude)."""

    group: GroupPresentation
    meridian: int
    longitude: Word
    writhe: int


def wirtinger_with_peripherals(d: Diagram) -> PeripheralPresentation:
    """One generator per arc, one conjugation relator per crossing.

    At a crossing of sign e the relator is out = over^-e . in . over^e; the
    meridian is the basepoint arc's generator and the longitude reads the over
    arcs with sign along the knot, corrected by meridian^-writhe.
    """
    m = d.n_arcs
    relators = []
    longitude: list[int] = []
    for x in d.crossings:
        over = x.over_arc_closed + 1
        inn = x.under_in_arc + 1
        out = x.under_out_arc + 1
        e = x.sign
        relators.append(free_reduce((-out, -e * over, inn, e * over)))
        longitude.append(e * over)
    longitude.extend([-1] * d.writhe if d.writhe >= 0 else [1] * (-d.writhe))
    return PeripheralPresentation(
        group=GroupPresentation(m, relators),
        meridian=0,
        longitude=free_reduce(longitude),
        writhe=d.writhe,
    )


def quandle_presentation(d: Diagram, n: int) -> tuple[Relator, ...]:
    """Relators (see ``qf.quandles.check_relators``) on the long-knot arcs
    a_0..a_m, generator i being a_i.

    Crossing i reads a_{i-1} *^e a_k = a_i; for n >= 1 every generator
    additionally satisfies a_i *^n a_0 = a_i.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    m = len(d.crossings)
    relators = [(i - 1, ((x.over_arc_long, x.sign),), i)
                for i, x in enumerate(d.crossings, start=1)]
    if n >= 1:
        relators.extend((i, ((0, n),), i) for i in range(1, m + 1))
    return tuple(relators)


def arc_assignment(d: Diagram, t) -> list[int]:
    """The cosets of the long-knot arcs a_0..a_m in the coset-enumerated quandle.

    The conjugator of arc 0 is empty and grows by over^sign at each crossing,
    so a_i goes to the coset of the accumulated conjugating word.
    """
    assignment = [0]
    word: Word = ()
    for x in d.crossings:
        word = word + (x.sign * (x.over_arc_closed + 1),)
        assignment.append(t.coset_of_word(word))
    return assignment


def connected_sum(a: PDCode, b: PDCode) -> PDCode:
    """Splice two knots at their basepoint edges, relabelling along the new knot.

    Edge 1 of each summand is cut; the halves are rejoined so the composite
    traverses all of the first knot, then all of the second. Crossing counts add.
    """
    na2 = 2 * a.n_crossings

    def relabelled(pd: PDCode, shift: int, one_in: int, one_out: int) -> list[tuple[int, ...]]:
        rows = []
        for tup, (sign, _, _) in zip(pd.crossings, _oriented_roles(pd)):
            over_in_pos = 1 if sign == 1 else 3
            row = []
            for pos, e in enumerate(tup):
                if e == 1:
                    row.append(one_in if pos in (0, over_in_pos) else one_out)
                else:
                    row.append(e + shift)
            rows.append(tuple(row))
        return rows

    rows_a = relabelled(a, 0, one_in=1, one_out=na2 + 1)
    rows_b = relabelled(b, na2, one_in=na2 + 1, one_out=1)
    return PDCode.from_crossings(rows_a + rows_b)
