"""Finitely presented groups, Todd-Coxeter coset enumeration, and branched covers.

Words are tuples of signed generator indices: +k stands for generator k-1 and
-k for its inverse. Coset tables are standardized (cosets numbered in BFS
discovery order), so a table is fixed by its action (Sims, Computation with
Finitely Presented Groups, 1994) and by its forward columns, all that
``CosetTable.to_json`` stores. The one constructor, ``CosetTable(ngens,
forward, subgroup)``, takes permutation columns in any numbering with coset
0 as base and standardizes them in one pass that proves them: each column
must hold every coset once, compared as a set before any entry is read as an
index (a negative one would alias), and is inverted once; one BFS from coset
0 over the columns in order (x1, x1^-1, x2, ...) numbers the cosets as it
reaches them, proves every coset reached and derives the tree of
representative words, each coset's parent and the letter that reaches it;
the columns are renumbered only where the numbering changed. The words
(``rep_words``) are spelled along the tree when first read, by
``GAlexColumns.column`` alone. Every computed table is one constructor call:
the enumerator's live rows, a lift from a simplified enumeration, a
character map (``qf.presentations``). ``from_json`` calls it on a cache
entry and rejects a table that it renumbered.

``CosetTable.check(g, subgroup)`` proves a table to be the action of g on the
cosets of some subgroup H that contains the given words; a table loaded from
the cache need not be more. G_n's table is stored over <m>, and a loaded one
is proved further by ``CosetTable.check_regular(n)``: the action that the
grading induces on Z/n x cosets, (a, c) x = (a + 1, c x) for each generator
x (every Wirtinger generator is a meridian, of grade 1), is regular. That
action is G_n's on the cosets of K, the grade-0 elements of H: g sends (0, 0)
to (grade g, H g). Regular, it makes K normal, so the table is that of <m>
in G_n / K, G_n's own where K = 1; a proper quotient passes too.

Regularity lemma. A translation is a permutation L of the points that
commutes with every column; it is fixed by L(0), since L(0 w) = L(0) w
(``left_translation`` builds it). (a) A transitive action is regular iff its
translations act transitively: if each c is some L(0), an h that fixes 0
fixes every c, as c h = L(0 h) = L(0); conversely, in a regular action
0 w -> c w is well defined for each c. (b) Let O be the orbit of 0 under the
translations. If 0 x = L(0) for a translation L, O is closed under x: for
c = L'(0) in O, c x = L'(0 x) = L'(L(0)). ``check_regular`` builds L_x with
L_x(0) = 0 x for a greedy set of generators x, skipping each x whose 0 x
already lies in the orbit of 0 under the columns chosen so far. By (b) O
contains that orbit and is closed under every generator, so, the action
being finite and transitive, O is every point and by (a) the action is
regular. The induced action is transitive where m fixes coset 0, as
``check`` proves: m^k takes (0, 0) to (k, 0), and rep_c takes (k, 0) to
(k + |rep_c|, c). A computed table of G_n over <m> is one by theorem, so
only a loaded one needs the lemma. ``branched_cover`` reads pi1(M_n), the
kernel of G_n -> Z/n, off that table as one ``BranchedCover``.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence

from qf.intlinalg import AbelianGroup, SparseIntMatrix, abelian_group
from qf.quandles import FiniteQuandle, _generating_set

if TYPE_CHECKING:  # qf.diagrams imports this module
    from qf.diagrams import PeripheralPresentation

Word = tuple[int, ...]

DEFAULT_MAX_COSETS = 10 ** 6
# Largest n of G_n: its relator m^n is stored letter by letter, 8 MB at this n.
MAX_N = 10 ** 6
STRATEGY_VERSION = "hlt-lookahead-1"
_CHUNK = 1 << 12  # table entries renumbered per step of compress; each makes one int per entry


class Overflow(Exception):
    """Coset enumeration exceeded its cap; the index may be infinite or just large.

    With a certificate (see ``qf.presentations.InfinitenessCertificate``) the
    index of the named quotient is proved infinite, so any cap is exceeded.
    """

    def __init__(self, max_cosets: int, certificate=None, name: str = ""):
        self.max_cosets = max_cosets
        self.certificate = certificate
        if certificate is None:
            super().__init__(f"coset enumeration exceeded {max_cosets} cosets")
        else:
            super().__init__(f"{name} is infinite, so its index exceeded {max_cosets} cosets")


class IncompleteTable(Exception):
    """A coset table with undefined entries cannot be used."""


class TableMismatch(Exception):
    """A coset table is not a coset action of the given presentation and subgroup."""


def free_reduce(word: Iterable[int]) -> Word:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:  # out holds no 0, so a 0 never cancels
            out.pop()
        elif letter:
            out.append(letter)
        else:
            raise ValueError("0 is not a valid signed generator")
    return tuple(out)


def cyclic_reduce(word: Iterable[int]) -> Word:
    return _strip_cyclic_ends(free_reduce(word))


def _strip_cyclic_ends(w: Word) -> Word:
    """A freely reduced word cyclically reduced: the letters at its two ends
    that cancel each other stripped."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i, j = i + 1, j - 1
    return w[i:j]


def invert_word(word: Iterable[int]) -> Word:
    return tuple([-letter for letter in word][::-1])


@dataclass(frozen=True)
class GroupPresentation:
    """A finite presentation; relators are freely and cyclically reduced."""

    ngens: int
    relators: tuple[Word, ...]

    def __init__(self, ngens: int, relators: Iterable[Iterable[int]]):
        if ngens < 0:
            raise ValueError("generator count must be non-negative")
        reduced = []
        for rel in relators:
            w = cyclic_reduce(rel)
            if w:
                if max(w) > ngens or -min(w) > ngens:
                    raise ValueError(f"relator {tuple(rel)} mentions an undeclared generator")
                reduced.append(w)
        object.__setattr__(self, "ngens", ngens)
        object.__setattr__(self, "relators", tuple(reduced))


def _col(letter: int) -> int:
    """The action column of a signed generator; its inverse's is ``_col(letter) ^ 1``."""
    return 2 * letter - 2 if letter > 0 else -2 * letter - 1


def _word_to_cols(word: Iterable[int]) -> tuple[int, ...]:
    return tuple(map(_col, word))


class CosetTable:
    """Completed, standardized coset table: the action of each signed generator
    on coset indices, with the representative words and their tree.

    Built from its forward columns in one pass that standardizes and proves
    them (module docstring): ``tree[d - 1]`` is (p, x) for each coset d >= 1,
    where ``rep_words[d]``, spelled when first read, is ``rep_words[p]`` plus
    the letter x and p < d; ``renumbered`` is whether the numbering changed.
    """

    def __init__(self, ngens: int, forward: Sequence[Sequence[int]],
                 subgroup: Iterable[Iterable[int]]):
        if len(forward) != ngens:
            raise ValueError("need one forward column per generator")
        size = len(forward[0]) if ngens else 1
        cosets = list(range(size))  # every inverse holds these ints, not a copy each
        members, action = set(cosets), []
        for col in forward:
            if not size or len(col) != size or set(col) != members:
                raise IncompleteTable("a forward column is not a permutation of the cosets")
            inverse = [0] * size
            for c, d in zip(cosets, col):
                inverse[d] = c
            action += (col, inverse)
        # BFS from coset 0 over (x1, x1^-1, x2, ...): order[i] is the coset reached i-th
        order, remap, tree, reached = [0], [0] + [-1] * (size - 1), [], 1
        steps = list(zip(action, [sign * g for g in range(1, ngens + 1) for sign in (1, -1)]))
        for i, c in enumerate(order):
            for col, letter in steps:
                d = col[c]
                if remap[d] < 0:
                    remap[d] = reached
                    reached += 1
                    order.append(d)
                    tree.append((i, letter))
        if reached < size:
            raise TableMismatch("coset 0 does not reach every coset")
        self.renumbered = order != cosets
        if self.renumbered:
            action = [[remap[col[c]] for c in order] for col in action]
        self.ngens, self.size, self.action, self.tree = ngens, size, tuple(map(tuple, action)), tree
        self.subgroup = tuple(map(free_reduce, subgroup))

    @cached_property
    def rep_words(self) -> tuple[Word, ...]:
        """The representative word of each coset, spelled along the tree."""
        reps = [()]
        for p, x in self.tree:
            reps.append(reps[p] + (x,))
        return tuple(reps)

    def walk(self, cosets: Iterable[int], word: Iterable[int]) -> list[int]:
        """The coset that each of ``cosets`` reaches by reading ``word``."""
        image = list(cosets)
        for x in _word_to_cols(word):
            col = self.action[x]
            image = [col[c] for c in image]
        return image

    def coset_of_word(self, word: Iterable[int]) -> int:
        return self.walk([0], word)[0]

    def rep_images(self, other: CosetTable, start: int = 0) -> list[int]:
        """The coset of ``other`` that the representative word w of every
        coset walks to from coset ``start``, in one pass along the tree,
        parents first: ``other.coset_of_word(w)`` from start 0."""
        if other.ngens != self.ngens:
            raise ValueError("the tables act by different generators")
        image = [start] * self.size
        for c, (p, x) in enumerate(self.tree, 1):
            image[c] = other.action[_col(x)][image[p]]
        return image

    def check(self, g: GroupPresentation, subgroup: Iterable[Iterable[int]]) -> None:
        """Raise TableMismatch unless this is a coset action of g over the subgroup:
        every relator acts trivially and every subgroup word fixes coset 0."""
        if self.ngens != g.ngens or self.subgroup != tuple(free_reduce(w) for w in subgroup):
            raise TableMismatch("table belongs to another presentation or subgroup")
        cosets = list(range(self.size))
        for word in g.relators:
            if self.walk(cosets, word) != cosets:
                raise TableMismatch(f"relator {word} does not act trivially")
        for word in self.subgroup:
            if self.walk([0], word) != [0]:
                raise TableMismatch(f"subgroup word {word} moves coset 0")

    def induced_columns(self, n: int) -> list[list[int]]:
        """The forward columns of the action that the grading induces on Z/n x
        cosets (module docstring), the point a N + c being (a, c)."""
        shifts = [(a + 1) % n * self.size for a in range(n)]
        return [[s + d for s in shifts for d in col] for col in self.action[::2]]

    def check_regular(self, n: int) -> None:
        """Raise TableMismatch unless the induced action on Z/n x cosets is
        regular (regularity lemma, module docstring); at n = 1 it is the
        table's own action, which the constructor proves transitive."""
        columns = self.induced_columns(n)
        in_orbit = [False] * (n * self.size)
        in_orbit[0] = True
        orbit = [0]  # of point 0 under the chosen columns
        chosen: list[list[int]] = []
        for col in columns:
            if in_orbit[col[0]]:
                continue
            left_translation(columns, col[0])
            chosen.append(col)
            for c in orbit:  # close the orbit under every chosen column
                for x in chosen:
                    e = x[c]
                    if not in_orbit[e]:
                        in_orbit[e] = True
                        orbit.append(e)

    def to_json(self) -> dict:
        return {"generators": self.ngens, "forward": [list(col) for col in self.action[::2]]}

    @classmethod
    def from_json(cls, data: Mapping, subgroup: Iterable[Iterable[int]]) -> CosetTable:
        """The table over the subgroup whose forward columns ``data`` holds;
        a stored table must be standardized already."""
        table = cls(int(data["generators"]), data["forward"], subgroup)
        if table.renumbered:
            raise TableMismatch("the cosets are not numbered in BFS order")
        return table

    def __eq__(self, other: object) -> bool:
        # the words and the tree follow from the action
        return (isinstance(other, CosetTable) and self.ngens == other.ngens
                and self.action == other.action and self.subgroup == other.subgroup)

    def __repr__(self) -> str:
        return f"CosetTable(cosets={self.size}, ngens={self.ngens})"


def left_translation(columns: Sequence[Sequence[int]], d: int) -> list[int]:
    """The map on the points of a transitive action, given by its forward
    columns, that sends 0 to d and commutes with every column.

    It spreads from 0 -> d along the columns in BFS order, to every point;
    raises TableMismatch where two columns disagree, that is, where no such
    map exists. Commuting with a column, it commutes with its inverse too.
    """
    left = [-1] * len(columns[0])
    left[0] = d
    reached = [0]
    for c in reached:
        lc = left[c]
        for col in columns:
            e, want = col[c], col[lc]
            le = left[e]
            if le < 0:
                left[e] = want
                reached.append(e)
            elif le != want:
                raise TableMismatch(f"no map sends point 0 to {d} and commutes with every column")
    return left


class _Enumerator:
    """HLT coset enumeration with lookahead and table compression."""

    def __init__(self, ngens: int, relator_cols: list[tuple[int, ...]],
                 subgroup_cols: list[tuple[int, ...]], max_cosets: int):
        self.width = 2 * ngens
        self.relator_cols = relator_cols
        self.subgroup_cols = subgroup_cols
        self.max_cosets = max_cosets
        self.blank_row = array("i", [-1]) * self.width
        self.table = array("i", self.blank_row)
        self.parent = array("i", [0])
        self.nrows = 1
        self.dead: deque[int] = deque()

    def rep(self, c: int) -> int:
        parent = self.parent
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def _merge(self, a: int, b: int) -> None:
        a, b = self.rep(a), self.rep(b)
        if a != b:
            if a > b:
                a, b = b, a
            self.parent[b] = a
            self.dead.append(b)

    def _coincidence(self, a: int, b: int) -> None:
        table, width = self.table, self.width
        self._merge(a, b)
        while self.dead:
            e = self.dead.popleft()
            base = e * width
            for x in range(width):
                f = table[base + x]
                if f < 0:
                    continue
                table[base + x] = -1
                table[f * width + (x ^ 1)] = -1
                e1 = self.rep(e)
                f1 = self.rep(f)
                t = table[e1 * width + x]
                if t >= 0:
                    self._merge(f1, t)
                else:
                    t = table[f1 * width + (x ^ 1)]
                    if t >= 0:
                        self._merge(e1, t)
                    else:
                        table[e1 * width + x] = f1
                        table[f1 * width + (x ^ 1)] = e1

    def _define(self, coset: int, col: int) -> int:
        if self.nrows >= self.max_cosets:
            raise _CapHit
        new = self.nrows
        self.nrows += 1
        self.table.extend(self.blank_row)
        self.parent.append(new)
        self.table[coset * self.width + col] = new
        self.table[new * self.width + (col ^ 1)] = coset
        return new

    def scan(self, alpha: int, word: tuple[int, ...], fill: bool) -> None:
        table, width = self.table, self.width
        f = alpha
        b = alpha
        i = 0
        j = len(word) - 1
        while True:
            while i <= j:
                t = table[f * width + word[i]]
                if t < 0:
                    break
                f = t
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i:
                t = table[b * width + (word[j] ^ 1)]
                if t < 0:
                    break
                b = t
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return
            if j == i:
                table[f * width + word[i]] = b
                table[b * width + (word[i] ^ 1)] = f
                return
            if not fill:
                return
            self._define(f, word[i])

    def lookahead(self, start: int) -> None:
        """Scan every relator, without defining, at each live coset >= start."""
        parent = self.parent
        for c in range(start, self.nrows):
            if parent[c] != c:
                continue
            for word in self.relator_cols:
                self.scan(c, word, fill=False)
                if parent[c] != c:
                    break

    def compress(self, alpha: int) -> int:
        """Renumber the live cosets 0, 1, ... in order; returns alpha's new index.

        Killing coset e cleared the inverse f -> e of each entry e -> f, so once
        the dead queue is drained no live entry points at a dead coset and the
        renumbering needs no rep().
        """
        table, width, parent, nrows = self.table, self.width, self.parent, self.nrows
        # an array, so that no int object per coset stays alive through the
        # renumbering; remap[-1] keeps undefined entries undefined
        remap = array("i", [-1]) * (nrows + 1)
        live = new_alpha = 0
        for c in range(nrows):
            if c == alpha:
                new_alpha = live
            if parent[c] == c:
                if c != live:
                    table[live * width:(live + 1) * width] = table[c * width:(c + 1) * width]
                remap[c] = live
                live += 1
        del table[live * width:]
        for i in range(0, len(table), _CHUNK):  # in chunks, to bound the temporary list
            table[i:i + _CHUNK] = array("i", [remap[t] for t in table[i:i + _CHUNK]])
        self.parent = array("i", range(live))
        self.nrows = live
        return new_alpha

    def live_columns(self) -> list[Sequence[int]]:
        """The columns (x1, x1^-1, ...) on the live cosets, renumbered 0, 1, ...
        in order (no live entry names a dead coset, see ``compress``)."""
        live = [c for c, p in enumerate(self.parent) if c == p]
        remap = [-1] * (self.nrows + 1)  # remap[-1] keeps undefined entries undefined
        for i, c in enumerate(live):
            remap[c] = i
        columns = []
        for x in range(self.width):  # one at a time, sharing remap's ints: not one per entry
            col = self.table[x::self.width].tolist()
            columns.append(col if len(live) == self.nrows else [remap[col[c]] for c in live])
        return columns

    def run(self) -> None:
        """HLT from coset 0; returns once the pointer passes the last coset."""
        alpha = 0
        while True:
            try:
                if alpha == 0:
                    for word in self.subgroup_cols:
                        self.scan(0, word, fill=True)
                while alpha < self.nrows:
                    if self.parent[alpha] == alpha:
                        for word in self.relator_cols:
                            self.scan(alpha, word, fill=True)
                            if self.parent[alpha] != alpha:
                                break
                    alpha += 1
                return
            except _CapHit:
                # Every live coset below alpha has every relator closed at it (and
                # coset 0 every subgroup word), and coincidences keep them closed:
                # scans there change nothing, so both lookahead and HLT resume at alpha.
                self.lookahead(alpha)
                alpha = self.compress(alpha)
                if self.nrows >= 0.9 * self.max_cosets:
                    raise Overflow(self.max_cosets) from None


class _CapHit(Exception):
    pass


def todd_coxeter(g: GroupPresentation, subgroup: Sequence[Iterable[int]] = (),
                 max_cosets: int = DEFAULT_MAX_COSETS,
                 lift: Optional[Callable[[list[Sequence[int]]], CosetTable]] = None
                 ) -> CosetTable:
    """Enumerate the cosets of the given subgroup; raises Overflow past the cap.

    HLT strategy: relators are scanned in declaration order at each coset in
    ascending index order, with gaps filled by new definitions; enumeration ends
    when this pointer passes the last coset. Hitting the cap starts a round:
    relators are scanned without defining at the live cosets from the HLT
    pointer on (lookahead), the live cosets are renumbered (compress), and HLT
    resumes at the pointer's new index, since every coset below it is already
    closed. Rounds repeat until one leaves at least 90% of the cap in use, which
    raises Overflow. A finished table with an undefined entry also raises
    Overflow: the index is infinite.

    The finished columns, read off the live rows (``live_columns``) in the
    order (x1, x1^-1, x2, ...), go to the constructor (the forward ones), and
    the table is checked against g; or, where given, to ``lift`` (all of them).
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    subgroup_words = _subgroup_words(g, subgroup)
    enum = _Enumerator(g.ngens, [_word_to_cols(r) for r in g.relators],
                       [_word_to_cols(w) for w in subgroup_words if w], max_cosets)
    enum.run()
    columns = enum.live_columns()
    if any(-1 in col for col in columns):
        # Every relator is closed at every coset, so each generator that a
        # relator mentions has a total column; this gap is in one that none
        # mentions. Defining it would open an orbit that nothing closes.
        raise Overflow(max_cosets)
    if lift is not None:
        return lift(columns)
    table = CosetTable(g.ngens, columns[::2], subgroup_words)
    table.check(g, subgroup_words)
    return table


def _subgroup_words(g: GroupPresentation, subgroup: Iterable[Iterable[int]]) -> list[Word]:
    words = [free_reduce(w) for w in subgroup]
    if any(abs(letter) > g.ngens for w in words for letter in w):
        raise ValueError("subgroup word mentions an undeclared generator")
    return words


def quandle_from_cosets(t: CosetTable, meridian: Iterable[int]) -> FiniteQuandle:
    """The quandle on coset indices with op(i, j) = i . (rep_j^-1 m rep_j).

    Column 0 reads m. Each other column is built from its parent's along the
    tree of ``CosetTable.tree``: with rep_j = rep_p x for a letter x,
    col_j = A_x col_p A_x^-1, where A_x is the column of x.
    """
    columns = [t.walk(range(t.size), free_reduce(meridian))]
    for p, letter in t.tree:
        x = _col(letter)
        ax, col_p = t.action[x], columns[p]
        columns.append([ax[col_p[i]] for i in t.action[x ^ 1]])
    return FiniteQuandle(list(zip(*columns)))


def check_n(n: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_N."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}, not {n}")


def g_n_presentation(p, n: int) -> GroupPresentation:
    """Knot group modulo the n-th power of the meridian."""
    check_n(n)
    relators = list(p.group.relators)
    relators.append((p.meridian + 1,) * n)
    return GroupPresentation(p.group.ngens, relators)


@dataclass
class BranchedCover:
    """pi1(M_n), the kernel of the grading of G_n by meridian exponent sum mod
    n, read off G_n's coset table over <m>, and ord(l).

    Lemma. m has order n in G_n, so x -> <m> x is a bijection from pi1 onto
    the cosets of <m>. Proof: m has grade 1 and m^n is a relator, so m^k has
    grade k mod n and is 1 where n | k; so <m> meets pi1 in 1 alone, and the
    coset <m> g holds the n elements m^k g, one of each grade, one of them
    in pi1.

    So element x of pi1 is coset x, |pi1| = N, the number of cosets, and
    |G_n| = n N. Every Wirtinger relator has exponent sum 0, and so has the
    longitude (``wirtinger_with_peripherals`` corrects it by the writhe):
    l lies in pi1, so l^k lies in <m> only where l^k = 1, and ord(l) is the
    length of the orbit of coset 0 under l. l commutes with m, so
    <m> l g = l <m> g: x -> l x (``longitude_action``) sends coset c to the
    walk of rep_c from coset 0 l, read along the tree. ``galex``,
    GAlex(pi1, phi) with phi(g) = m^-1 g m, is read a column at a time;
    neither it nor ``longitude_action`` builds a table of pi1.
    """

    peripherals: PeripheralPresentation
    n: int
    table: CosetTable
    longitude_order: int

    @property
    def gn_order(self) -> int:
        return self.n * self.table.size

    @property
    def pi1_order(self) -> int:
        return self.table.size

    @cached_property
    def galex(self) -> GAlexColumns:
        return GAlexColumns(self)

    @cached_property
    def longitude_action(self) -> tuple[int, ...]:
        """x -> l x on pi1(M_n)."""
        t = self.table
        return tuple(t.rep_images(t, t.coset_of_word(self.peripherals.longitude)))


class GAlexColumns:
    """GAlex(pi1(M_n), phi), x * y = phi(x y^-1) y with phi(g) = m^-1 g m, on
    the elements of a ``BranchedCover``, one column at a time (the lemma of
    ``qf.verify`` proves it a quandle). Column y is x -> m^-1 x (y^-1 m y),
    whose coset <m> x (y^-1 m y) is the walk of rep_y^-1 m rep_y from coset
    x: rep_y is m^k y for some k. ``generators`` is the greedy W of
    ``qf.quandles``; columns are built when first read and kept.
    """

    def __init__(self, cover: BranchedCover):
        # the cover's parts, not the cover, which keeps this view: no cycle
        self.size = cover.pi1_order
        self._table = cover.table
        self._meridian = cover.peripherals.meridian + 1
        self._columns: dict[int, tuple[int, ...]] = {}

    @cached_property
    def generators(self) -> tuple[int, ...]:
        return tuple(_generating_set(self))

    def column(self, y: int) -> tuple[int, ...]:
        """The translation by y as a mapping x -> x * y."""
        col = self._columns.get(y)
        if col is None:
            t = self._table
            rep = t.rep_words[y]
            word = free_reduce(invert_word(rep) + (self._meridian,) + rep)
            col = self._columns[y] = tuple(t.walk(range(t.size), word))
        return col


def branched_cover(p: PeripheralPresentation, n: int, t: CosetTable) -> BranchedCover:
    """pi1(M_n) of the knot p, read off the coset table of G_n over <m>."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if t.subgroup != ((p.meridian + 1,),):
        raise ValueError("need the coset table of G_n over <m>")
    c = t.coset_of_word(p.longitude)
    order = 1
    while c != 0:
        (c,) = t.walk([c], p.longitude)
        order += 1
    return BranchedCover(p, n, t, order)


def exponent_sums(word: Iterable[int]) -> dict[int, int]:
    """The nonzero exponent sums of a word, by 0-based generator: one row of
    the relation matrix of the abelianization."""
    row: dict[int, int] = {}
    for letter in word:
        c = abs(letter) - 1
        row[c] = row.get(c, 0) + (1 if letter > 0 else -1)
    return {c: v for c, v in row.items() if v}


def abelianization(g: GroupPresentation) -> AbelianGroup:
    """Abelianization from the Smith form of the relator exponent matrix."""
    return abelian_group(SparseIntMatrix(len(g.relators), g.ngens,
                                         [exponent_sums(w) for w in g.relators]))


def trefoil_branched_presentation(n: int) -> tuple[GroupPresentation, Word]:
    """Cyclic presentation <x_1..x_n | x_{i-1} = x_i x_{i-2}> with its longitude word.

    Indices are mod n; the longitude is x_1 x_0^-1 x_1^-1 x_0 read at i = 1.
    """
    if n < 2:
        raise ValueError("n must be at least 2")

    def gen(i: int) -> int:
        return (i - 1) % n + 1

    relators = []
    for i in range(1, n + 1):
        # x_{i-1} x_{i-2}^-1 x_i^-1
        relators.append((gen(i - 1), -gen(i - 2), -gen(i)))
    longitude = (gen(1), -gen(0), -gen(1), gen(0))
    return GroupPresentation(n, relators), longitude
