"""Tietze simplification of presentations, and coset enumeration through it.

A Wirtinger presentation has one generator per arc, and so one pair of coset
table columns per arc. ``simplify`` eliminates generators by Tietze moves
(Havas, Kenne, Richardson & Robertson, "A Tietze transformation program",
1984; Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005),
which leaves 2-3 generators on the knot groups here. ``enumerate_cosets``
enumerates over the result and lifts the table back to the original
generators, so callers see the table that ``todd_coxeter`` would give.

``reidemeister_schreier`` presents the subgroup of a coset table, and
``branched_cover_certificate`` uses it to prove pi1 of a cyclic branched cover
infinite before any enumeration to a cap is tried.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from qf.groups import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    GroupPresentation,
    Overflow,
    Word,
    _standardized_table,
    _subgroup_words,
    abelianization,
    cyclic_reduce,
    free_reduce,
    invert_word,
    todd_coxeter,
)
from qf.intlinalg import AbelianGroup

# Bounds the work of one certificate, in (cosets x total relator length): that
# of each Reidemeister-Schreier pass, and that of the enumeration of the abelian
# quotient between them, which scans every relator at each coset it defines.
CERTIFICATE_WORK = 10 ** 5


def _substitute(word: Iterable[int], rewrite: Sequence[Optional[Word]]) -> Word:
    """Replace each generator k by rewrite[k-1] and freely reduce."""
    out: list[int] = []
    for letter in word:
        image = rewrite[abs(letter) - 1]
        out.extend(image if letter > 0 else invert_word(image))
    return free_reduce(out)


def _solve(relator: Word, x: int) -> Word:
    """Generator x as a word in the rest of a relator in which x occurs once."""
    p = next(i for i, letter in enumerate(relator) if abs(letter) == x)
    rest = relator[p + 1:] + relator[:p]  # relator ~ x^e rest, so x^e = rest^-1
    return invert_word(rest) if relator[p] > 0 else rest


def _canonical(relator: Word) -> Word:
    """The least rotation of the relator or of its inverse: equal exactly for
    relators that are cyclic permutations of each other or of the inverse."""
    return min(w[i:] + w[:i] for w in (relator, invert_word(relator)) for i in range(len(w)))


def _solvable(relator: Word, known: set[int]) -> Optional[int]:
    """The generator the relator can be solved for, given the known ones: its
    only letter outside ``known``, if it has exactly one; else None."""
    free = [abs(letter) for letter in relator if abs(letter) not in known]
    return free[0] if len(free) == 1 else None


def _closure(relators: Sequence[Word], known: set[int]) -> set[int]:
    """``known`` and every generator that solving relators one by one reaches."""
    known = set(known)
    while True:
        solved = {_solvable(w, known) for w in relators} - {None}
        if not solved:
            return known
        known |= solved


def simplify(pres: GroupPresentation, keep: Iterable[int]
             ) -> tuple[GroupPresentation, tuple[Word, ...]]:
    """Eliminate generators by Tietze moves; never eliminates those in ``keep``.

    Returns the simplified presentation and, for each original generator, a
    word in the simplified one's generators that it equals. The generators
    left are the kept original ones, renumbered 1, 2, ... in their original
    order, so a kept generator 1 stays generator 1. Deterministic:
      1. propagation: solve the first unused relator that holds exactly one
         generator not yet expressed, once, for that generator. When no
         relator fires, keep one more generator: one from which propagation
         reaches every generator, if there is one; among those (or else among
         all) the one in the most unused relators with exactly two
         unexpressed generators; the lowest index on a tie;
      2. greedy: while some kept generator outside ``keep`` occurs once in a
         relator, eliminate the one whose substitution adds the least total
         relator length (ties by generator, then relator index);
      3. of relators that are cyclic permutations of each other or of their
         inverses the first is kept; the rest are stably sorted by length.
    """
    protected = frozenset(keep)
    known = set(protected)
    kept = set(protected)
    expr: list[Optional[Word]] = [(g,) if g in known else None for g in range(1, pres.ngens + 1)]
    relators = pres.relators
    unused = list(range(len(relators)))
    while len(known) < pres.ngens:
        i = next((i for i in unused if _solvable(relators[i], known) is not None), None)
        if i is not None:
            x = _solvable(relators[i], known)
            expr[x - 1] = _substitute(_solve(relators[i], x), expr)
            unused.remove(i)
        else:
            weight = Counter()
            for i in unused:
                free = {abs(letter) for letter in relators[i]} - known
                if len(free) == 2:
                    weight.update(free)
            x = max((g for g in range(1, pres.ngens + 1) if g not in known),
                    key=lambda g: (len(_closure(relators, known | {g})) == pres.ngens,
                                   weight[g], -g))
            expr[x - 1] = (x,)
            kept.add(x)
        known.add(x)

    rels = [w for w in (cyclic_reduce(_substitute(relators[i], expr)) for i in unused) if w]
    while True:
        best = None
        for x in sorted(kept - protected):
            counts = [sum(abs(letter) == x for letter in w) for w in rels]
            total = sum(counts)
            for j, w in enumerate(rels):
                if counts[j] == 1:
                    added = (total - 1) * (len(w) - 2) - len(w)
                    if best is None or added < best[0]:
                        best = (added, x, j)
        if best is None:
            break
        _, x, j = best
        image = [(g,) for g in range(1, pres.ngens + 1)]
        image[x - 1] = _solve(rels[j], x)
        del rels[j]
        rels = [w for w in (cyclic_reduce(_substitute(w, image)) for w in rels) if w]
        expr = [_substitute(e, image) for e in expr]
        kept.discard(x)

    number = {g: i + 1 for i, g in enumerate(sorted(kept))}
    renumber = [(number[g],) if g in number else None for g in range(1, pres.ngens + 1)]
    rels = [_substitute(w, renumber) for w in rels]
    lengths = Counter(map(len, rels))
    distinct: dict[Word, Word] = {}
    for w in rels:
        # equivalent relators have equal lengths, so one of unique length is its own key
        distinct.setdefault(_canonical(w) if lengths[len(w)] > 1 else w, w)
    rels = sorted(distinct.values(), key=len)
    return (GroupPresentation(len(kept), rels),
            tuple(_substitute(e, renumber) for e in expr))


def enumerate_cosets(pres: GroupPresentation, subgroup: Sequence[Iterable[int]] = (),
                     max_cosets: int = DEFAULT_MAX_COSETS,
                     simplified: Optional[tuple[GroupPresentation, tuple[Word, ...]]] = None
                     ) -> CosetTable:
    """The table ``todd_coxeter(pres, subgroup, max_cosets)`` gives, found faster.

    Simplifies the presentation (keeping generator 1; ``simplified`` passes in
    a result of ``simplify(pres, (1,))`` already at hand), enumerates the cosets of
    the rewritten subgroup there (``max_cosets`` bounds that enumeration, and
    Overflow comes from it), sets each original generator's column to the
    action of its rewrite word, then standardizes and checks against ``pres``
    as ``todd_coxeter`` does. A standardized table is determined by the action
    on cosets, so the result, representative words included, is the one that
    enumerating ``pres`` itself gives.
    """
    subgroup_words = _subgroup_words(pres, subgroup)
    small_pres, rewrite = simplified or simplify(pres, (1,) if pres.ngens else ())
    small = todd_coxeter(small_pres, [_substitute(w, rewrite) for w in subgroup_words], max_cosets)
    size, width = small.size, 2 * pres.ngens
    table = [0] * (size * width)
    for g, word in enumerate(rewrite):
        for c, d in enumerate(small.walk(range(size), word)):
            table[c * width + 2 * g] = d
            table[d * width + 2 * g + 1] = c
    return _standardized_table(pres, subgroup_words, table, width, size, max_cosets)


def reidemeister_schreier(pres: GroupPresentation, table: CosetTable) -> GroupPresentation:
    """A presentation of the subgroup H whose coset table (checked against pres)
    is given (Reidemeister-Schreier; Sims, Computation with Finitely Presented
    Groups, 1994, ch. 9).

    Each representative word is its parent's plus one letter, so they span a
    tree in the coset graph. Each edge c --x--> c.x of a generator x that is
    not in the tree is one generator of H, numbered in the order of (c, x);
    each relator read from each coset, with tree edges dropped, is a relator.
    """
    if table.ngens != pres.ngens:
        raise ValueError("the table belongs to a presentation with other generators")
    k, action = pres.ngens, table.action
    schreier = [-1] * (table.size * k)  # edge (c, x) -> generator of H, 0 on the tree
    for d, word in enumerate(table.rep_words[1:], 1):
        x = abs(word[-1])
        tail = action[2 * x - 1][d] if word[-1] > 0 else d  # where the tree edge starts
        schreier[tail * k + x - 1] = 0
    ngens = 0
    for e, s in enumerate(schreier):
        if s:
            ngens += 1
            schreier[e] = ngens
    relators = []
    for relator in pres.relators:
        for start in range(table.size):
            c, word = start, []
            for letter in relator:
                if letter > 0:
                    s = schreier[c * k + letter - 1]
                    c = action[2 * letter - 2][c]
                else:
                    c = action[-2 * letter - 1][c]
                    s = -schreier[c * k - letter - 1]
                if s:
                    word.append(s)
            relators.append(word)
    return GroupPresentation(ngens, relators)


def grading_kernel_table(pres: GroupPresentation, n: int) -> CosetTable:
    """The coset table of the kernel of pres -> Z/n, every generator -> 1.

    Coset c is the grade c, reached by generator 1 c times; each generator acts
    as +1 mod n. The subgroup words are the kernel's Schreier generators.
    Raises TableMismatch when a relator's exponent sum is not 0 mod n.
    """
    step = [(c + 1) % n for c in range(n)]
    back = [(c - 1) % n for c in range(n)]
    reps = [(1,) * c for c in range(n)]
    kernel = [w for w in (free_reduce(reps[c] + (x,) + invert_word(reps[(c + 1) % n]))
                          for c in range(n) for x in range(1, pres.ngens + 1)) if w]
    table = CosetTable(pres.ngens, [step, back] * pres.ngens, reps, kernel)
    table.check(pres, kernel)
    return table


@dataclass(frozen=True)
class InfinitenessCertificate:
    """pi1(M_n) has a subgroup of the given index whose abelianization has
    positive free rank, so pi1(M_n) is infinite."""

    n: int
    index: int
    abelianization: AbelianGroup

    def __str__(self) -> str:
        if self.index == 1:
            return f"pi1(M_{self.n}) has abelianization {self.abelianization}"
        return (f"pi1(M_{self.n}) has a subgroup of index {self.index} "
                f"with abelianization {self.abelianization}")


def _letters(pres: GroupPresentation) -> int:
    return sum(map(len, pres.relators))


def branched_cover_certificate(pres: GroupPresentation, n: int
                               ) -> Optional[InfinitenessCertificate]:
    """A proof that pi1(M_n) is infinite, or None where none is found.

    pres presents G_n of a knot by meridians: a Wirtinger presentation with a
    meridian's n-th power, or its ``simplify`` (which keeps only original
    generators). pi1(M_n), of the n-fold cyclic branched cover, is the kernel
    of G_n -> Z/n, so Reidemeister-Schreier over that kernel presents it; its
    abelianization is H1(M_n). If that is infinite it is the certificate. If it
    is finite and not trivial, pi1 is simplified, its abelian quotient
    pi1 / pi1' is enumerated (pi1 plus the commutators of its generators), and
    the derived subgroup pi1', of index |H1(M_n)|, is presented and abelianized
    in turn. A finite-index subgroup with infinite abelianization makes
    pi1(M_n) infinite, and so Q_n (Hoste & Shanahan, "Links with finite
    n-quandles", 2017). Gives up (None) where the work would pass
    CERTIFICATE_WORK.
    """
    if n < 2 or n * _letters(pres) > CERTIFICATE_WORK:
        return None
    pi1 = reidemeister_schreier(pres, grading_kernel_table(pres, n))
    h1 = abelianization(pi1)
    if h1.free_rank:
        return InfinitenessCertificate(n, 1, h1)
    index = h1.order()
    if index == 1:
        return None
    pi1, _ = simplify(pi1, ())
    gens = range(1, pi1.ngens + 1)
    abelian = GroupPresentation(pi1.ngens, pi1.relators + tuple(
        (a, b, -a, -b) for a in gens for b in gens if a < b))
    cap = CERTIFICATE_WORK // _letters(abelian)  # HLT scans every relator at each coset
    if cap < index:
        return None
    try:
        quotient = todd_coxeter(abelian, (), cap)
    except Overflow:
        return None
    derived = abelianization(reidemeister_schreier(pi1, quotient))
    return InfinitenessCertificate(n, index, derived) if derived.free_rank else None
