"""Tietze simplification of presentations, and coset enumeration through it.

A Wirtinger presentation has one generator per arc, and so one pair of coset
table columns per arc. ``simplify`` eliminates generators by Tietze moves
(Havas, Kenne, Richardson & Robertson, "A Tietze transformation program",
1984; Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005),
which leaves 2-3 generators on the knot groups here. ``enumerate_cosets``
enumerates over the result and lifts the table back to the original
generators, so callers see the table that ``todd_coxeter`` would give.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Sequence

from qf.groups import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    GroupPresentation,
    Word,
    _standardized_table,
    _subgroup_words,
    _word_to_cols,
    cyclic_reduce,
    free_reduce,
    invert_word,
    todd_coxeter,
)


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
    distinct: dict[Word, Word] = {}
    for w in rels:
        w = _substitute(w, renumber)
        distinct.setdefault(_canonical(w), w)
    rels = sorted(distinct.values(), key=len)
    return (GroupPresentation(len(kept), rels),
            tuple(_substitute(e, renumber) for e in expr))


def enumerate_cosets(pres: GroupPresentation, subgroup: Sequence[Iterable[int]] = (),
                     max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """The table ``todd_coxeter(pres, subgroup, max_cosets)`` gives, found faster.

    Simplifies the presentation (keeping generator 1), enumerates the cosets of
    the rewritten subgroup there (``max_cosets`` bounds that enumeration, and
    Overflow comes from it), sets each original generator's column to the
    action of its rewrite word, then standardizes and checks against ``pres``
    as ``todd_coxeter`` does. A standardized table is determined by the action
    on cosets, so the result, representative words included, is the one that
    enumerating ``pres`` itself gives.
    """
    subgroup_words = _subgroup_words(pres, subgroup)
    small_pres, rewrite = simplify(pres, (1,) if pres.ngens else ())
    small = todd_coxeter(small_pres, [_substitute(w, rewrite) for w in subgroup_words], max_cosets)
    size, width = small.size, 2 * pres.ngens
    table = [0] * (size * width)
    for g, word in enumerate(rewrite):
        image = list(range(size))
        for x in _word_to_cols(word):
            col = small.action[x]
            image = [col[c] for c in image]
        for c, d in enumerate(image):
            table[c * width + 2 * g] = d
            table[d * width + 2 * g + 1] = c
    return _standardized_table(pres, subgroup_words, table, width, size, max_cosets)
