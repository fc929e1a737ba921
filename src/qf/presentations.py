"""Tietze simplification of presentations, and coset enumeration through it.

A Wirtinger presentation has one generator per arc, and so one pair of coset
table columns per arc. ``simplify`` eliminates generators by Tietze moves
(Havas, Kenne, Richardson & Robertson, "A Tietze transformation program",
1984; Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005),
which leaves 2-3 generators on the knot groups here. ``enumerate_cosets``
enumerates over the result and lifts the table back to the original
generators, so callers see the table that ``todd_coxeter`` would give. Each
Tietze move is linear in its words: ``_substitute`` reduces on a stack as it appends,
and ``_canonical`` finds least rotations by Duval's scan (J. Algorithms 4, 1983).

``reidemeister_schreier`` presents the subgroup of a coset table, and
``subgroup_abelianization`` abelianizes it along the same walk without
building the presentation. The walk reads only columns and a tree of
representatives (``_schreier_steps``), so ``grading_kernel_presentation``
presents the kernel of a grading onto Z/n over its n grades with no table.
``branched_cover_certificate`` uses them to prove pi1 of a cyclic branched
cover infinite before any enumeration to a cap is tried; it enumerates
nothing itself, since the one coset table it needs between its two passes,
that of pi1 / pi1', is the action of H1 by translations, read off the
character map of the scan below (``abelian_quotient_table``).

``shorten`` is the substring move of the same Tietze program: where a relator
r holds a piece u of a cyclic conjugate c = u v of another relator or of its
inverse, with |u| > |v|, u is replaced by v^-1. As c = 1 in the group, u =
v^-1 there, and the new relator differs from r by a conjugate of c^+-1, so
the normal closure of the relators, and so the group, is unchanged. It runs
only in the certificate's second pass, on pi1(M_n) after ``simplify`` and
before simplifying it again: the index |H1(M_n)| and pi1'^ab are invariants
of the group, so the certificate is the same, read off a smaller relation
matrix. ``CERTIFICATE_WORK`` reads pi1 before the move, so the rows that get
a certificate are the same. ``simplify`` itself does not shorten: its result
feeds the enumerator, whose capped runs are pinned.

Before that second pass the certificate scans the characters of A = H1(M_n)
(``_rank_deficiencies``), which proves on most finite rows that it would
find nothing.

Lemma. Let pi1 = <x_1..x_g | r_1..r_m> with A = pi1 / pi1' finite, e = exp A,
p a prime = 1 mod e and zeta in F_p of order e. For a character chi of A,
with values in the e-th roots of unity of C, let J(chi) be the m x g matrix
of the Fox derivatives chi(d r_i / d x_j), over Z[zeta_e] with zeta_e =
exp(2 pi i / e), and J_p(chi) the same matrix over F_p with zeta for zeta_e.
If J_p(chi) has rank g - 1 at one character of each Galois orbit
{chi^a : a prime to the order of chi} of nontrivial characters, then
pi1'^ab is finite.

Proof. pi1' is the kernel of pi1 -> A, so pi1'^ab = H1 of the A-cover X~ of
the presentation complex X, and its free rank is dim H1(X~; C). The cellular
chains of X~ are C[A]^m -> C[A]^g -> C[A], by the Fox Jacobian and by the
column (x_j - 1) (Fox, "Free differential calculus", Ann. of Math. 57,
1953). As A is abelian, C[A] is the product of one copy of C per character,
so the complex splits into C^m -> C^g -> C with the maps J(chi) and
v = (chi(x_j) - 1)_j, and dim H1(X~; C) is the sum over chi of
g - rank v - rank J(chi). At the trivial character v = 0 and J is the
exponent-sum matrix, of rank g as A is finite: no term, so it needs no
check. At any other v != 0, as the x_j generate A, and J(chi) v = 0 by the
fundamental formula sum_j (d r / d x_j)(x_j - 1) = r - 1, so rank J(chi)
<= g - 1 and the term is g - 1 - rank J(chi). J(chi^a) is J(chi) with the
automorphism zeta_e -> zeta_e^a applied to its entries, so it has the same
rank. Last, p = 1 mod e splits completely in Z[zeta_e]: the primes above p
match the roots of the e-th cyclotomic polynomial mod p, which are the
elements of order e of F_p, and reduction modulo the one that matches zeta
is a ring map Z[zeta_e] -> F_p that takes J(chi) to J_p(chi). A minor that
does not vanish mod p does not vanish over C, so rank J(chi) >= rank
J_p(chi) = g - 1 at each chosen character; so every term of its orbit, and
so every term, is 0.

The same sum with ranks mod p over every character is dim H1(X~; F_p), as
F_p[A] is also a product of copies of F_p when p = 1 mod e (p does not
divide |A|, and F_p holds the e-th roots of unity); it is at least the free
rank, and the tests compare it with the exact pass. The character map is
read off the torsion map of one Smith form of the transposed exponent-sum
matrix, the same form that gives H1 (``_abelianization_with_characters``).
A rank that is not g - 1 only sends the certificate on to the exact pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from heapq import heappop, heappush
from itertools import count, islice, product
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Iterator, Optional, Sequence

from qf.groups import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    GroupPresentation,
    TableMismatch,
    Word,
    _col,
    _strip_cyclic_ends,
    _subgroup_words,
    _word_to_cols,
    cyclic_reduce,
    exponent_sums,
    invert_word,
    todd_coxeter,
)
from qf.intlinalg import (
    AbelianGroup,
    SparseIntMatrix,
    abelian_group,
    rank_mod_p,
    smith_normal_form,
)

# Bounds the work of one certificate, in (cosets x total relator length): that
# of each Reidemeister-Schreier pass, that of the character scan (one Fox
# Jacobian of the letters of pi1, as Reidemeister-Schreier gives it, per orbit
# of characters), and that of the check of the table of pi1 / pi1' after it,
# which walks every relator from every coset.
CERTIFICATE_WORK = 10 ** 5

# The character scan of the certificate works modulo the least prime above
# this that is 1 mod exp H1(M_n) (``_character_prime``): fixed, so that its
# verdicts are reproducible.
CHARACTER_PRIME_FLOOR = 2 ** 30


def _substitute(word: Iterable[int], rewrite: Sequence[Optional[Word]]) -> Word:
    """Replace each generator k by rewrite[k-1], freely reducing on a stack
    as the letters are appended. Each inverse image is built once."""
    inverses: dict[int, Word] = {}
    out = [0]  # a sentinel that no letter cancels
    for letter in word:
        if letter > 0:
            image = rewrite[letter - 1]
        elif (image := inverses.get(letter)) is None:
            image = inverses[letter] = invert_word(rewrite[-letter - 1])
        for x in image:
            if out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    del out[0]
    return tuple(out)


def _tally(word: Word) -> dict[int, int]:
    """How often each generator occurs in the word, in order of first occurrence."""
    tally: dict[int, int] = {}
    for letter in word:
        g = abs(letter)
        tally[g] = tally.get(g, 0) + 1
    return tally


def _solve(relator: Word, x: int) -> Word:
    """Generator x as a word in the rest of a relator in which x occurs once."""
    p = next(i for i, letter in enumerate(relator) if abs(letter) == x)
    rest = relator[p + 1:] + relator[:p]  # relator ~ x^e rest, so x^e = rest^-1
    return invert_word(rest) if relator[p] > 0 else rest


def _canonical(relator: Word) -> Word:
    """The least rotation of the relator or of its inverse: equal exactly for
    relators that are cyclic permutations of each other or of the inverse;
    linear in the length, by Duval's scan (``_least_rotation``)."""
    return min(_least_rotation(relator), _least_rotation(invert_word(relator)))


def _least_rotation(w: Word) -> Word:
    """The least rotation of w: it starts at the last power of a Lyndon factor
    of w w (ww[i:j], of period j - k) that starts in w, by Duval (J. Algorithms
    4, 1983). A pass compares at most twice the letters by which i advances."""
    n, ww = len(w), w + w
    i = start = 0
    while i < n:
        start, j, k = i, i + 1, i
        while j < 2 * n and ww[k] <= ww[j]:
            k = i if ww[k] < ww[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return ww[start:start + n]


def _propagate(pres: GroupPresentation, protected: frozenset[int]
               ) -> tuple[set[int], list[Optional[Word]], list[Word]]:
    """Step 1 of ``simplify``: the kept generators, each generator's word in
    them, and the unused relators rewritten in them, cyclically reduced, the
    empty ones dropped. Each relator's count of unexpressed letters is kept up
    to date, so a step costs the letters of the relators it touches, and the
    propagation from each candidate to keep one pass over the relator letters.
    """
    known = set(protected)
    kept = set(protected)
    expr: list[Optional[Word]] = [(g,) if g in known else None for g in range(1, pres.ngens + 1)]
    relators = pres.relators
    # tallies[i]: each generator of relator i, with its occurrences there;
    # occurs[g]: (relator, occurrences of g in it); free[i]: how many letters
    # of relator i are not yet expressed; ready: the relators with exactly one,
    # a heap with lazy deletion (a count only falls, a used relator's to 0)
    tallies = [_tally(w) for w in relators]
    occurs: list[list[tuple[int, int]]] = [[] for _ in range(pres.ngens + 1)]
    for i, tally in enumerate(tallies):
        for g, k in tally.items():
            occurs[g].append((i, k))
    free = [sum(k for g, k in tally.items() if g not in known) for tally in tallies]
    ready = [i for i, f in enumerate(free) if f == 1]
    used = [False] * len(relators)

    def reaches_all(g: int) -> bool:
        """Whether solving relators one by one from ``known`` and g reaches
        every generator: the closure, in one pass over the relator letters."""
        count, reached, stack = free[:], known | {g}, [g]
        while stack:
            for i, k in occurs[stack.pop()]:
                count[i] -= k
                if count[i] == 1:  # none where it is reached and not yet read
                    for y in tallies[i].keys() - reached:
                        reached.add(y)
                        stack.append(y)
        return len(reached) == pres.ngens

    while len(known) < pres.ngens:
        while ready and free[ready[0]] != 1:
            heappop(ready)
        if ready:
            i = heappop(ready)
            x = next(g for g in tallies[i] if g not in known)
            expr[x - 1] = _substitute(_solve(relators[i], x), expr)
            used[i] = True
        else:
            weight = Counter()
            for i, tally in enumerate(tallies):
                if free[i] >= 2 and len(two := {g for g in tally if g not in known}) == 2:
                    weight.update(two)
            order = sorted((g for g in range(1, pres.ngens + 1) if g not in known),
                           key=lambda g: (-weight[g], g))
            x = next((g for g in order if reaches_all(g)), order[0])
            expr[x - 1] = (x,)
            kept.add(x)
        known.add(x)
        for i, k in occurs[x]:
            free[i] -= k
            if free[i] == 1:
                heappush(ready, i)

    rels = [w for w in (_strip_cyclic_ends(_substitute(w, expr))
                        for i, w in enumerate(relators) if not used[i]) if w]
    return kept, expr, rels


def simplify(pres: GroupPresentation, keep: Iterable[int]
             ) -> tuple[GroupPresentation, tuple[Word, ...]]:
    """Eliminate generators by Tietze moves; never eliminates those in ``keep``.

    Returns the simplified presentation and, for each original generator, a
    word in the simplified one's generators that it equals. The generators
    left are the kept original ones, renumbered 1, 2, ... in their original
    order, so a kept generator 1 stays generator 1. Deterministic:
      1. propagation (``_propagate``): solve the first unused relator that
         holds exactly one generator not yet expressed, once, for that
         generator. When no relator fires, keep one more generator: one from
         which propagation reaches every generator, if there is one; among
         those (or else among all) the one in the most unused relators with
         exactly two unexpressed generators; the lowest index on a tie;
      2. greedy: while some kept generator outside ``keep`` occurs once in a
         relator, eliminate the one whose substitution adds the least total
         relator length (ties by generator, then relator index);
      3. of relators that are cyclic permutations of each other or of their
         inverses the first is kept; the rest are stably sorted by length.
    Each step is linear in the words it reads and writes; step 3 finds least
    rotations by Duval's scan (``_canonical``).
    """
    protected = frozenset(keep)
    kept, expr, rels = _propagate(pres, protected)
    while True:
        best = None
        tallies = [_tally(w) for w in rels]
        for x in sorted(kept - protected):
            total = sum(tally.get(x, 0) for tally in tallies)
            for j, (w, tally) in enumerate(zip(rels, tallies)):
                if tally.get(x) == 1:
                    added = (total - 1) * (len(w) - 2) - len(w)
                    if best is None or added < best[0]:
                        best = (added, x, j)
        if best is None:
            break
        _, x, j = best
        image = [(g,) for g in range(1, pres.ngens + 1)]
        image[x - 1] = _solve(rels[j], x)
        del rels[j]
        rels = [w for w in (_strip_cyclic_ends(_substitute(w, image)) for w in rels) if w]
        expr = [_substitute(e, image) for e in expr]
        kept.discard(x)

    number = {g: i + 1 for i, g in enumerate(sorted(kept))}
    renumber = [(number[g],) if g in number else None for g in range(1, pres.ngens + 1)]
    rels = sorted(_distinct((_substitute(w, renumber) for w in rels), _canonical), key=len)
    return (GroupPresentation(len(kept), rels),
            tuple(_substitute(e, renumber) for e in expr))


def _distinct(relators: Iterable[Word], canonical: Callable[[Word], Word]) -> list[Word]:
    """The nonempty relators, each but the first of those that are cyclic
    permutations of each other or of their inverses dropped (step 3 of
    ``simplify``), in their order; ``canonical`` is ``_canonical`` or a memo
    of it."""
    rels = [w for w in relators if w]
    lengths = Counter(map(len, rels))
    distinct: dict[Word, Word] = {}
    for w in rels:
        # equivalent relators have equal lengths, so one of unique length is its own key
        distinct.setdefault(canonical(w) if lengths[len(w)] > 1 else w, w)
    return list(distinct.values())


def _pieces(s: Word) -> dict[Word, list[Word]]:
    """The cyclic conjugates c of s and of s^-1, each once, keyed by their
    first |s| // 2 + 1 letters: a piece u of c = u v with |u| > |v| starts
    with its key."""
    m = len(s) // 2 + 1
    index: dict[Word, list[Word]] = {}
    for w in (s, invert_word(s)):
        for i in range(len(w)):
            c = w[i:] + w[:i]
            conjugates = index.setdefault(c[:m], [])
            if c not in conjugates:
                conjugates.append(c)
    return index


def _shortening(r: Word, s: Word, index: dict[Word, list[Word]]) -> Optional[Word]:
    """r with its first piece u of a conjugate c = u v of s^+-1, |u| > |v|, the
    longest at that position, replaced by v^-1 and cyclically reduced; None
    where r holds no such piece."""
    m, n = len(s) // 2 + 1, len(r)
    if n < m:
        return None
    rr = r + r[:m - 1]
    for i in range(n):
        conjugates = index.get(rr[i:i + m])
        if conjugates is None:
            continue
        rot = r[i:] + r[:i]
        longest, best = m, conjugates[0]
        for c in conjugates:
            k = m
            while k < len(c) and k < n and rot[k] == c[k]:
                k += 1
            if k > longest:
                longest, best = k, c
        return cyclic_reduce(invert_word(best[longest:]) + rot[longest:])
    return None


def shorten(pres: GroupPresentation) -> GroupPresentation:
    """The same group, its relators shortened by the substring move of the
    Tietze program (Havas, Kenne, Richardson & Robertson 1984).

    Where a relator r holds, cyclically, a piece u of a cyclic conjugate
    c = u v of another relator s or of s^-1 with |u| > |v|, u is replaced by
    v^-1 in r: c = 1 in the group, so u = v^-1 there, and the new relator
    differs from r by a conjugate of c^+-1, so the normal closure of the
    relators is unchanged. The result is cyclically reduced, and empty and
    duplicate relators are dropped (``_distinct``). The move repeats until
    nothing shortens; each step shortens the total length, so it ends.
    Deterministic: the shortest s first (the earliest on a tie), then r in
    list order, the first position in r, and the longest u there. Each s is
    indexed by the first |s| // 2 + 1 letters of its conjugates
    (``_pieces``), so a pass over r costs one lookup per position. The
    generators are kept, even one that no relator mentions any more.
    """
    canonical = cache(_canonical)  # most relators outlive a step
    rels = _distinct(pres.relators, canonical)
    indexes: dict[Word, dict[Word, list[Word]]] = {}  # _pieces of each s
    done: set[tuple[Word, Word]] = set()  # (s, r) where s shortens nothing of r
    while (step := _first_shortening(rels, indexes, done)) is not None:
        j, shorter = step
        rels[j] = shorter
        rels = _distinct(rels, canonical)
    return GroupPresentation(pres.ngens, rels)


def _first_shortening(rels: list[Word], indexes: dict[Word, dict[Word, list[Word]]],
                      done: set[tuple[Word, Word]]) -> Optional[tuple[int, Word]]:
    """The first step of ``shorten``: the index of r and its shortened word."""
    for k in sorted(range(len(rels)), key=lambda k: len(rels[k])):
        s = rels[k]
        index = indexes.get(s)
        if index is None:
            index = indexes[s] = _pieces(s)
        for j, r in enumerate(rels):
            if j != k and (s, r) not in done:
                shorter = _shortening(r, s, index)
                if shorter is not None:
                    return j, shorter
                done.add((s, r))
    return None


def enumerate_cosets(pres: GroupPresentation, subgroup: Sequence[Iterable[int]] = (),
                     max_cosets: int = DEFAULT_MAX_COSETS,
                     simplified: Optional[tuple[GroupPresentation, tuple[Word, ...]]] = None
                     ) -> CosetTable:
    """The table ``todd_coxeter(pres, subgroup, max_cosets)`` gives, found faster.

    Simplifies the presentation (keeping generator 1; ``simplified`` passes in
    a result of ``simplify(pres, (1,))`` already at hand) and enumerates the
    cosets of the rewritten subgroup there (``max_cosets`` bounds that
    enumeration, and Overflow comes from it). Each original generator's
    column is the action of its rewrite word, walked over the enumerator's
    columns (``_lift``); one constructor call standardizes them, and the
    table is checked against ``pres``. A standardized table is determined by
    the action on cosets, so the result, representative words included, is
    the one that enumerating ``pres`` itself gives.
    """
    subgroup_words = _subgroup_words(pres, subgroup)
    small_pres, rewrite = simplified or simplify(pres, (1,) if pres.ngens else ())
    return todd_coxeter(small_pres, [_substitute(w, rewrite) for w in subgroup_words], max_cosets,
                        lambda columns: _checked(pres, _lift(rewrite, columns), subgroup_words))


def _lift(rewrite: Sequence[Word], columns: list[Sequence[int]]) -> list[Sequence[int]]:
    """Each original generator's column: the action of its rewrite word,
    walked over the columns (x1, x1^-1, x2, ...) of the simplified presentation."""
    forward = []
    for word in rewrite:
        image: Sequence[int] = range(len(columns[0]))
        for x in _word_to_cols(word):
            col = columns[x]
            image = [col[d] for d in image]
        forward.append(image)
    return forward


def _checked(pres: GroupPresentation, forward: Sequence[Sequence[int]],
             subgroup_words: Sequence[Word]) -> CosetTable:
    """The table of the forward columns, checked against pres and the subgroup."""
    table = CosetTable(pres.ngens, forward, subgroup_words)
    table.check(pres, subgroup_words)
    return table


def _schreier_steps(pres: GroupPresentation, action: Sequence[Sequence[int]],
                    tree: Sequence[tuple[int, int]]
                    ) -> tuple[int, list[list[tuple[Sequence[int], Sequence[int], int]]]]:
    """The Schreier generators of the subgroup H whose coset action (checked
    against pres) has the given columns, in the order (x1, x1^-1, x2, ...),
    and how each relator walks over them.

    ``tree`` holds (p, x) for each coset d >= 1: d is p.x, so the words it
    spells from coset 0 are a Schreier transversal. Each edge c --x--> c.x of
    a generator x that is not in the tree is one generator of H, numbered 1,
    2, ... in the order of (c, x). Returns their number and, for each relator,
    one step per letter: the generator of H whose edge the letter crosses
    from each coset (0 on a tree edge), the letter's column, and its sign,
    which is the direction of the crossing.
    """
    if len(action) != 2 * pres.ngens:
        raise ValueError("the table belongs to a presentation with other generators")
    k, size = pres.ngens, len(tree) + 1
    schreier = [[-1] * size for _ in range(k)]  # [x-1][c]: edge (c, x) -> generator of H, 0 on the tree
    for d, (p, x) in enumerate(tree, 1):
        # the tree edge (tail, x) ends in d on a letter x, and starts there on x^-1
        schreier[abs(x) - 1][p if x > 0 else d] = 0
    ngens = 0
    for c in range(size):
        for x in range(k):
            if schreier[x][c]:
                ngens += 1
                schreier[x][c] = ngens
    steps = {}
    for x in range(1, k + 1):
        steps[x] = (schreier[x - 1], action[_col(x)], 1)
        # letter -x from coset c crosses the edge (c.x^-1, x) backwards
        steps[-x] = ([schreier[x - 1][d] for d in action[_col(-x)]], action[_col(-x)], -1)
    return ngens, [[steps[letter] for letter in relator] for relator in pres.relators]


def _schreier_presentation(pres: GroupPresentation, action: Sequence[Sequence[int]],
                           tree: Sequence[tuple[int, int]]) -> GroupPresentation:
    """The presentation of ``reidemeister_schreier`` over the given columns and tree."""
    ngens, walks = _schreier_steps(pres, action, tree)
    relators = []
    for steps in walks:
        for start in range(len(tree) + 1):
            c, word = start, []
            for crossed, col, sign in steps:
                s = crossed[c]
                c = col[c]
                if s:
                    word.append(sign * s)
            relators.append(word)
    return GroupPresentation(ngens, relators)


def reidemeister_schreier(pres: GroupPresentation, table: CosetTable) -> GroupPresentation:
    """A presentation of the subgroup H whose coset table (checked against pres)
    is given (Reidemeister-Schreier; Sims, Computation with Finitely Presented
    Groups, 1994, ch. 9): one generator per edge off the tree of
    representative words (``_schreier_steps``), and each relator read from
    each coset, with tree edges dropped, as a relator.
    """
    return _schreier_presentation(pres, table.action, table.tree)


def subgroup_abelianization(pres: GroupPresentation, table: CosetTable) -> AbelianGroup:
    """``abelianization(reidemeister_schreier(pres, table))``: the same walk,
    with each relator's exponent sums counted straight into its row of the
    relation matrix, so that no word is built."""
    ngens, walks = _schreier_steps(pres, table.action, table.tree)
    rows = []
    for steps in walks:
        for start in range(table.size):
            c, row = start, {}
            for crossed, col, sign in steps:
                s = crossed[c]
                c = col[c]
                if s:
                    row[s] = row.get(s, 0) + sign
            rows.append({s - 1: v for s, v in row.items() if v})
    return abelian_group(SparseIntMatrix(len(rows), ngens, rows))


def grading_kernel_presentation(pres: GroupPresentation, n: int) -> GroupPresentation:
    """The kernel of pres -> Z/n, every generator -> 1, by Reidemeister-Schreier
    over its grades, with no coset table: coset c is the grade c, each
    generator acts as +1 mod n, and the tree is c --1--> c + 1 for c < n - 1.
    Where pres presents G_n of a knot by meridians, this is pi1(M_n).
    Raises TableMismatch when a relator's exponent sum is not 0 mod n.
    """
    for word in pres.relators:
        if sum(1 if letter > 0 else -1 for letter in word) % n:
            raise TableMismatch(f"relator {word} does not act trivially on the grades mod {n}")
    step = [(c + 1) % n for c in range(n)]
    back = [(c - 1) % n for c in range(n)]
    return _schreier_presentation(pres, [step, back] * pres.ngens, [(c, 1) for c in range(n - 1)])


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


def abelian_quotient_table(pres: GroupPresentation, order: int,
                           torsion_map: Sequence[tuple[int, dict[int, int]]]) -> CosetTable:
    """The coset table of pi1 / pi1', of the given order, for pres presenting
    pi1, read off a torsion map (d_i, u_i) of H1 = pi1^ab over its generators
    (``_abelianization_with_characters``): the cosets are the vectors v of the
    sum of the Z/d_i, numbered in mixed radix (coset 0 the zero vector), and
    generator j acts as the translation v -> v + u_j, u_j = (u_i[j - 1])_i.
    Raises TableMismatch unless the table passes the check against pres and
    has ``order`` cosets.

    Lemma. Let ``order`` = |H1| be known independently. A table that passes
    the check and has ``order`` cosets is the regular action of H1, and the
    stabilizer of coset 0 is exactly pi1'. Proof: the columns are
    translations, so they commute; the check proves that every relator acts
    trivially, so the table is an action of H1, transitive as every coset
    table is. A transitive action of a group of order N on N points is
    regular, so the stabilizer of coset 0 in pi1 is the kernel of
    pi1 -> H1, which is pi1'.
    """
    forward = []
    for j in range(pres.ngens):
        col = [0]  # the coset of v + u_j for each coset v, factor by factor
        for d, u in torsion_map:
            t = u.get(j, 0)
            col = [c * d + (a + t) % d for c in col for a in range(d)]
        forward.append(col)
    quotient = CosetTable(pres.ngens, forward, ())
    quotient.check(pres, ())
    if quotient.size != order:
        raise TableMismatch(f"the table of pi1 / pi1' has {quotient.size} cosets, not {order}")
    return quotient


def _restricted(torsion_map: Sequence[tuple[int, dict[int, int]]], rewrite: Sequence[Word]
                ) -> tuple[tuple[int, dict[int, int]], ...]:
    """The torsion map over the generators that ``simplify`` keeps: generator
    i takes the image of an original one whose word in ``rewrite`` is (i,)."""
    origin = {word[0] - 1: j for j, word in enumerate(rewrite) if len(word) == 1 and word[0] > 0}
    return tuple((d, {i: u[j] for i, j in origin.items() if j in u}) for d, u in torsion_map)


def _abelianization_with_characters(pres: GroupPresentation
                                    ) -> tuple[AbelianGroup, tuple[tuple[int, dict[int, int]], ...]]:
    """The abelianization A, and the torsion map of the same Smith form, of
    the transposed exponent-sum matrix: pairs (d, u), u over the generators,
    such that x_j -> (u[j - 1] mod d) maps A onto the sum of the Z/d; all of A
    where it is finite."""
    transposed: list[dict[int, int]] = [{} for _ in range(pres.ngens)]
    for i, w in enumerate(pres.relators):
        for j, v in exponent_sums(w).items():
            transposed[j][i] = v
    snf = smith_normal_form(SparseIntMatrix(pres.ngens, len(pres.relators), transposed),
                            torsion_map=True)
    return (AbelianGroup(pres.ngens - snf.rank, tuple(d for d in snf.factors if d > 1)),
            snf.torsion_map)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 7 and 61, which is deterministic below
    4,759,123,141 (Jaeschke, Math. Comp. 61, 1993)."""
    if n >= 4_759_123_141:
        raise ValueError(f"{n} is past the bound of the deterministic test")
    if n < 2 or gcd(n, 510510) > 1:  # 510510 = 2 * 3 * ... * 17
        return n in (2, 3, 5, 7, 11, 13, 17)
    if n < 19 * 19:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
    return True


@cache  # one search per exponent and process
def _character_prime(e: int) -> tuple[int, tuple[int, ...]]:
    """The least prime p > CHARACTER_PRIME_FLOOR with p = 1 mod e, and the
    powers zeta^0, ..., zeta^(e - 1) mod p of zeta = a^((p - 1) / e), for the
    least a >= 2 that makes zeta of order e."""
    p = 1 + e * -(-CHARACTER_PRIME_FLOOR // e)
    while not _is_prime(p):
        p += e
    for a in count(2):  # F_p^* is cyclic of order p - 1, so some a gives order e
        zeta, powers = pow(a, (p - 1) // e, p), [1]
        while (x := powers[-1] * zeta % p) != 1:  # zeta^e = 1
            powers.append(x)
        if len(powers) == e:
            return p, tuple(powers)


def _character_orbits(moduli: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """One character k of each Galois orbit {a k : a prime to the order of k}
    of the nontrivial characters of the sum of the Z/d, d in ``moduli``, k_i
    in Z/d_i being its exponent on factor i: the first of each orbit in
    reverse lexicographic order, so the first is (d_1 - 1, ..., d_r - 1),
    nontrivial on every factor."""
    seen = set()
    for k in product(*(range(d - 1, -1, -1) for d in moduli)):
        if k not in seen and any(k):
            yield k  # its orbit is marked only if the caller asks for more
            order = lcm(*(d // gcd(a, d) for a, d in zip(k, moduli)))
            seen.update(tuple(a * b % d for b, d in zip(k, moduli))
                        for a in range(1, order) if gcd(a, order) == 1)


def _fox_jacobian(pres: GroupPresentation, exponents: Sequence[int], powers: Sequence[int]
                  ) -> list[list[int]]:
    """The Fox Jacobian (Fox, Ann. of Math. 57, 1953) at the character that
    sends x_j to powers[exponents[j - 1]], transposed: row j - 1 holds
    d r / d x_j for each relator r, in order, so that the rank is taken on
    the g rows. The term of a letter x_j is the value at the prefix before
    it, that of x_j^-1 minus the value at the prefix through it. Entries are
    not reduced."""
    e = len(powers)
    rows = [[0] * len(pres.relators) for _ in range(pres.ngens)]
    for i, w in enumerate(pres.relators):
        t = 0
        for x in w:
            if x > 0:
                rows[x - 1][i] += powers[t]
                t = (t + exponents[x - 1]) % e
            else:
                t = (t - exponents[-x - 1]) % e
                rows[-x - 1][i] -= powers[t]
    return rows


def _rank_deficiencies(pres: GroupPresentation, torsion_map: Sequence[tuple[int, dict[int, int]]],
                       characters: Iterable[tuple[int, ...]]) -> Iterator[int]:
    """g - 1 - rank J(chi) mod p at each character, for J the Fox Jacobian of
    the g-generator presentation, p and the powers of the root of unity zeta
    from ``_character_prime``. ``torsion_map`` maps the abelianization A, finite,
    onto the sum of the Z/d (``_abelianization_with_characters``), and a
    character k sends generator x_j to zeta to the sum over i of
    k_i (e / d_i) u_i[j - 1], mod e = exp A."""
    e = lcm(*(d for d, _ in torsion_map))
    p, powers = _character_prime(e)
    images = [[(e // d) * u.get(j, 0) for d, u in torsion_map] for j in range(pres.ngens)]
    for k in characters:
        exponents = [sum(map(mul, k, image)) % e for image in images]
        yield pres.ngens - 1 - rank_mod_p(_fox_jacobian(pres, exponents, powers), p)


def branched_cover_certificate(pres: GroupPresentation, n: int
                               ) -> Optional[InfinitenessCertificate]:
    """A proof that pi1(M_n) is infinite, or None where none is found.

    pres presents G_n of a knot by meridians: a Wirtinger presentation with a
    meridian's n-th power, or its ``simplify`` (which keeps only original
    generators). pi1(M_n), of the n-fold cyclic branched cover, is the kernel
    of G_n -> Z/n, so Reidemeister-Schreier over that kernel presents it; its
    abelianization is H1(M_n). If that is infinite it is the certificate. If it
    is finite and not trivial, its characters are scanned: where the Fox
    Jacobian of pi1 has rank g - 1 mod p at one character of each orbit,
    pi1'^ab is finite (the lemma of the module docstring) and None comes
    back at once. Otherwise pi1 is simplified, and where the work is in
    bounds, shortened (``shorten``) and, where that changed it, simplified
    again; the table of pi1 / pi1' is read off the character map of H1,
    restricted to the generators kept (``_restricted``), and checked
    (``abelian_quotient_table``: by its lemma, the stabilizer of coset 0 is
    exactly pi1'), and pi1', of index |H1(M_n)|, is abelianized along the
    Reidemeister-Schreier walk (``subgroup_abelianization``). A finite-index
    subgroup with infinite abelianization makes pi1(M_n) infinite, and so Q_n
    (Hoste & Shanahan, "Links with finite n-quandles", 2017). The scan runs
    where |H1| <= CERTIFICATE_WORK and takes at most CERTIFICATE_WORK // (the
    letters of pi1) orbits; past that the exact pass decides, and gives up
    (None) where its work would pass CERTIFICATE_WORK, read on pi1 simplified
    and before it is shortened.
    """
    if n < 2 or n * _letters(pres) > CERTIFICATE_WORK:
        return None
    pi1 = grading_kernel_presentation(pres, n)
    h1, torsion_map = _abelianization_with_characters(pi1)
    if h1.free_rank:
        return InfinitenessCertificate(n, 1, h1)
    index = h1.order()
    if index == 1:
        return None
    # the scan, on pi1 as Reidemeister-Schreier gives it, one Jacobian of its
    # letters per orbit: full rank at every character proves pi1'^ab finite,
    # and so that no certificate comes out. Its powers of zeta and the
    # characters it marks number up to |H1|, which the exact pass bounds too
    orbits = _character_orbits([d for d, _ in torsion_map])
    budget = CERTIFICATE_WORK // _letters(pi1)
    if (index <= CERTIFICATE_WORK
            and not any(_rank_deficiencies(pi1, torsion_map, islice(orbits, budget)))
            and next(orbits, None) is None):
        return None
    pi1, rewrite = simplify(pi1, ())
    torsion_map = _restricted(torsion_map, rewrite)
    # the bound of the exact pass, read on pi1 as simplified, before the move:
    # it was set when the table's check also walked every commutator (4
    # letters each) from every coset; it no longer does, and the bound is kept
    # as it was so that the same rows give up
    if index * (_letters(pi1) + 2 * pi1.ngens * (pi1.ngens - 1)) > CERTIFICATE_WORK:
        return None
    shorter = shorten(pi1)
    if shorter != pi1:
        pi1, rewrite = simplify(shorter, ())
        torsion_map = _restricted(torsion_map, rewrite)
    derived = subgroup_abelianization(pi1, abelian_quotient_table(pi1, index, torsion_map))
    return InfinitenessCertificate(n, index, derived) if derived.free_rank else None
