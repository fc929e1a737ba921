"""Diagram builders: torus knots T(2,q), rational knots S(alpha,beta), Montesinos knots.

Rational diagrams come from the plat closure of a 4-strand twist region
sequence driven by an even-length continued fraction of alpha/beta; Montesinos
diagrams are the numerator closure of three rational tangles plus an integer
twist block. Tangles live on four boundary ends (NW, NE, SW, SE); crossings
carry an over-strand bit, and orientation is recovered afterwards by the PD
traversal, so every builder output satisfies the PD conventions of
:mod:`qf.diagrams` by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from qf.diagrams import ParameterError, PDCode

# slot layout on a crossing, counterclockwise: SW=0, SE=1, NE=2, NW=3;
# strands join opposite slots (0-2 and 1-3)
_SW, _SE, _NE, _NW = 0, 1, 2, 3


class _Tangle:
    """Crossings plus an arc matching on their ports; four open boundary ends."""

    def __init__(self, over: list[bool], joins: dict, ends: tuple, bids: int = 0):
        self.over = over
        self.joins = joins
        self.ends = ends  # (nw, ne, sw, se)
        self.bids = bids  # boundary ports ("b", i) have i < bids; none is reused

    @staticmethod
    def zero() -> "_Tangle":
        nw, ne, sw, se = ("b", 0), ("b", 1), ("b", 2), ("b", 3)
        return _Tangle([], {nw: ne, ne: nw, sw: se, se: sw}, (nw, ne, sw, se), 4)

    @staticmethod
    def infinity() -> "_Tangle":
        nw, ne, sw, se = ("b", 0), ("b", 1), ("b", 2), ("b", 3)
        return _Tangle([], {nw: sw, sw: nw, ne: se, se: ne}, (nw, ne, sw, se), 4)

    def _weld(self, p, q) -> None:
        # a port either carries an arc already or is a bare crossing port
        x = self.joins.pop(p, p)
        y = self.joins.pop(q, q)
        if x == q:
            raise ParameterError("degenerate parameters produce a crossing-free loop")
        self.joins[x] = y
        self.joins[y] = x

    def _absorb(self, other: "_Tangle") -> tuple:
        """Merge the other tangle's crossings and arcs; returns its relocated ends."""
        coff, boff = len(self.over), self.bids
        self.bids += other.bids

        def shift(port):
            kind = port[0]
            if kind == "c":
                return ("c", port[1] + coff, port[2])
            return ("b", port[1] + boff)

        self.over.extend(other.over)
        for p, q in other.joins.items():
            self.joins[shift(p)] = shift(q)
        return tuple(shift(p) for p in other.ends)

    def hjoin(self, other: "_Tangle") -> None:
        onw, one, osw, ose = self._absorb(other)
        nw, ne, sw, se = self.ends
        self._weld(ne, onw)
        self._weld(se, osw)
        self.ends = (nw, one, sw, ose)

    def vjoin(self, other: "_Tangle") -> None:
        onw, one, osw, ose = self._absorb(other)
        nw, ne, sw, se = self.ends
        self._weld(sw, onw)
        self._weld(se, one)
        self.ends = (nw, ne, osw, ose)


def _crossing(over02: bool) -> _Tangle:
    ports = tuple(("c", 0, s) for s in range(4))
    ends = (ports[_NW], ports[_NE], ports[_SW], ports[_SE])
    return _Tangle([over02], {}, ends)


def _htwist(t: _Tangle, n: int) -> None:
    for _ in range(abs(n)):
        t.hjoin(_crossing(n > 0))


def _vtwist(t: _Tangle, n: int) -> None:
    for _ in range(abs(n)):
        t.vjoin(_crossing(n > 0))


def _numerator_closure(t: _Tangle) -> PDCode:
    nw, ne, sw, se = t.ends
    t._weld(nw, ne)
    t._weld(sw, se)
    return _closed_to_pd(t.over, t.joins)


def _closed_to_pd(over: list[bool], joins: dict) -> PDCode:
    n = len(over)
    if n == 0:
        raise ParameterError("degenerate parameters produce a crossing-free diagram")
    # each component is labelled in turn, the first from crossing 0, slot 0;
    # from_crossings counts the components
    labels: dict = {}
    entries: dict[int, list[int]] = {}
    for start in [("c", c, s) for c in range(n) for s in range(4)]:
        port, first = start, len(labels) // 2 + 1
        while port not in labels:
            _, c, s = port
            entries.setdefault(c, []).append(s)
            label = len(labels) // 2 + 1
            labels[port] = label
            exit_port = ("c", c, (s + 2) % 4)
            port = joins[exit_port]
            labels[exit_port] = first if port == start else label + 1
    crossings = []
    for c in range(n):
        s_even = next(s for s in entries[c] if s % 2 == 0)
        s_odd = next(s for s in entries[c] if s % 2 == 1)
        u = s_odd if over[c] else s_even
        crossings.append(tuple(labels[("c", c, (u + k) % 4)] for k in range(4)))
    return PDCode.from_crossings(crossings)


def _continued_fraction(p: int, q: int) -> list[int]:
    """Floor-based expansion p/q = [a1, a2, ...]; all terms after the first are >= 1."""
    if q <= 0:
        raise ValueError("denominator must be positive")
    out = []
    while True:
        a, r = divmod(p, q)
        out.append(a)
        if r == 0:
            return out
        p, q = q, r


def _even_length_expansion(p: int, q: int) -> list[int]:
    cf = _continued_fraction(p, q)
    if len(cf) % 2:
        if cf[-1] > 1:
            cf[-1] -= 1
            cf.append(1)
        else:
            # [..., a, 1] -> [..., a+1]
            cf.pop()
            cf[-1] += 1
    return cf


def _twist_region_tangle(cf: list[int]) -> _Tangle:
    """Tangle for a continued fraction, innermost term first.

    Odd positions (1-based from the left) are horizontal twist blocks, even
    positions vertical ones; an even-length expansion therefore starts from the
    infinity tangle, an odd-length one from the zero tangle.
    """
    t = _Tangle.infinity() if len(cf) % 2 == 0 else _Tangle.zero()
    for i in range(len(cf), 0, -1):
        if i % 2:
            _htwist(t, cf[i - 1])
        else:
            _vtwist(t, cf[i - 1])
    return t


def build_rational(alpha: int, beta: int) -> PDCode:
    """Plat diagram of the 2-bridge knot S(alpha, beta).

    alpha must be odd (even alpha gives a two-component link) and 0 < beta < alpha
    with gcd(alpha, beta) = 1. The twist regions follow the even-length
    continued fraction of alpha/beta.
    """
    if alpha < 3 or alpha % 2 == 0:
        raise ParameterError("alpha must be an odd integer >= 3")
    if not 0 < beta < alpha:
        raise ParameterError("beta must satisfy 0 < beta < alpha")
    if gcd(alpha, beta) != 1:
        raise ParameterError("alpha and beta must be coprime")
    t = _twist_region_tangle(_even_length_expansion(alpha, beta))
    return _numerator_closure(t)


def build_torus(p: int, q: int) -> PDCode:
    """Standard q-crossing diagram of the (2, q) torus knot, q odd >= 3."""
    if p != 2:
        raise ParameterError("only 2-strand torus knots are supported")
    if q < 3 or q % 2 == 0:
        raise ParameterError("q must be an odd integer >= 3")
    n2 = 2 * q
    crossings = []
    for i in range(q):
        a = 2 * i + 1
        b = (a + q - 1) % n2 + 1
        crossings.append((a, b, a + 1, b % n2 + 1))
    return PDCode.from_crossings(crossings)


@dataclass(frozen=True)
class MontesinosDiagram:
    """Builder output: the diagram plus the paper-table multiplier when it applies.

    mu is |6(-b + 1/2 + beta2/3 + beta3/3)| for the (2,3,3) shape and
    |30(-b + 1/2 + beta2/3 + beta3/5)| for (2,3,5), computed verbatim from the
    given parameters; family is "233", "235", or None.
    """

    pd: PDCode
    mu: Optional[int]
    family: Optional[str]


def build_montesinos(b: int, fractions) -> MontesinosDiagram:
    """Diagram of M(b; beta1/alpha1, beta2/alpha2, beta3/alpha3).

    fractions is three (beta, alpha) pairs with alpha >= 2 and gcd(alpha, beta) = 1.
    Raises MultiComponent when the closure is a link rather than a knot.
    """
    fracs = [(int(beta), int(alpha)) for beta, alpha in fractions]
    if len(fracs) != 3:
        raise ParameterError("exactly three tangle fractions are required")
    for beta, alpha in fracs:
        if alpha < 2:
            raise ParameterError("tangle denominators must be >= 2")
        if gcd(alpha, beta) != 1:
            raise ParameterError(f"fraction {beta}/{alpha} is not reduced")

    t = _twist_region_tangle(_continued_fraction(*fracs[0]))
    for beta, alpha in fracs[1:]:
        t.hjoin(_twist_region_tangle(_continued_fraction(beta, alpha)))
    _htwist(t, -b)
    pd = _numerator_closure(t)

    mu = None
    family = None
    alphas = sorted(alpha for _, alpha in fracs)
    by_alpha = sorted(fracs, key=lambda f: f[1])
    if alphas in ([2, 3, 3], [2, 3, 5]) and by_alpha[0] == (1, 2):
        e = Fraction(-b) + Fraction(1, 2)
        for beta, alpha in by_alpha[1:]:
            e += Fraction(beta, alpha)
        scale = 6 if alphas == [2, 3, 3] else 30
        mu_frac = abs(scale * e)
        if mu_frac.denominator == 1:
            mu = int(mu_frac)
            family = "233" if scale == 6 else "235"
    return MontesinosDiagram(pd, mu, family)
