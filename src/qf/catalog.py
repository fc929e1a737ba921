"""Built-in knot catalog and knot-spec resolution for the command line tools."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Optional

from qf.builders import build_montesinos, build_rational, build_torus
from qf.diagrams import ParameterError, PDCode, parse_pd

BUILDER_SYNTAX = {
    "unknot": "the trivial knot (no diagram; handled directly)",
    "catalog:NAME": "a catalog entry, e.g. catalog:3_1 (bare names also work)",
    "rational:A,B": "2-bridge knot S(A,B), e.g. rational:5,3",
    "torus:2,Q": "torus knot T(2,Q) with Q odd, e.g. torus:2,5",
    "montesinos:B,B1/A1,B2/A2,B3/A3": "Montesinos knot, e.g. montesinos:1,1/2,1/3,1/3",
    "<path>": "a file containing PD text such as X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)",
}


@lru_cache(maxsize=1)
def _catalog() -> dict[str, str]:
    """The entries of ``catalog.json``, parsed once per process."""
    text = resources.files("qf").joinpath("catalog.json").read_text()
    return dict(json.loads(text))


def catalog_entries() -> dict[str, str]:
    """Catalog name -> PD text: a fresh dict, so callers may change it."""
    return dict(_catalog())


@dataclass(frozen=True)
class KnotInput:
    """A resolved knot specification."""

    spec: str
    pd: Optional[PDCode]  # None only for the unknot
    mu: Optional[int] = None
    mu_family: Optional[str] = None

    @property
    def is_unknot(self) -> bool:
        return self.pd is None


def resolve_knot_spec(spec: str) -> KnotInput:
    """Resolve a knot-spec: catalog name, builder expression, PD file, or unknot."""
    spec = spec.strip()
    if spec == "unknot":
        return KnotInput(spec, None)
    if ":" in spec:
        scheme, _, rest = spec.partition(":")
        if scheme == "catalog":
            entries = catalog_entries()
            if rest not in entries:
                raise ParameterError(f"unknown catalog entry {rest!r}; have {sorted(entries)}")
            return KnotInput(spec, parse_pd(entries[rest]))
        if scheme == "rational":
            alpha, beta = _ints(rest, 2)
            return KnotInput(spec, build_rational(alpha, beta))
        if scheme == "torus":
            p, q = _ints(rest, 2)
            return KnotInput(spec, build_torus(p, q))
        if scheme == "montesinos":
            parts = rest.split(",")
            if len(parts) != 4:
                raise ParameterError("montesinos spec needs b and three fractions")
            b = int(parts[0])
            fractions = []
            for part in parts[1:]:
                num, _, den = part.partition("/")
                fractions.append((int(num), int(den)))
            built = build_montesinos(b, fractions)
            return KnotInput(spec, built.pd, built.mu, built.family)
        raise ParameterError(f"unknown knot-spec scheme {scheme!r}")
    entries = catalog_entries()
    if spec in entries:
        return KnotInput(f"catalog:{spec}", parse_pd(entries[spec]))
    if os.path.exists(spec):
        with open(spec) as fh:
            return KnotInput(spec, parse_pd(fh.read()))
    raise ParameterError(f"cannot resolve knot-spec {spec!r}: not a catalog name, "
                         "builder expression, or readable file")


def _ints(text: str, count: int) -> list[int]:
    parts = text.split(",")
    if len(parts) != count:
        raise ParameterError(f"expected {count} comma-separated integers, got {text!r}")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise ParameterError(f"bad integer in {text!r}") from exc
