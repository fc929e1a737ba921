"""End-to-end pipelines: knot spec -> enumerated n-quandle -> homology, with caching.

Coset tables are cached as JSON, by their forward columns, keyed by a content
hash of the presentation, the subgroup and the enumeration strategy version;
a cache hit is the table that uncapped recomputation gives. ``max_cosets``
bounds only the enumeration on a miss, so a row that overflows a low cap
uncached is read in full from a cache that a higher cap filled. On Q_n it
bounds the cosets of <m, l>; on G_n, n times the cosets of <m>, its order: G_n
is enumerated over <m> with cap max_cosets // n, and pi1(M_n) is read off
that table (``branched_cover``). Either Overflow names max_cosets.
Serialized results never include timings or cache counters, so stdout output
is byte-identical across runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from pathlib import Path
from typing import Callable, Optional

from qf.catalog import KnotInput, resolve_knot_spec
from qf.diagrams import Diagram, PDCode, PeripheralPresentation, analyze, wirtinger_with_peripherals
from qf.groups import (
    DEFAULT_MAX_COSETS,
    STRATEGY_VERSION,
    CosetTable,
    GroupPresentation,
    IncompleteTable,
    Overflow,
    TableMismatch,
    Word,
    BranchedCover,
    branched_cover,
    check_n,
    g_n_presentation,
    quandle_from_cosets,
    todd_coxeter,  # noqa: F401  (kept bound here: perfbench's tracer self-test looks it up)
)
from qf.homology import quandle_homology
from qf.intlinalg import AbelianGroup
from qf.presentations import (
    InfinitenessCertificate,
    branched_cover_certificate,
    enumerate_cosets,
    simplify,
)
from qf.quandles import FiniteQuandle, is_connected, quandle_type, trivial_quandle

SCHEMA_VERSION = 1


class CosetCache:
    """Disk cache for coset tables; None directory disables caching.

    Each entry stores its key payload next to the table's forward columns
    (``CosetTable.to_json``). The load proves them a standardized table
    (``CosetTable.from_json``) and runs ``CosetTable.check``; G_n's table over
    <m> must also induce a regular action (``CosetTable.check_regular(n)``).
    An entry of another key or layout, or one that fails to parse or load, is
    recomputed and overwritten.
    """

    def __init__(self, directory: Optional[Path]):
        self.directory = Path(directory) if directory is not None else None
        self.hits = 0
        self.misses = 0

    def _load(self, path: Path, payload: dict, pres: GroupPresentation,
              subgroup: tuple[Word, ...], cover_n: Optional[int]) -> Optional[CosetTable]:
        try:
            entry = json.loads(path.read_text())
            if entry["key"] != payload:
                return None
            table = CosetTable.from_json(entry["table"], subgroup)
            table.check(pres, subgroup)
            if cover_n is not None:
                table.check_regular(cover_n)
        except (OSError, ValueError, KeyError, TypeError, IncompleteTable, TableMismatch,
                RecursionError,  # json.loads of an entry nested too deep
                OverflowError):  # int() of a number json.loads read as infinity
            return None
        return table

    def todd_coxeter(self, pres: GroupPresentation, subgroup: tuple[Word, ...],
                     compute: Callable[[], CosetTable],
                     cover_n: Optional[int] = None) -> CosetTable:
        """The coset table of the subgroup in pres, from the cache or from
        ``compute()`` on a miss.

        ``compute`` must return the table ``todd_coxeter(pres, subgroup)``
        gives: the entry is keyed by pres itself and checked against it on load.
        ``cover_n`` is n where pres is G_n and the subgroup <m>.
        """
        if self.directory is None:
            return compute()
        payload = {"ngens": pres.ngens, "relators": [list(w) for w in pres.relators],
                   "subgroup": [list(w) for w in subgroup], "strategy": STRATEGY_VERSION}
        key_text = json.dumps(payload, sort_keys=True)
        path = self.directory / f"{hashlib.sha256(key_text.encode()).hexdigest()}.json"
        table = self._load(path, payload, pres, subgroup, cover_n)
        if table is not None:
            self.hits += 1
            return table
        table = compute()
        self.misses += 1
        # json.dumps({"key": payload, "table": ...}, sort_keys=True), the key's text reused
        text = f'{{"key": {key_text}, "table": {json.dumps(table.to_json(), sort_keys=True)}}}'
        for serial in count():  # a temporary file that no other writer opens
            tmp = path.with_name(f"{path.stem}.{os.getpid()}.{serial}.tmp")
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileExistsError:  # stale, or another writer's in this process
                pass
            except FileNotFoundError:  # the directory is missing
                self.directory.mkdir(parents=True, exist_ok=True)
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return table


@dataclass
class PipelineResult:
    """Everything one (knot, n) row can report; optional fields stay None on the
    enumeration-only path."""

    knot: str
    n: int
    qn_size: int
    qn_type: int
    qn_connected: bool
    gn_order: Optional[int] = None
    pi1_order: Optional[int] = None
    longitude_order: Optional[int] = None
    h1: Optional[AbelianGroup] = None
    h2: Optional[AbelianGroup] = None
    mu: Optional[int] = None
    mu_family: Optional[str] = None
    timings: dict = field(default_factory=dict)
    cache_hits: int = 0

    def consistency_errors(self) -> list[str]:
        errors = []
        if self.pi1_order is not None and self.longitude_order is not None:
            if self.pi1_order != self.qn_size * self.longitude_order:
                errors.append(f"|pi1| = {self.pi1_order} != |Q_n|*ord(l) = "
                              f"{self.qn_size * self.longitude_order}")
        if self.h2 is not None and self.longitude_order is not None:
            torsion_order = self.h2.order()
            if self.h2.free_rank != 0 or torsion_order != self.longitude_order:
                errors.append(f"|torsion(H2)| = {self.h2} but ord(l) = {self.longitude_order}")
        return errors

    def to_json_dict(self) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "knot": self.knot,
            "n": self.n,
            "qn_size": self.qn_size,
            "type": self.qn_type,
            "connected": self.qn_connected,
        }
        for key, value in (("gn_order", self.gn_order), ("pi1_order", self.pi1_order),
                           ("longitude_order", self.longitude_order), ("mu", self.mu),
                           ("mu_family", self.mu_family)):
            if value is not None:
                out[key] = value
        if self.h1 is not None:
            out["h1"] = self.h1.to_json()
        if self.h2 is not None:
            out["h2"] = self.h2.to_json()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["schema", "knot", "n", "qn_size", "type", "connected", "gn_order",
                         "pi1_order", "longitude_order", "mu", "mu_family", "h1", "h2"])
        writer.writerow([SCHEMA_VERSION, self.knot, self.n, self.qn_size, self.qn_type,
                         self.qn_connected, self.gn_order, self.pi1_order,
                         self.longitude_order, self.mu, self.mu_family, self.h1, self.h2])
        return buf.getvalue()


class _Row:
    """G_n (``pres``) of one Wirtinger presentation, and what the pipeline reads
    off it. Each other field is computed when first read and kept; Overflow is
    not, but the subgroup of an enumeration that filled the cap is recorded, so
    a later read raises Overflow again without enumerating."""

    def __init__(self, per: PeripheralPresentation, n: int, cache: CosetCache, max_cosets: int):
        self.per, self.n, self.cache, self.max_cosets = per, n, cache, max_cosets
        self.pres = g_n_presentation(per, n)
        self.overflowed: set[tuple[Word, ...]] = set()

    @cached_property
    def simplified(self) -> tuple[tuple[GroupPresentation, tuple[Word, ...]],
                                  Optional[InfinitenessCertificate]]:
        """G_n simplified once for every enumeration of it, with the
        certificate looked for over it; read only on a cache miss."""
        simplified = simplify(self.pres, (1,))
        return simplified, branched_cover_certificate(simplified[0], self.n)

    def _enumerate(self, subgroup: tuple[Word, ...], name: str,
                   cover_n: Optional[int] = None) -> CosetTable:
        """The table of G_n over the subgroup; Overflow names the quotient it
        counts (``name``) where a miss finds pi1(M_n) infinite. ``cover_n`` is
        n where the subgroup is <m>: the cap then bounds n times the cosets,
        and one below n overflows before enumerating."""

        def compute() -> CosetTable:
            simplified, certificate = self.simplified
            if certificate is not None:
                raise Overflow(self.max_cosets, certificate, name)
            if cover_n and self.max_cosets < cover_n:
                raise Overflow(self.max_cosets)
            try:
                return enumerate_cosets(self.pres, subgroup, self.max_cosets // (cover_n or 1),
                                        simplified)
            except Overflow:
                raise Overflow(self.max_cosets) from None

        if subgroup in self.overflowed:
            raise Overflow(self.max_cosets)
        try:
            return self.cache.todd_coxeter(self.pres, subgroup, compute, cover_n)
        except Overflow as exc:
            if exc.certificate is None:
                self.overflowed.add(subgroup)
            raise

    @cached_property
    def quandle(self) -> tuple[CosetTable, FiniteQuandle]:
        meridian = (self.per.meridian + 1,)
        table = self._enumerate((meridian, self.per.longitude), f"Q_{self.n}")
        return table, quandle_from_cosets(table, meridian)

    @cached_property
    def cover(self) -> BranchedCover:
        meridian = (self.per.meridian + 1,)
        return branched_cover(self.per, self.n, self._enumerate((meridian,), f"G_{self.n}", self.n))


class Pipeline:
    """Memoizing driver shared by the CLI commands and the verification table.

    Everything past the Wirtinger presentation is memoized on (presentation,
    n), the data the disk cache keys by, so specs with one presentation
    (``catalog:3_1`` and ``rational:3,1``) share G_n and all read off it. A
    cache miss on G_n simplifies it and looks for a certificate that pi1(M_n)
    is infinite (``branched_cover_certificate``) once per key; where one is
    found, Overflow carries it instead of an enumeration filling its cap.
    """

    def __init__(self, cache: Optional[CosetCache] = None,
                 max_cosets: int = DEFAULT_MAX_COSETS):
        self.cache = cache if cache is not None else CosetCache(None)
        self.max_cosets = max_cosets
        self._knots: dict[str, KnotInput] = {}
        self._peripherals: dict[PDCode, PeripheralPresentation] = {}
        self._rows: dict[tuple[PeripheralPresentation, int], _Row] = {}

    def knot(self, spec: str) -> KnotInput:
        if spec not in self._knots:
            self._knots[spec] = resolve_knot_spec(spec)
        return self._knots[spec]

    def diagram(self, spec: str) -> Diagram:
        return analyze(self.knot(spec).pd)

    def peripherals(self, spec: str) -> PeripheralPresentation:
        pd = self.knot(spec).pd
        if pd not in self._peripherals:
            self._peripherals[pd] = wirtinger_with_peripherals(self.diagram(spec))
        return self._peripherals[pd]

    def _row(self, spec: str, n: int) -> _Row:
        key = (self.peripherals(spec), n)
        if key not in self._rows:
            self._rows[key] = _Row(*key, self.cache, self.max_cosets)
        return self._rows[key]

    def quandle(self, spec: str, n: int) -> tuple[CosetTable, FiniteQuandle]:
        return self._row(spec, n).quandle

    def branched(self, spec: str, n: int) -> BranchedCover:
        return self._row(spec, n).cover

    def run_enumerate(self, spec: str, n: int) -> PipelineResult:
        return self._result(spec, n, homology=False)

    def run_homology(self, spec: str, n: int) -> PipelineResult:
        return self._result(spec, n, homology=True)

    def _result(self, spec: str, n: int, homology: bool) -> PipelineResult:
        t0 = time.perf_counter()
        knot = self.knot(spec)
        if knot.is_unknot:  # G_n = Z/n, so pi1(M_n) = 1 and Q_n has one element
            check_n(n)  # every other knot checks n in g_n_presentation
        q = trivial_quandle(1) if knot.is_unknot else self.quandle(spec, n)[1]
        result = PipelineResult(knot=spec, n=n, qn_size=q.size, qn_type=quandle_type(q),
                                qn_connected=is_connected(q), mu=knot.mu, mu_family=knot.mu_family)
        if homology:
            if knot.is_unknot:
                result.gn_order, result.pi1_order, result.longitude_order = n, 1, 1
            elif n >= 2:
                data = self.branched(spec, n)
                result.gn_order, result.pi1_order, result.longitude_order = (
                    data.gn_order, data.pi1_order, data.longitude_order)
            result.h1, result.h2 = quandle_homology(q)
        result.cache_hits = self.cache.hits
        result.timings["total"] = time.perf_counter() - t0
        return result
