"""End-to-end pipelines: knot spec -> enumerated n-quandle -> homology, with caching.

Coset tables are cached as JSON keyed by a content hash of the presentation,
the subgroup, and the enumeration strategy version; a cache hit is bit-identical
to recomputation. Serialized results never include timings or cache counters,
so stdout output is byte-identical across runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
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
from qf.quandles import FiniteQuandle, is_connected, quandle_type

SCHEMA_VERSION = 1


class CosetCache:
    """Disk cache for coset tables; None directory disables caching.

    Each entry stores its key payload next to the table. An entry whose payload
    differs from the request, that does not parse, or whose table fails
    CosetTable.check (over the trivial subgroup, also CosetTable.check_regular)
    is treated as a miss: recomputed and overwritten.
    """

    def __init__(self, directory: Optional[Path]):
        self.directory = Path(directory) if directory is not None else None
        self.hits = 0
        self.misses = 0

    def _load(self, path: Path, payload: dict, pres: GroupPresentation,
              subgroup: tuple[Word, ...]) -> Optional[CosetTable]:
        try:
            entry = json.loads(path.read_text())
            if entry["key"] != payload:
                return None
            table = CosetTable.from_json(entry["table"])
            table.check(pres, subgroup)
            if not any(table.subgroup):
                table.check_regular()
        except (OSError, ValueError, KeyError, TypeError, IncompleteTable, TableMismatch,
                RecursionError):  # json.loads of an entry nested too deep
            return None
        return table

    def todd_coxeter(self, pres: GroupPresentation, subgroup: tuple[Word, ...],
                     compute: Callable[[], CosetTable]) -> CosetTable:
        """The coset table of the subgroup in pres, from the cache or from
        ``compute()`` on a miss.

        ``compute`` must return the table ``todd_coxeter(pres, subgroup)``
        gives, representative words included: the entry is keyed by pres
        itself and is checked against it on load.
        """
        if self.directory is None:
            return compute()
        payload = {
            "ngens": pres.ngens,
            "relators": [list(w) for w in pres.relators],
            "subgroup": [list(w) for w in subgroup],
            "strategy": STRATEGY_VERSION,
        }
        key = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        path = self.directory / f"{key}.json"
        table = self._load(path, payload, pres, subgroup)
        if table is not None:
            self.hits += 1
            return table
        table = compute()
        self.misses += 1
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=path.stem, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(json.dumps({"key": payload, "table": table.to_json()}, sort_keys=True))
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
        if self.gn_order is not None and self.pi1_order is not None:
            if self.gn_order != self.n * self.pi1_order:
                errors.append(f"|G_n| = {self.gn_order} != n*|pi1| = {self.n * self.pi1_order}")
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


class Pipeline:
    """Memoizing driver shared by the CLI commands and the verification table.

    Everything past spec resolution is memoized on the resolved diagram, so
    specs that name one diagram (``3_1`` and ``catalog:3_1``) share the work.
    A cache miss on G_n simplifies it once per (diagram, n), for every
    enumeration of it, and first looks for a certificate that pi1(M_n) is
    infinite (``branched_cover_certificate``, once per (diagram, n)); where
    one is found, Overflow carries it instead of an enumeration filling its cap.
    """

    def __init__(self, cache: Optional[CosetCache] = None,
                 max_cosets: int = DEFAULT_MAX_COSETS):
        self.cache = cache if cache is not None else CosetCache(None)
        self.max_cosets = max_cosets
        self._knots: dict[str, KnotInput] = {}
        self._peripherals: dict[PDCode, PeripheralPresentation] = {}
        self._diagrams: dict[PDCode, Diagram] = {}
        self._quandles: dict[tuple[PDCode, int], tuple[CosetTable, FiniteQuandle]] = {}
        self._branched: dict[tuple[PDCode, int], BranchedCover] = {}
        # G_n simplified, with the certificate looked for over it
        self._simplified: dict[tuple[PDCode, int], tuple[tuple[GroupPresentation, tuple[Word, ...]],
                                                         Optional[InfinitenessCertificate]]] = {}

    def knot(self, spec: str) -> KnotInput:
        if spec not in self._knots:
            self._knots[spec] = resolve_knot_spec(spec)
        return self._knots[spec]

    def diagram(self, spec: str) -> Diagram:
        pd = self.knot(spec).pd
        if pd not in self._diagrams:
            self._diagrams[pd] = analyze(pd)
        return self._diagrams[pd]

    def peripherals(self, spec: str) -> PeripheralPresentation:
        pd = self.knot(spec).pd
        if pd not in self._peripherals:
            self._peripherals[pd] = wirtinger_with_peripherals(self.diagram(spec))
        return self._peripherals[pd]

    def _enumerate(self, spec: str, n: int, subgroup: tuple[Word, ...], name: str) -> CosetTable:
        """The table of G_n over the subgroup; Overflow names the quotient it
        counts (``name``) where a miss finds pi1(M_n) infinite."""
        key = (self.knot(spec).pd, n)
        pres = g_n_presentation(self.peripherals(spec), n)

        def compute() -> CosetTable:
            if key not in self._simplified:
                simplified = simplify(pres, (1,))
                self._simplified[key] = simplified, branched_cover_certificate(simplified[0], n)
            simplified, certificate = self._simplified[key]
            if certificate is not None:
                raise Overflow(self.max_cosets, certificate, name)
            return enumerate_cosets(pres, subgroup, self.max_cosets, simplified)

        return self.cache.todd_coxeter(pres, subgroup, compute)

    def quandle(self, spec: str, n: int) -> tuple[CosetTable, FiniteQuandle]:
        key = (self.knot(spec).pd, n)
        if key not in self._quandles:
            per = self.peripherals(spec)
            meridian = (per.meridian + 1,)
            table = self._enumerate(spec, n, (meridian, per.longitude), f"Q_{n}")
            self._quandles[key] = (table, quandle_from_cosets(table, meridian))
        return self._quandles[key]

    def branched(self, spec: str, n: int) -> BranchedCover:
        key = (self.knot(spec).pd, n)
        if key not in self._branched:
            table = self._enumerate(spec, n, (), f"G_{n}")
            self._branched[key] = branched_cover(self.peripherals(spec), n, table)
        return self._branched[key]

    def run_enumerate(self, spec: str, n: int) -> PipelineResult:
        t0 = time.perf_counter()
        knot = self.knot(spec)
        if knot.is_unknot:
            return self._unknot_result(spec, n, full=False)
        _, q = self.quandle(spec, n)
        result = PipelineResult(
            knot=spec, n=n, qn_size=q.size, qn_type=quandle_type(q),
            qn_connected=is_connected(q), mu=knot.mu, mu_family=knot.mu_family,
            cache_hits=self.cache.hits)
        result.timings["total"] = time.perf_counter() - t0
        return result

    def run_homology(self, spec: str, n: int) -> PipelineResult:
        t0 = time.perf_counter()
        knot = self.knot(spec)
        if knot.is_unknot:
            return self._unknot_result(spec, n, full=True)
        _, q = self.quandle(spec, n)
        data = self.branched(spec, n) if n >= 2 else None
        h1, h2 = quandle_homology(q)
        result = PipelineResult(
            knot=spec, n=n, qn_size=q.size, qn_type=quandle_type(q),
            qn_connected=is_connected(q), h1=h1, h2=h2,
            mu=knot.mu, mu_family=knot.mu_family, cache_hits=self.cache.hits)
        if data is not None:
            result.gn_order = data.gn_order
            result.pi1_order = data.pi1_order
            result.longitude_order = data.longitude_order
        result.timings["total"] = time.perf_counter() - t0
        return result

    def _unknot_result(self, spec: str, n: int, full: bool) -> PipelineResult:
        check_n(n)  # every other knot checks n in g_n_presentation
        result = PipelineResult(knot=spec, n=n, qn_size=1, qn_type=1, qn_connected=True)
        if full:
            result.gn_order = n
            result.pi1_order = 1
            result.longitude_order = 1
            result.h1 = AbelianGroup(1)
            result.h2 = AbelianGroup(0)
        return result
