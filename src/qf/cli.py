"""Command line interface: qf enumerate | homology | verify-tables | catalog.

Exit codes: 0 success, 2 input error (a bad argument, or a knot file or cache
directory that cannot be read or written), 3 enumeration overflow or out of
memory, 4 verification mismatch, 5 internal error (a broken invariant:
TableMismatch, IncompleteTable, AxiomViolation, MalformedWitness, NotAComplex
or DivisibilityError, reported as one "internal error: ..." line on stderr).
An overflow writes one "overflow: ..." line that names the cap; where pi1 of
the branched cover is proved infinite before enumerating, that line reads
"Q_n is infinite, so its index exceeded N cosets" and one "infinite: ..."
line names the certificate's subgroup index and abelianization; a
MemoryError writes one "overflow: out of memory ..." line. Result JSON/CSV
goes to stdout and is byte-identical across runs; timings and cache
statistics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from qf.catalog import BUILDER_SYNTAX, catalog_entries
from qf.diagrams import (
    LabelError,
    MultiComponent,
    OrientationInconsistent,
    ParameterError,
    PDSyntaxError,
)
from qf.groups import (
    DEFAULT_MAX_COSETS,
    IncompleteTable,
    Overflow,
    TableMismatch,
)
from qf.homology import DivisibilityError
from qf.intlinalg import NotAComplex
from qf.pipeline import CosetCache, Pipeline
from qf.quandles import AxiomViolation, MalformedWitness
from qf.verify import format_rows, format_rows_csv, run_verification

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_OVERFLOW = 3
EXIT_MISMATCH = 4
EXIT_INTERNAL = 5

# OSError: besides its package data, qf opens only the knot file and the cache
# directory, both named by arguments
_INPUT_ERRORS = (ParameterError, PDSyntaxError, LabelError, MultiComponent,
                 OrientationInconsistent, ValueError, OSError)
_INTERNAL_ERRORS = (TableMismatch, IncompleteTable, AxiomViolation, MalformedWitness,
                    NotAComplex, DivisibilityError)


def positive_int(text: str) -> int:
    """An argparse type: argparse exits 2 unless the value is an integer >= 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {text}")
    return int(text)


def _add_common(sub: argparse.ArgumentParser, needs_knot: bool) -> None:
    if needs_knot:
        sub.add_argument("--knot", required=True,
                         help="catalog name, builder expression, PD file path, or 'unknot'")
        sub.add_argument("--n", required=True, type=int, help="quandle quotient index n")
    sub.add_argument("--max-cosets", type=positive_int, default=DEFAULT_MAX_COSETS,
                     help=f"enumeration cap (default {DEFAULT_MAX_COSETS})")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--cache-dir", default=None,
                     help="coset table cache directory (default $QF_CACHE_DIR or .qf-cache)")
    sub.add_argument("--no-cache", action="store_true", help="disable the coset table cache")


@functools.cache  # one per process: parse_args keeps no state in the parser
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qf",
        description="Finite knot n-quandles via coset enumeration, with exact homology.")
    subs = parser.add_subparsers(dest="command", required=True)
    _add_common(subs.add_parser("enumerate", help="compute |Q_n| and the quandle type"),
                needs_knot=True)
    _add_common(subs.add_parser("homology", help="full pipeline including H1 and H2"),
                needs_knot=True)
    _add_common(subs.add_parser("verify-tables", help="recompute the classification tables"),
                needs_knot=False)
    cat = subs.add_parser("catalog", help="list catalog knots and builder syntax")
    cat.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _make_pipeline(args) -> Pipeline:
    if getattr(args, "no_cache", False):
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = Path(args.cache_dir)
    else:
        cache_dir = Path(os.environ.get("QF_CACHE_DIR", ".qf-cache"))
    return Pipeline(CosetCache(cache_dir), max_cosets=args.max_cosets)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "catalog":
        entries = catalog_entries()
        if args.format == "json":
            payload = {"catalog": entries, "builders": BUILDER_SYNTAX}
            sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        else:
            for name, pd in sorted(entries.items()):
                sys.stdout.write(f"{name}: {pd}\n")
            sys.stdout.write("\nknot-spec syntax:\n")
            for syntax, meaning in BUILDER_SYNTAX.items():
                sys.stdout.write(f"  {syntax}: {meaning}\n")
        return EXIT_OK

    pipe = _make_pipeline(args)
    try:
        if args.command == "verify-tables":
            rows = run_verification(pipe)
            formatter = format_rows_csv if args.format == "csv" else format_rows
            sys.stdout.write(formatter(rows))
            if any(r.status == "FAIL" for r in rows):
                return EXIT_MISMATCH
            if any(r.status == "OVERFLOW" for r in rows):
                return EXIT_OVERFLOW
            return EXIT_OK

        runner = pipe.run_homology if args.command == "homology" else pipe.run_enumerate
        result = runner(args.knot, args.n)
        errors = result.consistency_errors()
        sys.stdout.write(result.to_csv() if args.format == "csv" else result.to_json())
        total = result.timings.get("total", 0.0)
        sys.stderr.write(f"timings total={total:.3f}s cache_hits={result.cache_hits}\n")
        if errors:
            for line in errors:
                sys.stderr.write(f"consistency FAIL: {line}\n")
            return EXIT_MISMATCH
        return EXIT_OK
    except Overflow as exc:
        sys.stderr.write(f"overflow: {exc}\n")
        if exc.certificate is not None:
            sys.stderr.write(f"infinite: {exc.certificate}\n")
        return EXIT_OVERFLOW
    except MemoryError:
        sys.stderr.write("overflow: out of memory before the computation finished\n")
        return EXIT_OVERFLOW
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except _INTERNAL_ERRORS as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
