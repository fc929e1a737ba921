"""The verification table: recompute the classification tables and compare.

Each row recomputes one published quantity (a cardinality, a longitude order,
a homology group, an extension or model-equivalence check) from scratch and
reports PASS or FAIL; a Montesinos row whose candidate closures are all links
reports SKIP with the component counts as evidence.

The extension and coset-model rows of a (knot, n) check one witness: the
natural projection p(x) = <m, l> x from the elements of pi1(M_n), the kernel
of the grading of G_n, onto the cosets of <m, l> that are Q_n. It is a
homomorphism from GAlex(pi1, phi), x * y = phi(x y^-1) y with
phi(g) = m^-1 g m, since m lies in <m, l>; the action is x -> l x.

Lemma (the witness is read off G_n's table over <m>, and checked by
theorem). (a) pi1 is a group, the kernel of the grading G_n -> Z/n, and by
the lemma of ``qf.groups.BranchedCover`` x -> <m> x is a bijection from pi1
onto the cosets of <m>: element x is coset x. (b) phi is an automorphism of
pi1: a kernel is normal, so conjugation by m maps pi1 into itself, and
conjugation by m^-1 inverts it. (c) GAlex(G, f) is a quandle for every group
G and automorphism f (Joyce 1982): x * x = f(1) x = x; x -> f(x) f(y)^-1 y
is a bijection; and both (x * y) * z and (x * z) * (y * z) equal
f(f(x y^-1) y z^-1) z. So GAlex(pi1, phi) needs no check of its axioms, and
Lemma 5 of ``qf.quandles`` applies to it with the greedy W, which generates
it by construction. (d) By (a), x * y = m^-1 x y^-1 m y is the coset
<m> x (y^-1 m y), the action of rep_y^-1 m rep_y on coset x, as rep_y is
m^k y for some k: Joyce's coset quandle of <m> in G_n, built as Q_n's over
<m, l> is (``qf.groups.CosetQuandle``); and as l commutes with m, x -> l x
sends coset c to <m> l rep_c, the walk of rep_c from coset 0 l.
``BranchedCover.galex`` builds a column, ancestors first, when first read,
by the greedy W or by ``verify_extension`` (the columns of W and lam(W)); no
table of pi1 or of GAlex(pi1, phi) is built. p(x) = <m, l> rep_x is read
along the tree of representative words (``CosetTable.rep_images``).

Lemma (Joyce 1982). The coset quandle Q(pi1, phi, A), A = <l>, is by
definition the quotient of GAlex(pi1, phi) by x ~ a x, a in A. If p is a
surjective quandle homomorphism from GAlex(pi1, phi) whose fibres are the
right cosets A x (E2 with x -> l x of order ord(l)), then A x -> p(x) is an
isomorphism from Q(pi1, phi, A) onto Q_n. It is a bijection, as the fibres
are the cosets; and for any a, b in A, p(a x * b y) = p(x) * p(y) = p(x * y)
puts a x * b y in A (x * y), so the coset operation is well defined and the
bijection is a homomorphism. So ``verify_extension`` on the witness proves
both the central extension GAlex(pi1, phi) -> Q_n by A and the coset model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

from qf.diagrams import MultiComponent, arc_assignment, quandle_presentation
from qf.groups import Overflow, abelianization, todd_coxeter, trefoil_branched_presentation
from qf.homology import h2_order_via_extension
from qf.intlinalg import AbelianGroup
from qf.pipeline import Pipeline
from qf.quandles import ExtensionWitness, check_relators, verify_extension

CARDINALITY_CASES = [
    ("rational:3,1", 2, 3),
    ("rational:5,1", 2, 5),
    ("rational:5,3", 2, 5),
    ("rational:7,3", 2, 7),
    ("rational:9,5", 2, 9),
    ("catalog:3_1", 3, 4),
    ("catalog:3_1", 4, 6),
    ("catalog:3_1", 5, 12),
    ("catalog:5_1", 3, 20),
]

LONGITUDE_CASES = [
    ("rational:3,1", 2, 1),
    ("rational:5,3", 2, 1),
    ("rational:7,3", 2, 1),
    ("catalog:3_1", 3, 2),
    ("catalog:3_1", 4, 4),
    ("catalog:3_1", 5, 10),
    ("catalog:5_1", 3, 6),
]

H2_CASES = [
    ("rational:3,1", 2, AbelianGroup(0)),
    ("rational:5,1", 2, AbelianGroup(0)),
    ("rational:5,3", 2, AbelianGroup(0)),
    ("rational:7,3", 2, AbelianGroup(0)),
    ("rational:9,5", 2, AbelianGroup(0)),
    ("catalog:3_1", 3, AbelianGroup(0, (2,))),
    ("catalog:3_1", 4, AbelianGroup(0, (4,))),
    ("catalog:3_1", 5, AbelianGroup(0, (10,))),
    ("catalog:5_1", 3, AbelianGroup(0, (6,))),
]

MODEL_CASES = [(spec, n) for spec, n, _ in CARDINALITY_CASES]

EXTENSION_CASES = [("catalog:3_1", 3), ("catalog:3_1", 4), ("catalog:3_1", 5),
                   ("catalog:5_1", 3)]

MONTESINOS_CANDIDATES = ["montesinos:1,1/2,1/3,1/3", "montesinos:0,1/2,-1/3,-1/3"]

TREFOIL_COVER_ORDERS = [(2, 3), (3, 8), (4, 24), (5, 120)]

TREFOIL_COVER_HOMOLOGY = [
    (5, AbelianGroup(0)),
    (6, AbelianGroup(2)),
    (7, AbelianGroup(0)),
    (8, AbelianGroup(0, (3,))),
    (9, AbelianGroup(0, (2, 2))),
]

SCHLAFLI_CASES = [(3, 4), (4, 6), (5, 12)]


@dataclass(frozen=True)
class VerifyRow:
    name: str
    status: str  # PASS, FAIL, SKIP, or OVERFLOW
    detail: str


def _projection_witness(pipe: Pipeline, spec: str, n: int) -> ExtensionWitness:
    """The natural projection of GAlex(pi1, phi) onto Q_n (module docstring)."""
    q_table, q = pipe.quandle(spec, n)  # first: its overflow names the row
    data = pipe.branched(spec, n)
    projection = tuple(data.table.rep_images(q_table))
    return ExtensionWitness(data.galex, q, projection, data.longitude_order, data.longitude_action)


def run_verification(pipe: Pipeline) -> list[VerifyRow]:
    @cache  # one witness per (spec, n), checked once for its extension and model rows
    def checked_witness(spec, n):
        witness = _projection_witness(pipe, spec, n)
        return verify_extension(witness), witness.projection.count(0)

    def cardinality(spec, n, want):
        res = pipe.run_enumerate(spec, n)
        return (res.qn_size == want and res.qn_type == n and res.qn_connected,
                f"|Q_n|={res.qn_size} (want {want}), type={res.qn_type} (want {n})")

    def longitude(spec, n, want):
        data = pipe.branched(spec, n)
        return data.longitude_order == want, f"ord(l)={data.longitude_order} (want {want})"

    def h2(spec, n, want):
        res = pipe.run_homology(spec, n)
        return res.h2 == want and not res.consistency_errors(), f"H2={res.h2} (want {want})"

    def extension(spec, n):
        # the fibre is measured: the witness's group order is ord(l) itself
        report, fiber = checked_witness(spec, n)
        want = pipe.branched(spec, n).longitude_order
        return (report.ok and fiber == want,
                f"E1={report.e1} E2={report.e2} hom={report.projection_is_homomorphism} "
                f"fiber={fiber} (want {want})")

    def model(spec, n):
        report, _ = checked_witness(spec, n)
        if not report.ok:
            return False, "no isomorphism"
        data = pipe.branched(spec, n)
        via = h2_order_via_extension(data.pi1_order, pipe.quandle(spec, n)[1].size)
        return via == data.longitude_order, f"isomorphism found, |pi1|/|Q_n|={via}"

    def cover_order(n, want):
        pres, _ = trefoil_branched_presentation(n)
        size = todd_coxeter(pres, [], pipe.max_cosets).size
        diagram_order = pipe.branched("catalog:3_1", n).pi1_order
        return (size == want and diagram_order == want,
                f"presentation order={size}, diagram order={diagram_order} (want {want})")

    def cover_h1(n, want):
        got = abelianization(trefoil_branched_presentation(n)[0])
        return got == want, f"H1={got} (want {want})"

    def rows(title, cases, check):
        for case in cases:
            name = title.format(*case)
            try:
                ok, detail = check(*case)
                row = VerifyRow(name, "PASS" if ok else "FAIL", detail)
            except Overflow as exc:
                row = VerifyRow(name, "OVERFLOW", str(exc))
            yield row

    return [
        *rows("cardinality {} n={}", CARDINALITY_CASES, cardinality),
        *rows("longitude order {} n={}", LONGITUDE_CASES, longitude),
        *rows("H2 {} n={}", H2_CASES, h2),
        _montesinos_row(pipe),
        *rows("extension {} n={}", EXTENSION_CASES, extension),
        *rows("coset model {} n={}", MODEL_CASES, model),
        *rows("trefoil cover order n={}", TREFOIL_COVER_ORDERS, cover_order),
        *rows("trefoil cover H1 n={}", TREFOIL_COVER_HOMOLOGY, cover_h1),
        *rows("schlafli relators n={}", SCHLAFLI_CASES, partial(_schlafli, pipe)),
    ]


def _montesinos_row(pipe: Pipeline) -> VerifyRow:
    component_evidence = []
    for spec in MONTESINOS_CANDIDATES:
        try:
            knot = pipe.knot(spec)
        except MultiComponent as exc:
            component_evidence.append(f"{spec}: {exc.components} components")
            continue
        if knot.mu is None or knot.mu > 2 or knot.mu_family != "233":
            component_evidence.append(f"{spec}: mu={knot.mu} outside the checked range")
            continue
        try:
            res = pipe.run_homology(spec, 2)
        except Overflow as exc:
            return VerifyRow("montesinos family", "OVERFLOW", str(exc))
        ok = (res.qn_size == 12 * knot.mu
              and res.pi1_order == 24 * knot.mu
              and res.h2 == AbelianGroup(0, (2,))
              and res.qn_type == 2
              and not res.consistency_errors())
        return VerifyRow(
            f"montesinos {spec}", "PASS" if ok else "FAIL",
            f"mu={knot.mu} |Q_2|={res.qn_size} (want {12 * knot.mu}) "
            f"|pi1|={res.pi1_order} (want {24 * knot.mu}) H2={res.h2} (want Z/2)")
    return VerifyRow("montesinos family", "SKIP", "; ".join(component_evidence))


def _schlafli(pipe: Pipeline, n: int, want_size: int) -> tuple[bool, str]:
    spec = "catalog:3_1"
    table, q = pipe.quandle(spec, n)
    d = pipe.diagram(spec)
    assign = arc_assignment(d, table)
    v, w = assign[0], assign[d.crossings[0].over_arc_long]
    relators = [
        (0, ((1, 1), (0, 1)), 1),  # (v * w) * v = w
        (1, ((0, 1), (1, 1)), 0),  # (w * v) * w = v
        (1, ((0, n),), 1),         # w *^n v = w
        (0, ((1, n),), 0),         # v *^n w = v
    ]
    relators_hold = check_relators(q, (v, w), relators)
    # the full arc presentation must also hold under the enumeration assignment
    presentation_holds = check_relators(q, assign, quandle_presentation(d, n))
    return (relators_hold and presentation_holds and q.size == want_size,
            f"relators={relators_hold} presentation={presentation_holds} "
            f"size={q.size} (want {want_size})")


def format_rows(rows: list[VerifyRow]) -> str:
    width = max(len(r.name) for r in rows)
    lines = [f"{r.status:<8} {r.name:<{width}}  {r.detail}" for r in rows]
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0, "OVERFLOW": 0}
    for r in rows:
        counts[r.status] += 1
    lines.append(f"{counts['PASS']} passed, {counts['FAIL']} failed, "
                 f"{counts['SKIP']} skipped, {counts['OVERFLOW']} overflowed")
    return "\n".join(lines) + "\n"


def format_rows_csv(rows: list[VerifyRow]) -> str:
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["status", "name", "detail"])
    for r in rows:
        writer.writerow([r.status, r.name, r.detail])
    return buf.getvalue()
