"""Finite knot n-quandles from diagrams via coset enumeration, with exact quandle homology."""

from qf.intlinalg import AbelianGroup, SNFResult, SparseIntMatrix, homology_of_pair, smith_normal_form
from qf.quandles import (
    FiniteQuandle,
    check_relators,
    components,
    is_connected,
    quandle_type,
    verify_extension,
)
from qf.groups import (
    CosetTable,
    GroupPresentation,
    Overflow,
    abelianization,
    branched_cover,
    g_n_presentation,
    quandle_from_cosets,
    todd_coxeter,
    trefoil_branched_presentation,
)
from qf.diagrams import analyze, connected_sum, parse_pd, quandle_presentation, wirtinger_with_peripherals
from qf.builders import build_montesinos, build_rational, build_torus
from qf.homology import boundaries, h2_order_via_extension, quandle_homology

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup", "SNFResult", "SparseIntMatrix", "homology_of_pair", "smith_normal_form",
    "FiniteQuandle", "check_relators", "components", "is_connected", "quandle_type",
    "verify_extension",
    "CosetTable", "GroupPresentation", "Overflow", "abelianization", "branched_cover",
    "g_n_presentation", "quandle_from_cosets", "todd_coxeter", "trefoil_branched_presentation",
    "analyze", "connected_sum", "parse_pd", "quandle_presentation", "wirtinger_with_peripherals",
    "build_montesinos", "build_rational", "build_torus",
    "boundaries", "h2_order_via_extension", "quandle_homology",
]
