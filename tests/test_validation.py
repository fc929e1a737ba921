"""The constructions that are valid by theorem pass the full checks too.

``FiniteQuandle`` checks distributivity on a generating set only (Lemma 2 of
``qf.quandles``) and groups prove associativity by Light's test; here loops over
every triple serve as the reference on every model row of the verification table.
"""

import pytest

from qf.pipeline import Pipeline
from qf.quandles import coset_quandle, galex
from qf.verify import EXTENSION_CASES, MODEL_CASES

from test_quandles import brute_force_axioms


@pytest.fixture(scope="module")
def pipe():
    return Pipeline()


@pytest.mark.parametrize("spec, n", MODEL_CASES)
def test_theorem_paths_pass_the_full_checks(pipe, spec, n):
    data = pipe.branched(spec, n)
    g = data.group
    model = coset_quandle(g, data.phi, g.subgroup_generated([data.longitude]))
    assert brute_force_axioms(model.table)
    if (spec, n) in EXTENSION_CASES:
        total = galex(g, data.phi)
        assert brute_force_axioms(total.table)
    mult, rng = g.mult, range(g.order)
    assert all(mult[mult[a][b]][c] == mult[a][mult[b][c]] for a in rng for b in rng for c in rng)
