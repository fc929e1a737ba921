"""The constructions that are valid by theorem pass the full checks too.

``FiniteQuandle`` checks distributivity on a generating set only (Lemma 2 of
``qf.quandles``) and groups prove associativity by Light's test; here loops over
every triple serve as the reference on every model row of the verification table:
the group pi1(M_n) and GAlex(pi1, phi), the total quandle of the witness that
the model and extension rows check.
"""

import pytest

from qf.pipeline import Pipeline
from qf.quandles import galex
from qf.verify import MODEL_CASES

from test_quandles import brute_force_axioms


@pytest.fixture(scope="module")
def pipe():
    return Pipeline()


@pytest.mark.parametrize("spec, n", MODEL_CASES)
def test_theorem_paths_pass_the_full_checks(pipe, spec, n):
    data = pipe.branched(spec, n)
    g = data.group
    assert brute_force_axioms(galex(g, data.phi).table)
    mult, rng = g.mult, range(g.order)
    assert all(mult[mult[a][b]][c] == mult[a][mult[b][c]] for a in rng for b in rng for c in rng)
