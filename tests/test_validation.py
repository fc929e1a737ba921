"""The constructions that are valid by theorem pass the full checks too.

``galex`` and ``coset_quandle`` skip the O(n^3) distributivity scan and groups
prove associativity by Light's test; here the full checks serve as the reference
on every model row of the verification table.
"""

import pytest

from qf.pipeline import Pipeline
from qf.quandles import coset_quandle, from_table, galex
from qf.verify import EXTENSION_CASES, MODEL_CASES


@pytest.fixture(scope="module")
def pipe():
    return Pipeline()


@pytest.mark.parametrize("spec, n", MODEL_CASES)
def test_theorem_paths_pass_the_full_checks(pipe, spec, n):
    data = pipe.branched(spec, n)
    g = data.group
    model = coset_quandle(g, data.phi, g.subgroup_generated([data.longitude]))
    assert from_table(model.table) == model
    if (spec, n) in EXTENSION_CASES:
        total = galex(g, data.phi)
        assert from_table(total.table) == total
    mult, rng = g.mult, range(g.order)
    assert all(mult[mult[a][b]][c] == mult[a][mult[b][c]] for a in rng for b in rng for c in rng)
