"""The constructions that are valid by theorem pass the full checks too.

The witness of the model and extension rows takes pi1(M_n) to be a group, phi
an automorphism and GAlex(pi1, phi) a quandle by the lemma of ``qf.verify``,
and checks none of them; here loops over every pair and triple check all
three on every model row of the verification table, on the plain Cayley table
of pi1 that ``cover_reference`` builds.
"""

import pytest

from qf.pipeline import Pipeline
from qf.verify import MODEL_CASES

from test_quandles import brute_force_axioms, cover_reference


@pytest.fixture(scope="module")
def pipe():
    return Pipeline()


@pytest.mark.parametrize("spec, n", MODEL_CASES)
def test_theorem_paths_pass_the_full_checks(pipe, spec, n):
    g = cover_reference(pipe.branched(spec, n))
    assert brute_force_axioms(g.galex())
    mult, e, inv, rng = g.mult, g.identity, g.inv, range(g.order)
    assert all(mult[e][a] == a == mult[a][e] and mult[a][inv[a]] == e == mult[inv[a]][a]
               for a in rng)
    assert all(mult[mult[a][b]][c] == mult[a][mult[b][c]] for a in rng for b in rng for c in rng)
    assert sorted(g.phi) == list(rng)
    assert all(g.phi[mult[a][b]] == mult[g.phi[a]][g.phi[b]] for a in rng for b in rng)
