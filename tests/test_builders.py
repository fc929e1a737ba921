import pytest

from qf.builders import (
    MontesinosDiagram,
    build_montesinos,
    build_rational,
    build_torus,
    _continued_fraction,
    _even_length_expansion,
)
from qf.diagrams import MultiComponent, ParameterError, analyze, parse_pd, wirtinger_with_peripherals
from qf.groups import g_n_presentation, todd_coxeter


def q2_size(pd):
    per = wirtinger_with_peripherals(analyze(pd))
    t = todd_coxeter(g_n_presentation(per, 2), [(per.meridian + 1,), per.longitude],
                     max_cosets=200000)
    return t.size


def test_continued_fractions():
    assert _continued_fraction(7, 3) == [2, 3]
    assert _continued_fraction(3, 1) == [3]
    assert _continued_fraction(-1, 3) == [-1, 1, 2]
    assert _even_length_expansion(3, 1) == [2, 1]
    assert _even_length_expansion(5, 3) == [1, 1, 1, 1]
    for p, q in [(3, 1), (5, 3), (7, 3), (9, 5), (11, 4)]:
        cf = _even_length_expansion(p, q)
        assert len(cf) % 2 == 0
        value = cf[-1]
        for a in reversed(cf[:-1]):
            value = a + 1 / value
        assert abs(value - p / q) < 1e-12


def test_rational_parameter_errors():
    with pytest.raises(ParameterError):
        build_rational(4, 1)  # even alpha is a link
    with pytest.raises(ParameterError):
        build_rational(9, 3)  # not coprime
    with pytest.raises(ParameterError):
        build_rational(5, 7)  # beta out of range
    with pytest.raises(ParameterError):
        build_rational(1, 1)


def test_rational_q2_sizes():
    for alpha, beta in [(3, 1), (5, 1), (5, 3), (7, 3), (9, 5)]:
        pd = build_rational(alpha, beta)
        d = analyze(pd)
        assert len(d.arcs) == pd.n_crossings
        assert q2_size(pd) == alpha, f"S({alpha},{beta})"


def test_rational_3_1_matches_catalog_trefoil():
    # same |Q2| as the catalog trefoil; diagrams may differ by mirror
    assert q2_size(build_rational(3, 1)) == q2_size(parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"))


def test_torus_builder():
    assert build_torus(2, 3) == parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    with pytest.raises(ParameterError):
        build_torus(2, 4)
    with pytest.raises(ParameterError):
        build_torus(3, 5)
    d = analyze(build_torus(2, 7))
    assert abs(d.writhe) == 7
    assert q2_size(build_torus(2, 5)) == 5


def test_montesinos_mu_detection():
    res = build_montesinos(1, [(1, 2), (1, 3), (1, 3)])
    assert isinstance(res, MontesinosDiagram)
    assert res.mu == 1 and res.family == "233"
    res = build_montesinos(1, [(1, 2), (1, 3), (1, 5)])
    assert res.mu == 1 and res.family == "235"
    # order of the fractions must not matter
    res = build_montesinos(1, [(1, 3), (1, 2), (1, 3)])
    assert res.mu == 1 and res.family == "233"


def test_montesinos_outside_lemma_shapes():
    # all-odd pretzel: a knot, but no mu applies
    res = build_montesinos(0, [(1, 3), (1, 3), (1, 3)])
    assert res.mu is None and res.family is None
    assert analyze(res.pd).writhe is not None


def test_montesinos_link_rejected():
    # two half tangles close up to a 2-component link, three to a 3-component one
    for third, components in (((1, 3), 2), ((1, 2), 3)):
        with pytest.raises(MultiComponent) as err:
            build_montesinos(0, [(1, 2), (1, 2), third])
        assert err.value.components == components


def test_montesinos_parameter_errors():
    with pytest.raises(ParameterError):
        build_montesinos(0, [(1, 2), (1, 3)])
    with pytest.raises(ParameterError):
        build_montesinos(0, [(1, 1), (1, 3), (1, 3)])
    with pytest.raises(ParameterError):
        build_montesinos(0, [(2, 4), (1, 3), (1, 3)])


def test_montesinos_233_counts():
    res = build_montesinos(1, [(1, 2), (1, 3), (1, 3)])
    assert q2_size(res.pd) == 12 * res.mu


def test_builders_single_component_and_analyzable():
    pds = [build_rational(7, 5), build_torus(2, 9),
           build_montesinos(2, [(1, 2), (2, 3), (2, 3)]).pd]
    for pd in pds:
        d = analyze(pd)
        assert len(d.arcs) == pd.n_crossings
        assert sum(len(a) for a in d.arcs) == 2 * pd.n_crossings
