"""Genus and singularity-measure sequences, and the ratio report."""

import pytest

from rectower.errors import BadIndex, FormulaMismatch, NoRegularComponent, TowerError
from rectower.ff import FieldCtx
from rectower.genus import GenusReport, asymptotic_report, delta, genus_closed, genus_sum
from rectower.p1 import map_parse
from rectower.tgraph import TowerGraph


def test_delta_values():
    assert delta(2) == 0
    assert delta(3) == 2
    assert delta(4) == 4
    assert delta(5) == 12
    with pytest.raises(BadIndex):
        delta(1)


def test_genus_closed_values():
    assert genus_closed(1) == 0
    assert genus_closed(2) == 1
    assert genus_closed(4) == 9
    assert genus_closed(5) == 21
    with pytest.raises(BadIndex):
        genus_closed(0)


def test_genus_sum_values():
    assert genus_sum(2) == 1
    assert genus_sum(4) == 9
    assert genus_sum(20) == genus_closed(20)
    with pytest.raises(BadIndex):
        genus_sum(1)


def test_formulas_agree_and_grow():
    for n in range(2, 25):
        assert genus_sum(n) == genus_closed(n)
    for n in range(2, 24):
        assert genus_closed(n + 1) > genus_closed(n)


def _graph(p):
    return TowerGraph(map_parse("(x^2+x)/(3*x-1)", p), map_parse("y^2", p),
                      FieldCtx(p, 2))


def test_report_rows_p5():
    rows = asymptotic_report(10, _graph(5))
    by_n = {r.n: r for r in rows}
    assert by_n[1].ratio is None and by_n[1].genus == 0
    assert by_n[10].n_lower == 4096 and by_n[10].genus == 961
    assert abs(by_n[10].ratio - 4096 / 961) < 1e-12
    assert by_n[2].delta == 0


def test_report_ratio_tends_to_p_minus_1():
    rows = asymptotic_report(16, _graph(13))
    assert abs(rows[-1].ratio - 12) < 0.1


def test_report_carries_both_genus_routes():
    rows = asymptotic_report(6, _graph(5))
    for r in rows:
        if r.n >= 2:
            assert r.genus_sum == r.genus_closed == r.genus
    with pytest.raises(AssertionError):
        from rectower.genus import GenusReport
        GenusReport(n=3, delta=2, genus_closed=3, genus_sum=4, n_lower=0, ratio=None)


def test_report_rows_keep_the_summation_route_to_200():
    # the rows carry the sum as a running tail; each must be genus_sum(n)
    rows = asymptotic_report(200, _graph(5))
    assert [r.genus_sum for r in rows] == [None] + [genus_sum(n) for n in range(2, 201)]
    assert [r.delta for r in rows] == [None] + [delta(n) for n in range(2, 201)]


def test_report_refuses_other_towers():
    graph = TowerGraph(map_parse("(x^2+1)/(2*x)", 5), map_parse("y^2", 5),
                       FieldCtx(5, 2))
    with pytest.raises(ValueError):
        asymptotic_report(5, graph)


def test_report_requires_regular_component():
    graph = TowerGraph(map_parse("(x^2+x)/(3*x-1)", 5), map_parse("y^2", 5),
                       FieldCtx(5))
    with pytest.raises(NoRegularComponent):
        asymptotic_report(5, graph)


@pytest.mark.parametrize("p", [5, 7])
def test_report_rows_match_per_row_path_counts(p):
    graph = _graph(p)
    support = [v for c in graph.regular_components() for v in c.vertices]
    rows = asymptotic_report(12, graph)
    assert [r.n for r in rows] == list(range(1, 13))
    assert [r.n_lower for r in rows] == [graph.count_paths(n - 1, support)
                                        for n in range(1, 13)]


def test_report_needs_a_row():
    with pytest.raises(BadIndex):
        asymptotic_report(0, _graph(5))


def test_disagreeing_genus_routes_raise_a_tower_error():
    with pytest.raises(FormulaMismatch) as err:
        GenusReport(n=5, delta=12, genus_closed=21, genus_sum=20, n_lower=0, ratio=None)
    assert isinstance(err.value, TowerError)
