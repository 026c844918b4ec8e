import time
from math import inf

import pytest

from curvkit import (
    Graph,
    all_vertex_girths,
    cycle,
    complete,
    graph_girth,
    has_girth_at_least,
    path,
    petersen,
    random_tree,
    random_with_girth,
    star,
    vertex_girth,
)
from conftest import girth5_corpus, small_mixed_corpus, tree_hub
from curvkit.girth import on_cycle
from oracles import (
    brute_force_graph_girth,
    brute_force_vertex_girth,
    full_scan_vertex_girth,
)


def test_cycle_girth():
    for m in (3, 5, 7):
        g = cycle(m)
        assert graph_girth(g) == m
        assert all(vertex_girth(g, x) == m for x in range(m))


def test_tree_girth_infinite():
    for g in (star(3), path(6), random_tree(11, 4)):
        assert graph_girth(g) == inf
        assert all(vertex_girth(g, x) == inf for x in range(g.vertex_count))


def test_petersen_girth_five(petersen_graph):
    assert graph_girth(petersen_graph) == 5
    for x in range(10):
        assert vertex_girth(petersen_graph, x) == brute_force_vertex_girth(
            petersen_graph, x
        )


def test_matches_brute_force_on_small_corpus(corpus_small):
    for g in corpus_small:
        if g.vertex_count > 12:
            continue
        for x in range(g.vertex_count):
            assert vertex_girth(g, x) == brute_force_vertex_girth(g, x)
        assert graph_girth(g) == brute_force_graph_girth(g)


def test_graph_girth_is_min_of_vertex_girths(corpus_small):
    for g in corpus_small:
        assert graph_girth(g) == min(
            vertex_girth(g, x) for x in range(g.vertex_count)
        )


def test_mixed_girth_vertices():
    # triangle with a pendant path: girth 3 on the triangle, no cycle
    # through the tail vertices
    from curvkit import Graph

    g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    assert vertex_girth(g, 0) == 3
    assert vertex_girth(g, 3) == inf
    assert vertex_girth(g, 4) == inf
    assert graph_girth(g) == 3


def test_has_girth_at_least():
    assert has_girth_at_least(cycle(5), 5)
    assert not has_girth_at_least(cycle(3), 5)
    assert has_girth_at_least(petersen(), 5)
    assert not has_girth_at_least(petersen(), 6)
    assert has_girth_at_least(random_tree(7, 0), 100)
    assert not has_girth_at_least(complete(4), 4)
    with pytest.raises(ValueError):
        has_girth_at_least(cycle(5), 2)


def _dumbbell() -> Graph:
    # triangle 0-1-2, path 2-3-4-5, 4-cycle 5-6-7-8: the path's inner
    # vertices 3 and 4 lie between two cycles but on none
    return Graph.from_edges(
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 5)]
    )


def _late_triangle() -> Graph:
    # from 0, level 1 is 1, 2, 3, 4 in scan order: 1 reaches 5 first, 2 then
    # closes the 4-cycle 0-1-5-2, and only 3 closes the triangle 0-3-4
    return Graph.from_edges([(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 4)])


_K33 = [(i, 3 + j) for i in range(3) for j in range(3)]

# each builder returns a list of graphs; called inside the test, not at collection
_ORACLE_CASES = {
    "small_mixed": small_mixed_corpus,
    "girth5": girth5_corpus,
    "random200": lambda: [random_with_girth(200, 300, 5, s) for s in (1, 2)],
    "random1000": lambda: [random_with_girth(1000, 1500, 5, s) for s in (1, 2)],
    "named": lambda: [
        cycle(4), cycle(6), Graph.from_edges(_K33), complete(4), tree_hub(6), tree_hub(40)
    ],
    "dumbbell": lambda: [_dumbbell()],
    "late_triangle": lambda: [_late_triangle()],
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_girths_match_full_scan_oracle(case):
    for g in _ORACLE_CASES[case]():
        expected = [full_scan_vertex_girth(g, x) for x in range(g.vertex_count)]
        assert [vertex_girth(g, x) for x in range(g.vertex_count)] == expected
        assert all_vertex_girths(g) == expected
        assert on_cycle(g) == [value != inf for value in expected]
        assert graph_girth(g) == min(expected)


def test_search_does_not_stop_at_the_first_candidate():
    # the 4-cycle candidate precedes the triangle within BFS level 1
    g = _late_triangle()
    assert vertex_girth(g, 0) == 3
    assert all_vertex_girths(g) == [3, 4, 4, 3, 3, 4]


def test_dumbbell_path_vertices_have_infinite_girth():
    assert all_vertex_girths(_dumbbell()) == [3, 3, 3, inf, inf, 4, 4, 4, 4]
    assert graph_girth(_dumbbell()) == 3


def test_pendant_path_girth_is_linear_time():
    # triangle with a 5000-vertex pendant path: one bridge pass (no
    # recursion, the DFS is 5000 deep) and three searches, where a search
    # of the whole graph from every vertex makes ~5000 O(n) searches
    tail = 5000
    g = Graph.from_edges([(0, 1), (1, 2), (2, 0)] + [(v, v + 1) for v in range(2, tail + 2)])
    start = time.perf_counter()
    assert graph_girth(g) == 3
    assert all_vertex_girths(g) == [3, 3, 3] + [inf] * tail
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"{elapsed:.2f} s"
