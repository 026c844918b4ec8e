import time
import tracemalloc
from math import inf

import pytest

import curvkit.girth as girth_mod
from curvkit import (
    Graph,
    all_vertex_girths,
    cycle,
    complete,
    graph_girth,
    path,
    petersen,
    random_tree,
    random_with_girth,
    star,
    vertex_girth,
)
from conftest import girth5_corpus, small_mixed_corpus, tree_hub
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


def test_graph_girth_lower_bounds():
    assert graph_girth(cycle(5)) >= 5
    assert not graph_girth(cycle(3)) >= 5
    assert graph_girth(petersen()) >= 5
    assert not graph_girth(petersen()) >= 6
    assert graph_girth(random_tree(7, 0)) >= 100
    assert not graph_girth(complete(4)) >= 4


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
        assert g.on_cycle.tolist() == [value != inf for value in expected]
        assert graph_girth(g) == min(expected)


def test_vertex_girth_off_every_cycle_runs_no_search(monkeypatch):
    # the graph marks its cycle vertices as it is built; at any other
    # vertex the girth is inf without a search of its component
    searched = []
    search = girth_mod._search

    def recording(g, sources):
        searched.extend(sources)
        return search(g, sources)

    monkeypatch.setattr(girth_mod, "_search", recording)
    g = _dumbbell()
    for x in (3, 4):
        assert vertex_girth(g, x) == inf
    for g in (path(6), random_tree(30, 2)):
        assert all(vertex_girth(g, x) == inf for x in range(g.vertex_count))
    assert searched == []
    assert vertex_girth(_dumbbell(), 5) == 4
    assert searched == [5]


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
    # of the whole graph from every vertex makes ~5000 O(n) searches; the
    # bridge pass runs as the graph is built, so the timing starts first
    tail = 5000
    start = time.perf_counter()
    g = Graph.from_edges([(0, 1), (1, 2), (2, 0)] + [(v, v + 1) for v in range(2, tail + 2)])
    assert graph_girth(g) == 3
    assert all_vertex_girths(g) == [3, 3, 3] + [inf] * tail
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"{elapsed:.2f} s"


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_girths_do_not_depend_on_the_batching(monkeypatch, case):
    # the smallest budget makes batches of one source and level chunks of
    # one frontier vertex; _late_triangle's 4-cycle candidate then comes a
    # chunk before its triangle
    sizes = []
    chunks = girth_mod._chunks

    def counting(weights):
        for part in chunks(weights):
            sizes.append(part.stop - part.start)
            yield part

    graphs = _ORACLE_CASES[case]()
    default = [all_vertex_girths(g) for g in graphs]
    monkeypatch.setattr(girth_mod, "_CELLS", 1)
    monkeypatch.setattr(girth_mod, "_chunks", counting)
    for g, girths in zip(graphs, default):
        assert all_vertex_girths(g) == girths
        assert girths == [full_scan_vertex_girth(g, x) for x in range(g.vertex_count)]
    assert set(sizes) == {1}


def test_dense_levels_are_chunked():
    # every vertex of complete(300) stops at level 1, whose 300 x 299 cells
    # expand 300 x 299 x 299 = 2.7e7 edges: about 214 MB for each array
    # of them unchunked, and about 20 MB in all chunked by _CELLS = 2^18
    g = complete(300)
    tracemalloc.start()
    try:
        assert all_vertex_girths(g) == [3] * 300
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_high_degree_non_tree_girths_within_budget():
    # the chorded degree-100 hub of test_cli.py's verify budget test: the
    # centre and its neighbours lie on triangles, the 300 leaves on no cycle
    hub = tree_hub(100)
    g = Graph.from_edges(hub.edges + [(y, y + 1) for y in range(1, 100)])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        girths = all_vertex_girths(g)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert girths == [3] * 101 + [inf] * 300
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_large_sparse_girths_within_budget():
    # 2.1-4.4 s on a shared 2-core VM, against 7.4-12.3 s for one Python
    # BFS per cycle vertex; the oracle checks every 300th vertex
    g = random_with_girth(30000, 45000, 5, 1)
    start = time.perf_counter()
    girths = all_vertex_girths(Graph(g.adjacency))   # the bridge pass included
    elapsed = time.perf_counter() - start
    assert elapsed < 9.0, f"{elapsed:.2f} s over the 9 s budget"
    for x in range(0, g.vertex_count, 300):
        assert girths[x] == full_scan_vertex_girth(g, x)
