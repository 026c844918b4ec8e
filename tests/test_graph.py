import warnings

import numpy as np
import pytest

from conftest import girth5_corpus, small_mixed_corpus, tree_hub
from curvkit import (
    DisconnectedError,
    EdgeListParseError,
    Graph,
    GraphError,
    SelfLoopError,
    VertexFunction,
    cycle,
    has_girth_at_least,
    parse_edge_list,
    path,
    petersen,
    random_tree,
    random_with_girth,
    serialize_edge_list,
    star,
    vertex_girth,
)
from curvkit.graph import Balls
from curvkit.localforms import LocalEvaluator
from oracles import walked_two_ball


def test_parse_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.vertex_count == 3
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]


def test_parse_duplicate_edge_collapses():
    g = parse_edge_list("0 1\n1 0")
    assert g.vertex_count == 2
    assert g.edge_count == 1
    assert [g.degree(v) for v in range(2)] == [1, 1]


def test_parse_self_loop():
    with pytest.raises(SelfLoopError) as err:
        parse_edge_list("0 0")
    assert err.value.vertex == 0


def test_parse_comments_and_blank_lines():
    g = parse_edge_list("# header\n\n0 1\n  \n# tail\n1 2\n")
    assert g.vertex_count == 3


def test_parse_accepts_bytes():
    g = parse_edge_list(b"0 1\n1 2\n")
    assert g.vertex_count == 3


def test_parse_accepts_crlf():
    g = parse_edge_list("0 1\r\n1 2\r\n")
    assert g.vertex_count == 3


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"])
def test_parse_only_newline_ends_a_line(sep):
    # str.splitlines would end a line at each of these and read two edges
    for text in (f"0 1{sep}1 2\n", f"0 1{sep}1 2\n".encode()):
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list(text)
        assert err.value.line_no == 1
    # not even at the end of a line, where stripping would hide it
    if not sep.isascii():
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list(f"0 1{sep}\n1 2\n")
        assert err.value.line_no == 1


def test_parse_malformed_line_number():
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list("0 1\n1 2 3")
    assert err.value.line_no == 2
    with pytest.raises(EdgeListParseError):
        parse_edge_list("0 x")
    # a line is ASCII and its ids are decimal digit strings: no sign, no
    # digit separator, no other script's digits or spaces
    for line in ("0 -2", "1_0 2", "+1 2", "\u0661 2", "1\u00a02"):
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list(f"0 1\n{line}")
        assert err.value.line_no == 2
    with pytest.raises(EdgeListParseError):
        parse_edge_list("# nothing\n\n")


def test_parse_disconnected():
    with pytest.raises(DisconnectedError):
        parse_edge_list("0 1\n2 3")


def test_parse_sparse_ids_compact_with_warning():
    with pytest.warns(UserWarning, match="compacted"):
        g = parse_edge_list("0 5\n5 9")
    assert g.vertex_count == 3
    assert g.edges == [(0, 1), (1, 2)]


def test_from_edges_rejects_bad_ids_and_counts():
    with pytest.raises(GraphError, match="negative vertex id"):
        Graph.from_edges([(0, -1)])
    with pytest.raises(GraphError, match="at least one edge"):
        Graph.from_edges([])


def test_from_edges_relabels_in_id_order_and_isolates_no_vertex():
    # seeded edge lists over (mostly sparse) ids with repeated and reversed
    # pairs; a list without its spanning tree is usually disconnected and
    # refused
    rng = np.random.default_rng(20)
    built = 0
    for _ in range(200):
        k = int(rng.integers(2, 12))
        ids = rng.choice(k if rng.random() < 0.2 else 1000, size=k, replace=False).tolist()
        pairs = []
        if rng.random() < 0.8:
            pairs += [(ids[i], ids[int(rng.integers(i))]) for i in range(1, k)]
        a = rng.integers(k, size=int(rng.integers(k + 1)))
        b = (a + rng.integers(1, k, size=len(a))) % k
        pairs += [(ids[u], ids[v]) for u, v in zip(a, b)]
        pairs += [(v, u) for u, v in pairs if rng.random() < 0.3]
        rng.shuffle(pairs)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                g = Graph.from_edges(pairs)
        except GraphError:
            continue
        built += 1
        rank = {v: i for i, v in enumerate(sorted({v for pair in pairs for v in pair}))}
        assert g.vertex_count == len(rank)
        assert g.edges == sorted({tuple(sorted((rank[u], rank[v]))) for u, v in pairs})
        assert all(g.degree(x) >= 1 for x in range(g.vertex_count))
        assert parse_edge_list(serialize_edge_list(g)) == g
    assert 100 <= built < 200


def test_graph_rejects_a_vertex_without_edges():
    # the degree >= 1 invariant holds however a Graph is made: without it,
    # every 1/d_x of the curvature code divides by zero
    with pytest.raises(GraphError, match="vertex 2 has no edge"):
        Graph(((1,), (0,), ()))
    with pytest.raises(TypeError):
        Graph(vertex_count=5, adjacency=((1,), (0,)))
    assert Graph(((1,), (0,))).vertex_count == 2


def test_serialize_examples():
    assert serialize_edge_list(path(3)) == "0 1\n1 2\n"
    triangle = cycle(3)
    assert serialize_edge_list(triangle) == "0 1\n0 2\n1 2\n"


def test_round_trip_on_generated_graphs():
    graphs = [petersen(), star(4), cycle(7), path(5)]
    for seed in range(30):
        graphs.append(random_with_girth(6 + seed % 20, 6 + seed % 20 + 2, 3, seed))
        graphs.append(random_tree(2 + seed % 12, seed))
    for g in graphs:
        assert parse_edge_list(serialize_edge_list(g)) == g


def test_adjacency_symmetry_everywhere():
    graphs = [petersen(), random_with_girth(15, 20, 4, 3), parse_edge_list("0 1\n1 2\n2 0")]
    for g in graphs:
        for u in range(g.vertex_count):
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]
                assert u != v
        for nbrs in g.adjacency:
            assert len(set(nbrs)) == len(nbrs)
            assert list(nbrs) == sorted(nbrs)


def test_degree_examples():
    s = star(3)
    assert s.degree(0) == 3
    assert s.degree(1) == 1  # pending vertex
    p = petersen()
    assert all(p.degree(x) == 3 for x in range(10))
    # cross-check via brute-force edge count: sum of degrees = 2m
    assert sum(p.degree(x) for x in range(10)) == 2 * len(p.edges) == 30


def _bfs_spheres(g, x):
    from collections import deque

    dist = {x: 0}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    s1 = sorted(v for v, d in dist.items() if d == 1)
    s2 = sorted(v for v, d in dist.items() if d == 2)
    return tuple(s1), tuple(s2)


def _spheres(g, x):
    """Sphere 1 and sphere 2 of the 2-ball of x, as laid out by Balls."""
    b = Balls(g, [x])
    return tuple(b.sphere1.tolist()), tuple(b.sphere2.tolist())


def test_ball_examples():
    assert _spheres(star(3), 0) == ((1, 2, 3), ())
    s1, s2 = _spheres(cycle(6), 0)
    assert len(s1) == 2 and len(s2) == 2
    p = petersen()
    s1, s2 = _spheres(p, 0)
    assert (s1, s2) == _bfs_spheres(p, 0)
    assert len(s1) == 3 and len(s2) == 6


def test_ball_invariants(corpus_small):
    for g in corpus_small:
        for x in range(g.vertex_count):
            s1, s2 = _spheres(g, x)
            assert x not in s1 and x not in s2
            assert not set(s1) & set(s2)
            assert (s1, s2) == _bfs_spheres(g, x)
            for z in s2:
                assert any(y in s1 for y in g.adjacency[z])


def test_balls_match_the_walked_two_ball():
    graphs = small_mixed_corpus() + girth5_corpus()[::3] + [tree_hub(14), path(5), star(8)]
    for g in graphs:
        whole = Balls(g, range(g.vertex_count))
        for x in range(g.vertex_count):
            b = Balls(g, [x])
            s1, s2, pairs = walked_two_ball(g, x)
            assert _spheres(g, x) == (s1, s2) == _bfs_spheres(g, x)
            assert np.all(np.diff(b.sphere2) > 0)
            col = {v: i for i, v in enumerate((x,) + s1 + s2)}
            assert b.width.tolist() == [len(col)]
            assert b.pair_y.dtype == b.pair_z.dtype == np.intp
            got = list(zip(b.pair_y.tolist(), b.pair_z.tolist(), b.pair_w.tolist()))
            assert got == [(col[y], col[z], w) for y, z, w in pairs]
            # the all-vertex layout, sliced at x, is the one-centre layout
            s1_span = slice(whole.s1_first[x], whole.s1_first[x] + whole.degree[x])
            s2_count = whole.width[x] - 1 - whole.degree[x]
            s2_span = slice(whole.s2_first[x], whole.s2_first[x] + s2_count)
            at = whole.pair_ball == x
            for got, want in [
                (whole.centres[x : x + 1], b.centres),
                (whole.degree[x : x + 1], b.degree),
                (whole.width[x : x + 1], b.width),
                (whole.sphere1[s1_span], b.sphere1),
                (whole.s1_degree[s1_span], b.s1_degree),
                (whole.sphere2[s2_span], b.sphere2),
                (whole.pair_y[at], b.pair_y),
                (whole.pair_z[at], b.pair_z),
                (whole.pair_w[at], b.pair_w),
            ]:
                assert got.dtype == want.dtype and np.array_equal(got, want)


def test_local_evaluator_checks_the_vertex():
    for x in (-1, 10):
        with pytest.raises(ValueError, match="out of range"):
            LocalEvaluator(petersen(), x)


def test_two_ball_tree_property_iff_girth5(corpus_small):
    for g in corpus_small:
        for x in range(g.vertex_count):
            sphere1, sphere2, _ = walked_two_ball(g, x)
            s1 = set(sphere1)
            no_s1_edge = all(
                w not in s1 for y in sphere1 for w in g.adjacency[y] if w != x
            )
            unique_parent = all(
                sum(1 for y in g.adjacency[z] if y in s1) == 1 for z in sphere2
            )
            assert (vertex_girth(g, x) >= 5) == (no_s1_edge and unique_parent)
        assert has_girth_at_least(g, 5) == all(
            vertex_girth(g, x) >= 5 for x in range(g.vertex_count)
        )


def test_vertex_function_validation():
    g = star(3)
    with pytest.raises(ValueError):
        VertexFunction([1.0, np.inf, 0.0, 0.0])
    with pytest.raises(ValueError):
        VertexFunction([[1.0, 2.0]])
    f = VertexFunction.indicator(g, 1)
    assert f[1] == 1.0 and f[0] == 0.0
    assert len(f) == 4


def test_vertex_function_values_immutable():
    f = VertexFunction([1.0, 2.0])
    with pytest.raises(ValueError):
        f.values[0] = 3.0


# ---- the package's export list ---------------------------------------------

def test_export_list_resolves():
    import curvkit

    assert len(set(curvkit.__all__)) == len(curvkit.__all__)
    for name in curvkit.__all__:
        assert hasattr(curvkit, name), name
    namespace: dict = {}
    exec("from curvkit import *", namespace)
    assert set(curvkit.__all__) <= set(namespace)
