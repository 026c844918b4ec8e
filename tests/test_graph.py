import warnings

import numpy as np
import pytest

from conftest import girth5_corpus, operator_corpus, small_mixed_corpus, tree_hub
from curvkit import (
    DisconnectedError,
    EdgeListParseError,
    Graph,
    GraphError,
    SelfLoopError,
    VertexFunction,
    assemble_cd_forms,
    cd_bound_girth5,
    cd_check,
    cd_curvature,
    cd_witness_value,
    cde_estimate,
    cde_ratio,
    complete,
    cycle,
    gamma,
    gamma2,
    gamma2_local,
    gamma_f_ratio,
    gamma_iterate,
    gamma_local,
    graph_girth,
    laplacian,
    parse_edge_list,
    path,
    petersen,
    random_tree,
    random_with_girth,
    serialize_edge_list,
    star,
    vertex_girth,
)
from curvkit.graph import Balls, _ranges
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
    # ids are integers, not numbers that int() would truncate or parse
    with pytest.raises(GraphError, match=r"integers, got edge \(0\.5, 1\.7\)"):
        Graph.from_edges([(0.5, 1.7), (1, 2), (2, 0)])
    with pytest.raises(GraphError, match=r"integers, got edge \('0', '1'\)"):
        Graph.from_edges([("0", "1")])
    assert Graph.from_edges(np.array([(0, 1), (1, 2)])).edges == [(0, 1), (1, 2)]


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


def test_graph_rejects_rows_that_break_an_invariant():
    # Balls binary-searches the rows, so on reversed rows K(x, 2) of K5 read
    # -0.5 instead of -0.125; an id past n ended in an IndexError
    k5 = complete(5)
    cases = [
        (tuple(row[::-1] for row in k5.adjacency), GraphError, "strictly increasing"),
        (((1, 1), (0,)), GraphError, "strictly increasing"),
        (((5,), (0,)), GraphError, r"in 0\.\.1"),
        (((-1,), (0,)), GraphError, r"in 0\.\.1"),
        (((1,), (0,), (0,)), GraphError, "row 2 holds 0 but row 0 does not hold 2"),
        (((1, 2), (0,), (1,)), GraphError, "row 0 holds 2 but row 2 does not hold 0"),
        (((0, 1), (0,)), SelfLoopError, "self-loop at vertex 0"),
        (((1,), (0,), (3,), (2,)), DisconnectedError, "2 components"),
    ]
    for rows, error, message in cases:
        with pytest.raises(error, match=message):
            Graph(rows)
    assert Graph(k5.adjacency) == k5
    assert cd_curvature(k5, 0).curvature_K == pytest.approx(-0.125)


def test_graph_keeps_its_csr_arrays_read_only():
    for g in small_mixed_corpus() + girth5_corpus():
        n = g.vertex_count
        assert g.degrees.tolist() == [len(row) for row in g.adjacency]
        assert g.indptr.tolist() == [0] + np.cumsum(g.degrees).tolist()
        assert [tuple(g.indices[g.indptr[v]:g.indptr[v + 1]].tolist()) for v in range(n)] == list(
            g.adjacency
        )
        assert g.on_cycle.shape == (n,) and g.on_cycle.dtype == bool
        for array in (g.degrees, g.indptr, g.indices, g.on_cycle):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]


def test_edges_are_the_adjacency_walk():
    graphs = small_mixed_corpus() + girth5_corpus() + [g for g, _ in operator_corpus()]
    for g in graphs:
        walked = [(u, v) for u, row in enumerate(g.adjacency) for v in row if u < v]
        edges = g.edges
        assert edges == walked and len(edges) == g.edge_count
        assert all(type(u) is int and type(v) is int for u, v in edges)


def test_ranges_match_a_loop():
    rng = np.random.default_rng(24)
    for size in (0, 1, 2, 7, 50):
        length = rng.integers(0, 4, size=size)
        first = rng.integers(0, 100, size=size)
        index, segment = _ranges(first, length)
        want = [(f + k, i) for i, (f, n) in enumerate(zip(first, length)) for k in range(n)]
        assert list(zip(index.tolist(), segment.tolist())) == want
    assert 0 in length   # the lengths drawn include empty ranges


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


def _by_degree(g, s1):
    """Sphere 1 in the layout of Balls: by (degree, vertex)."""
    return tuple(sorted(s1, key=lambda y: (g.degree(y), y)))


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
            bfs1, bfs2 = _bfs_spheres(g, x)
            assert (s1, s2) == (_by_degree(g, bfs1), bfs2)
            for z in s2:
                assert any(y in s1 for y in g.adjacency[z])


def test_balls_match_the_walked_two_ball():
    graphs = small_mixed_corpus() + girth5_corpus()[::3] + [tree_hub(14), path(5), star(8)]
    for g in graphs:
        whole = Balls(g, range(g.vertex_count))
        for x in range(g.vertex_count):
            b = Balls(g, [x])
            s1, s2, pairs = walked_two_ball(g, x)
            assert (s1, s2) == _bfs_spheres(g, x)
            # sphere 1 by (degree, vertex), and the centre first among the
            # pairs of each y, the others in adjacency order
            s1 = _by_degree(g, s1)
            pairs = sorted(pairs, key=lambda p: (s1.index(p[0]), p[1] != x))
            assert _spheres(g, x) == (s1, s2)
            assert b.s1_degree.tolist() == [g.degree(y) for y in s1]
            assert np.all(np.diff(b.sphere2) > 0)
            col = {v: i for i, v in enumerate((x,) + s1 + s2)}
            assert b.width.tolist() == [len(col)]
            assert b.pair_y.dtype == b.pair_z.dtype == np.intp
            # each sphere-2 vertex's parent: its first sphere-1 column
            assert b.parent.tolist() == [min(col[y] for y, w, _ in pairs if w == z) for z in s2]
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
                (whole.parent[s2_span], b.parent),
                (whole.pair_y[at], b.pair_y),
                (whole.pair_z[at], b.pair_z),
                (whole.pair_w[at], b.pair_w),
            ]:
                assert got.dtype == want.dtype and np.array_equal(got, want)


# positive, and largest at vertex 3 of the Petersen graph: feasible there
# for the CDE ratio (Df(3) < 0, G(f)(3) > 0)
_F = np.linspace(0.5, 1.5, 10)
_F[3] = 2.0

# every public entry point that takes a vertex, as a function of (graph,
# vertex) that returns what it computes, as arrays of values
VERTEX_ENTRY_POINTS = {
    "vertex_girth": vertex_girth,
    "cd_bound_girth5": cd_bound_girth5,
    "cd_witness_value": lambda g, x: cd_witness_value(g, x, 1),
    "laplacian": lambda g, x: laplacian(g, _F, x),
    "gamma": lambda g, x: gamma(g, _F, _F[::-1], x),
    "gamma2": lambda g, x: gamma2(g, _F, x),
    "gamma_iterate": lambda g, x: gamma_iterate(g, _F, _F[::-1], x, 3),
    "gamma_f_ratio": lambda g, x: gamma_f_ratio(g, _F, x),
    "gamma_local": lambda g, x: gamma_local(g, _F, x),
    "gamma2_local": lambda g, x: gamma2_local(g, _F, x),
    "cd_check": lambda g, x: cd_check(g, x, 2.0, -1.0, _F),
    "cde_ratio": lambda g, x: cde_ratio(g, x, 2.0, _F),
    "cd_curvature": lambda g, x: ((r := cd_curvature(g, x, 3.5)).curvature_K, r.function.values),
    "cde_estimate": lambda g, x: (
        (e := cde_estimate(g, x, 2.0, 50, 1)).sampled_min, e.function.values),
    "assemble_cd_forms": lambda g, x: assemble_cd_forms(g, x, 2.0),
    "LocalEvaluator": lambda g, x: (
        (ev := LocalEvaluator(g, x)).vertices, ev.ratios(_F[ev.vertices][None], 2.0)),
    "VertexFunction.indicator": lambda g, x: VertexFunction.indicator(g, x).values,
}


@pytest.mark.parametrize("name", VERTEX_ENTRY_POINTS)
def test_every_vertex_entry_point_checks_the_vertex(name):
    # one rule: an integer (Python's or numpy's) in 0..n-1; anything else
    # is refused, never truncated or wrapped around to another vertex
    entry, g = VERTEX_ENTRY_POINTS[name], petersen()
    for x in (1.5, np.float64(2.0)):
        with pytest.raises(TypeError):
            entry(g, x)
    for x in (-1, g.vertex_count):
        with pytest.raises(ValueError, match=rf"^vertex {x} out of range 0\.\.9$"):
            entry(g, x)
    want = entry(g, 3)
    for x in (np.int64(3), np.uint8(3)):
        got = entry(g, x)
        assert type(got) is type(want)
        pairs = zip(got, want, strict=True) if isinstance(want, tuple) else [(got, want)]
        assert all(np.array_equal(a, b) for a, b in pairs)


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
        assert (graph_girth(g) >= 5) == all(
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
