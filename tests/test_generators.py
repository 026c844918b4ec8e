from math import inf

import pytest

from curvkit import (
    BadParameterError,
    complete,
    cycle,
    graph_girth,
    path,
    petersen,
    random_tree,
    random_with_girth,
    star,
)


def test_cycle():
    g = cycle(5)
    assert g.vertex_count == 5 and g.edge_count == 5
    assert all(g.degree(x) == 2 for x in range(5))
    assert graph_girth(g) == 5
    assert graph_girth(cycle(3)) == 3
    with pytest.raises(BadParameterError):
        cycle(2)


def test_path():
    g = path(5)
    assert g.edge_count == 4
    assert [g.degree(x) for x in range(5)] == [1, 2, 2, 2, 1]
    with pytest.raises(BadParameterError):
        path(1)


def test_star():
    g = star(3)
    assert g.degree(0) == 3
    assert all(g.degree(x) == 1 for x in range(1, 4))
    assert graph_girth(g) == inf
    assert star(1).edge_count == 1
    with pytest.raises(BadParameterError):
        star(0)


def test_complete():
    g = complete(3)
    assert graph_girth(g) == 3
    g5 = complete(5)
    assert g5.edge_count == 10
    with pytest.raises(BadParameterError):
        complete(1)


def test_petersen():
    g = petersen()
    assert g.vertex_count == 10
    assert g.edge_count == 15
    assert all(g.degree(x) == 3 for x in range(10))
    assert graph_girth(g) == 5


def test_random_tree():
    a = random_tree(15, 9)
    b = random_tree(15, 9)
    assert a == b
    assert a.edge_count == 14
    assert graph_girth(a) == inf
    assert random_tree(15, 10) != a
    with pytest.raises(BadParameterError):
        random_tree(1, 0)


def test_random_with_girth_deterministic():
    a = random_with_girth(20, 25, 5, 7)
    b = random_with_girth(20, 25, 5, 7)
    assert a == b
    assert a.vertex_count == 20 and a.edge_count == 25


def test_random_with_girth_floor_on_100_seeds():
    for seed in range(100):
        g = random_with_girth(12, 15, 5, seed)
        assert graph_girth(g) >= 5


def test_random_with_girth_other_floors():
    for seed in range(10):
        for floor in (3, 4, 6):
            g = random_with_girth(14, 16, floor, seed)
            assert graph_girth(g) >= floor


def test_random_with_girth_stall_warns():
    # 6 vertices cannot hold 14 edges at girth 6; the generator must stop
    # and warn rather than spin
    with pytest.warns(UserWarning, match="stalled"):
        g = random_with_girth(6, 14, 6, 0)
    assert g.edge_count < 14
    assert graph_girth(g) >= 6


def test_random_with_girth_bad_parameters():
    with pytest.raises(BadParameterError):
        random_with_girth(10, 8, 5, 0)  # cannot connect 10 vertices
    with pytest.raises(BadParameterError):
        random_with_girth(10, 46, 5, 0)  # above the simple-graph maximum
    with pytest.raises(BadParameterError):
        random_with_girth(10, 12, 2, 0)
    with pytest.raises(BadParameterError):
        random_with_girth(1, 0, 3, 0)


def test_generator_outputs_pass_graph_invariants():
    graphs = [
        cycle(9),
        path(4),
        star(6),
        complete(6),
        petersen(),
        random_tree(20, 3),
        random_with_girth(25, 30, 5, 3),
    ]
    for g in graphs:
        for u in range(g.vertex_count):
            assert g.degree(u) >= 1
            for v in g.adjacency[u]:
                assert u != v
                assert u in g.adjacency[v]
