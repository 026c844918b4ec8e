"""Shared corpora for the test suite.

Corpus parameters are frozen: the acceptance criteria quote results on
exactly these graphs, so changing sizes or seeds changes what is being
verified.
"""

from __future__ import annotations

import numpy as np
import pytest

from curvkit import (
    Graph,
    complete,
    cycle,
    path,
    petersen,
    random_tree,
    random_with_girth,
    star,
)


def operator_corpus() -> list[tuple[Graph, int]]:
    """100 seeded random connected graphs, 5..30 vertices, any girth."""
    out = []
    for seed in range(100):
        n = 5 + (seed * 11) % 26
        extra = seed % 7
        out.append((random_with_girth(n, n - 1 + extra, 3, seed), seed))
    return out


def girth5_corpus() -> list[Graph]:
    """Petersen + 20 seeded girth-5 graphs (<= 40 vertices) + 10 trees."""
    graphs = [petersen()]
    for seed in range(20):
        n = 15 + (seed * 7) % 26
        graphs.append(random_with_girth(n, n + 6, 5, seed))
    for seed in range(10):
        graphs.append(random_tree(8 + seed, seed))
    return graphs


def small_mixed_corpus() -> list[Graph]:
    """Graphs up to 12 vertices with girths from 3 to infinity."""
    graphs = [
        cycle(3),
        cycle(4),
        cycle(5),
        cycle(6),
        cycle(7),
        complete(4),
        complete(5),
        star(3),
        star(5),
        path(2),
        path(6),
        petersen(),
        random_tree(9, 0),
        random_tree(12, 5),
    ]
    for seed in range(6):
        graphs.append(random_with_girth(10, 13, 3, seed))
        graphs.append(random_with_girth(12, 14, 4, 50 + seed))
        graphs.append(random_with_girth(12, 13, 5, 90 + seed))
    return graphs


def tree_hub(k: int, leaves: int = 3) -> Graph:
    """Center 0 of degree k; each neighbor carries `leaves` private leaves."""
    edges = [(0, y) for y in range(1, k + 1)]
    edges += [
        (y, k + 1 + leaves * (y - 1) + i) for y in range(1, k + 1) for i in range(leaves)
    ]
    return Graph.from_edges(edges)


def random_functions(g: Graph, count: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=g.vertex_count) for _ in range(count)]


def positive_functions(g: Graph, count: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [np.exp(0.5 * rng.normal(size=g.vertex_count)) for _ in range(count)]


@pytest.fixture(scope="session")
def petersen_graph() -> Graph:
    return petersen()


@pytest.fixture(scope="session")
def corpus_girth5() -> list[Graph]:
    return girth5_corpus()


@pytest.fixture(scope="session")
def corpus_operators() -> list[tuple[Graph, int]]:
    return operator_corpus()


@pytest.fixture(scope="session")
def corpus_small() -> list[Graph]:
    return small_mixed_corpus()


@pytest.fixture()
def cd_bound_raised_at_vertex_3(monkeypatch):
    """Raise the CD bound by 0.5 at vertex 3: on the Petersen graph, whose
    curvature meets the bound, a violation that re-verifies."""
    import curvkit.verify

    bounds = curvkit.verify._cd_bounds
    monkeypatch.setattr(
        curvkit.verify, "_cd_bounds",
        lambda g: [b + (0.5 if x == 3 else 0.0) for x, b in enumerate(bounds(g))],
    )
