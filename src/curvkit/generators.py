"""Deterministic test-graph families.

All randomness comes from the package's SplitMix64 streams (see rng.py),
so any (family, parameters, seed) triple reproduces bit-identically across
platforms and runs.
"""

from __future__ import annotations

import warnings
from collections import deque

from .graph import Graph
from .rng import _draws_below


class BadParameterError(ValueError):
    """Generator parameters outside the valid range."""


def cycle(m: int) -> Graph:
    """Cycle on m >= 3 vertices; girth m."""
    if m < 3:
        raise BadParameterError(f"cycle needs >= 3 vertices, got {m}")
    return Graph.from_edges((i, (i + 1) % m) for i in range(m))


def path(vertices: int) -> Graph:
    """Path on >= 2 vertices."""
    if vertices < 2:
        raise BadParameterError(f"path needs >= 2 vertices, got {vertices}")
    return Graph.from_edges((i, i + 1) for i in range(vertices - 1))


def star(leaves: int) -> Graph:
    """Star: center 0 joined to `leaves` >= 1 pending vertices."""
    if leaves < 1:
        raise BadParameterError(f"star needs >= 1 leaf, got {leaves}")
    return Graph.from_edges((0, i) for i in range(1, leaves + 1))


def complete(vertices: int) -> Graph:
    """Complete graph on >= 2 vertices."""
    if vertices < 2:
        raise BadParameterError(f"complete graph needs >= 2 vertices, got {vertices}")
    return Graph.from_edges(
        (i, j) for i in range(vertices) for j in range(i + 1, vertices)
    )


def petersen() -> Graph:
    """The Petersen graph: 10 vertices, 15 edges, 3-regular, girth 5."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((i, i + 5))                # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return Graph.from_edges(edges)


def random_tree(vertices: int, seed: int) -> Graph:
    """Uniform-attachment tree: vertex i joins a uniform vertex in [0, i)."""
    if vertices < 2:
        raise BadParameterError(f"random tree needs >= 2 vertices, got {vertices}")
    below = _draws_below(seed)
    return Graph.from_edges((below(i), i) for i in range(1, vertices))


def random_with_girth(
    vertices: int, target_edges: int, min_girth: int, seed: int
) -> Graph:
    """Seeded random connected graph whose girth is >= min_girth.

    Starts from a uniform-attachment spanning tree and repeatedly proposes
    a uniform random non-edge {u, v}, accepting only when the current
    distance between u and v is >= min_girth - 1 (the cycle the new edge
    closes then has length >= min_girth, and every new cycle passes
    through the new edge). Stops at target_edges, or warns and returns a
    sparser graph after 50 * target_edges consecutive rejections.
    """
    if vertices < 2:
        raise BadParameterError(f"need >= 2 vertices, got {vertices}")
    if min_girth < 3:
        raise BadParameterError(f"min_girth must be >= 3, got {min_girth}")
    if target_edges < vertices - 1:
        raise BadParameterError(
            f"{target_edges} edges cannot connect {vertices} vertices"
        )
    if target_edges > vertices * (vertices - 1) // 2:
        raise BadParameterError(f"{target_edges} edges exceed the simple-graph maximum")

    below = _draws_below(seed)
    adjacency: list[set[int]] = [set() for _ in range(vertices)]
    for i in range(1, vertices):
        parent = below(i)
        adjacency[parent].add(i)
        adjacency[i].add(parent)

    edge_count = vertices - 1
    rejections = 0
    stall = 50 * target_edges
    while edge_count < target_edges and rejections < stall:
        u = below(vertices)
        v = below(vertices)
        if u == v or v in adjacency[u]:
            rejections += 1
            continue
        if _distance_at_least(adjacency, u, v, min_girth - 1):
            adjacency[u].add(v)
            adjacency[v].add(u)
            edge_count += 1
            rejections = 0
        else:
            rejections += 1
    if edge_count < target_edges:
        warnings.warn(
            f"girth floor {min_girth} stalled at {edge_count}/{target_edges} edges",
            stacklevel=2,
        )
    return Graph.from_edges(
        (u, v) for u in range(vertices) for v in adjacency[u] if u < v
    )


def _distance_at_least(adjacency: list[set[int]], u: int, v: int, limit: int) -> bool:
    """True when dist(u, v) >= limit (BFS truncated at depth limit - 1)."""
    dist = {u: 0}
    queue = deque([u])
    while queue:
        w = queue.popleft()
        if dist[w] >= limit - 1:
            continue
        for t in adjacency[w]:
            if t not in dist:
                if t == v:
                    return False
                dist[t] = dist[w] + 1
                queue.append(t)
    return v not in dist
