"""Finite simple undirected graphs, vertex functions, edge-list I/O, and
the layout of their 2-balls.

A graph is built from its edge list alone, so every vertex is an edge
endpoint and has degree at least 1 (the normalization 1/degree is defined
everywhere; a ``Graph`` made from adjacency rows directly rejects an empty
row); it is connected, loop-free and multi-edge-free. Vertex ids
are dense integers 0..n-1; instances are immutable after construction
and safe to share across threads. ``Balls`` states the column, sphere and
2-path layout of the 2-balls of many centres once; the local evaluator,
the CDE search, both CD routes and the 2-ball positivity check all read
it.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np


class GraphError(ValueError):
    """Base class for graph construction/validation failures."""


class SelfLoopError(GraphError):
    def __init__(self, vertex: int):
        super().__init__(f"self-loop at vertex {vertex}")
        self.vertex = vertex


class DisconnectedError(GraphError):
    def __init__(self, components: int):
        super().__init__(f"graph is disconnected ({components} components)")
        self.components = components


class EdgeListParseError(GraphError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph with sorted adjacency lists; every
    vertex has at least one neighbour."""

    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for v, nbrs in enumerate(self.adjacency):
            if not nbrs:
                raise GraphError(f"vertex {v} has no edge")

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build and validate a graph from undirected edge pairs.

        Duplicate edges collapse. The vertex set is the ids appearing in
        edges, so no vertex is isolated; gaps in the id range are
        compacted to 0..n-1 with a warning.
        """
        pairs: set[tuple[int, int]] = set()
        seen: set[int] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise SelfLoopError(u)
            if u < 0 or v < 0:
                raise GraphError(f"negative vertex id in edge ({u}, {v})")
            pairs.add((u, v) if u < v else (v, u))
            seen.add(u)
            seen.add(v)
        if not pairs:
            raise GraphError("a graph needs at least one edge")

        ids = sorted(seen)
        if ids[-1] != len(ids) - 1:
            warnings.warn(
                "sparse vertex ids compacted to a dense 0..n-1 range",
                stacklevel=2,
            )
            relabel = {v: i for i, v in enumerate(ids)}
            pairs = {(relabel[u], relabel[v]) for u, v in pairs}
        n = len(ids)

        neighbors: list[set[int]] = [set() for _ in range(n)]
        for u, v in pairs:
            neighbors[u].add(v)
            neighbors[v].add(u)

        g = cls(tuple(tuple(sorted(nbrs)) for nbrs in neighbors))
        comp = g._component_count()
        if comp != 1:
            raise DisconnectedError(comp)
        return g

    def _component_count(self) -> int:
        seen = [False] * self.vertex_count
        components = 0
        for start in range(self.vertex_count):
            if seen[start]:
                continue
            components += 1
            queue = deque([start])
            seen[start] = True
            while queue:
                u = queue.popleft()
                for w in self.adjacency[u]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
        return components

    def degree(self, x: int) -> int:
        return len(self.adjacency[x])

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges as (u, v) with u < v, ascending."""
        out = []
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    out.append((u, v))
        return out

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2


@dataclass(frozen=True, eq=False)
class VertexFunction:
    """Real-valued function on the vertices, stored as a float64 array."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("vertex function values must be one-dimensional")
        if not np.all(np.isfinite(vals)):
            raise ValueError("vertex function values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, vertex: int) -> float:
        return float(self.values[vertex])

    @classmethod
    def constant(cls, g: Graph, value: float) -> "VertexFunction":
        return cls(np.full(g.vertex_count, float(value)))

    @classmethod
    def indicator(cls, g: Graph, vertex: int) -> "VertexFunction":
        vals = np.zeros(g.vertex_count)
        vals[vertex] = 1.0
        return cls(vals)

    @classmethod
    def from_ball(
        cls, vertex_count: int, vertices: np.ndarray, values: np.ndarray, fill: float
    ) -> "VertexFunction":
        """values on these vertices (a 2-ball's), fill everywhere else."""
        vals = np.full(vertex_count, fill)
        vals[vertices] = values
        return cls(vals)


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse '#'-commented "u v" edge lines into a validated Graph.

    Lines end at "\n" (or "\r\n"); no other character ends a line, so
    vertical tab, form feed, the information separators, NEL and the
    Unicode line separators inside a line leave it malformed.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(line_no, f"expected 'u v', got {line!r}")
        # int() would also take "+1", "1_0" and non-ASCII digits
        if not (raw.isascii() and parts[0].isdigit() and parts[1].isdigit()):
            raise EdgeListParseError(line_no, f"expected two ASCII decimal ids, got {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if not edges:
        raise EdgeListParseError(0, "no edges found")
    return Graph.from_edges(edges)


def serialize_edge_list(g: Graph) -> str:
    """One "u v" line per edge, u < v, ascending, LF-terminated."""
    return "".join(f"{u} {v}\n" for u, v in g.edges)


class Balls:
    """The 2-balls of many centres: the one statement of their layout.

    Ball i has ``width[i]`` columns: 0 its centre x, 1..d_x sphere 1 (in
    adjacency order, so vertex order), then sphere 2 in vertex order. Its
    pairs are the 2-paths x ~ y ~ z in adjacency order, as the columns
    ``pair_y`` and ``pair_z`` (z may be x or, in a triangle, in sphere 1)
    with weight ``pair_w`` = 1/(2 d_x d_y). The arrays hold ball after
    ball: each ball's spheres begin at ``s1_first`` and ``s2_first``, and
    ``pair_ball`` is the ball of each pair.
    """

    def __init__(self, g: Graph, centres: Sequence[int]):
        adj, nv = g.adjacency, g.vertex_count
        for x in centres:
            _check_vertex(g, x)
        self.centres = np.array(centres, dtype=np.intp)
        dx = np.array([len(adj[x]) for x in centres], dtype=np.intp)
        y = np.fromiter(chain.from_iterable(adj[x] for x in centres), np.intp, dx.sum())
        dy = np.array([len(adj[v]) for v in y], dtype=np.intp)
        z = np.fromiter(chain.from_iterable(adj[v] for v in y), np.intp, dy.sum())
        # per 1-path x ~ y and per 2-path x ~ y ~ z: the ball of x
        s1_first = _firsts(dx)
        ball1 = np.repeat(np.arange(len(centres)), dx)
        edge = np.repeat(np.arange(len(y)), dy)
        ball2 = ball1[edge]

        key1 = ball1 * nv + y   # ascending
        key = ball2 * nv + z
        pos = np.minimum(np.searchsorted(key1, key), len(key1) - 1)
        in_s1 = key1[pos] == key
        in_s2 = ~in_s1 & (z != self.centres[ball2])
        # sphere 2 in (ball, vertex) order, by sorting: np.unique would
        # import numpy.ma, a megabyte of resident memory
        k2 = key[in_s2]
        order = np.argsort(k2, kind="stable")
        new = np.ones(len(k2), dtype=bool)
        new[1:] = k2[order[1:]] != k2[order[:-1]]
        s2_key = k2[order[new]]
        rank = np.empty_like(order)
        rank[order] = np.cumsum(new) - 1
        s2_count = np.bincount(s2_key // nv, minlength=len(centres))
        s2_first = _firsts(s2_count)
        zcol = np.zeros_like(z)
        zcol[in_s1] = 1 + pos[in_s1] - s1_first[ball2[in_s1]]
        zcol[in_s2] = 1 + dx[ball2[in_s2]] + rank - s2_first[ball2[in_s2]]

        self.degree = dx
        self.width = 1 + dx + s2_count
        self.sphere1, self.s1_first, self.s1_degree = y, s1_first, dy
        self.sphere2, self.s2_first = s2_key % nv, s2_first
        self.pair_y = (1 + np.arange(len(y)) - s1_first[ball1])[edge]
        self.pair_z = zcol
        self.pair_w = 1.0 / (2.0 * dx[ball2] * dy[edge])
        self.pair_ball = ball2


def _firsts(lengths: np.ndarray) -> np.ndarray:
    """Where each of consecutive segments of these lengths begins."""
    return np.cumsum(lengths) - lengths


def batches(sized: Iterable[tuple], budget: int) -> Iterator[list]:
    """The items of (item, size) pairs, grouped in order while their sizes
    sum to at most budget; a larger item is a group of its own. A group is
    yielded as soon as the next item does not fit."""
    batch, total = [], 0
    for item, size in sized:
        if batch and total + size > budget:
            yield batch
            batch, total = [], 0
        batch.append(item)
        total += size
    if batch:
        yield batch


def _check_vertex(g: Graph, x: int) -> None:
    if not 0 <= x < g.vertex_count:
        raise ValueError(f"vertex {x} out of range 0..{g.vertex_count - 1}")


def check_function(g: Graph, f: VertexFunction | Sequence[float]) -> np.ndarray:
    """Coerce f to a float64 array and check it matches the graph."""
    vals = f.values if isinstance(f, VertexFunction) else np.asarray(f, dtype=np.float64)
    if vals.shape != (g.vertex_count,):
        raise ValueError(
            f"vertex function has shape {vals.shape}, graph has {g.vertex_count} vertices"
        )
    return vals
