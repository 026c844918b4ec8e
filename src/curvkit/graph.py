"""Finite simple undirected graphs, vertex functions, edge-list I/O, and
the layout of their 2-balls.

A graph is built from its edge list alone, so every vertex is an edge
endpoint and has degree at least 1 (the normalization 1/degree is defined
everywhere); it is connected, loop-free and multi-edge-free. Vertex ids
are dense integers 0..n-1 and each adjacency row is strictly increasing;
a ``Graph`` made from adjacency rows directly is checked for all of this.
The checks walk the graph once, and the graph keeps what they build: its
CSR arrays, and its cycle vertices from the bridge pass that counts its
components. Instances are immutable after construction and safe to share
across threads. ``Balls`` states the column, sphere and 2-path layout of
the 2-balls of many centres once, by CSR gathers (``_ranges``); the local
evaluator, both CD routes, the CDE move scorer (one ``Balls`` per batch
of centres, as the CD batches) and the 2-ball positivity check all read
it.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
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
    """Immutable connected simple undirected graph: row v lists the
    neighbours of v in increasing order, and every vertex has one. Kept as
    read-only arrays: ``degrees``, the rows in CSR form (row v is
    ``indices[indptr[v]:indptr[v + 1]]``) and ``on_cycle``, true at each
    vertex on a cycle."""

    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # the rows are read by one iteration, never by index: a test can
        # then tell which rows a computation reads
        rows = tuple(self.adjacency)
        n = len(rows)
        degrees = np.fromiter(map(len, rows), np.intp, n)
        indptr = np.concatenate(([0], np.cumsum(degrees)))
        w = np.fromiter(chain.from_iterable(rows), np.intp, indptr[-1])
        v = np.repeat(np.arange(n), degrees)
        if not degrees.all():
            raise GraphError(f"vertex {degrees.argmin()} has no edge")
        loop = v == w
        if loop.any():
            raise SelfLoopError(int(v[loop.argmax()]))
        # with ids in 0..n-1, the arcs' keys ascend exactly when every row does
        key = v * n + w
        bad = (w < 0) | (w >= n)
        bad[1:] |= key[1:] <= key[:-1]
        if bad.any():
            raise GraphError(f"row {v[bad.argmax()]} is not strictly increasing in 0..{n - 1}")
        reverse = w * n + v
        unmatched = key[np.minimum(np.searchsorted(key, reverse), len(key) - 1)] != reverse
        if unmatched.any():
            i = unmatched.argmax()
            raise GraphError(f"row {v[i]} holds {w[i]} but row {w[i]} does not hold {v[i]}")
        components, on_cycle = _bridge_pass(rows)
        if components != 1:
            raise DisconnectedError(components)
        for name, array in (("degrees", degrees), ("indptr", indptr), ("indices", w),
                            ("on_cycle", np.array(on_cycle))):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build and validate a graph from undirected edge pairs of integer
        ids (Python's or numpy's; another id is a ``GraphError``).

        Duplicate edges collapse. The vertex set is the ids appearing in
        edges, so no vertex is isolated; gaps in the id range are
        compacted to 0..n-1 with a warning.
        """
        pairs: set[tuple[int, int]] = set()
        seen: set[int] = set()
        for edge in edges:
            try:   # int() would truncate 0.5 and parse "1"
                u, v = map(operator.index, edge)
            except TypeError:
                raise GraphError(f"vertex ids must be integers, got edge {edge!r}") from None
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

        return cls(tuple(tuple(sorted(nbrs)) for nbrs in neighbors))

    def degree(self, x: int) -> int:
        return len(self.adjacency[x])

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges as (u, v) with u < v, ascending."""
        u = np.repeat(np.arange(self.vertex_count), self.degrees)
        upper = u < self.indices
        return list(zip(u[upper].tolist(), self.indices[upper].tolist()))

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2


def _bridge_pass(rows: Sequence[Sequence[int]]) -> tuple[int, list[bool]]:
    """The number of components, and True at every vertex on some cycle.

    Iterative DFS with lowlink values (Tarjan, Inf. Process. Lett. 2, 1974),
    so deep graphs need no recursion: the tree edge {p, v} is a bridge
    exactly when no back edge from v's subtree reaches p or above
    (low(v) > disc(p)). A vertex on a cycle has an incident non-bridge tree
    edge (its parent edge, or the child edge towards the back edge's far
    end), so marking the ends of every non-bridge tree edge marks exactly
    the cycle vertices.
    """
    n = len(rows)
    disc = [0] * n  # discovery time, from 1; 0 marks unvisited
    low = [0] * n
    marked = [False] * n
    clock = components = 0
    for root in range(n):
        if disc[root]:
            continue
        components += 1
        clock += 1
        disc[root] = low[root] = clock
        stack = [(root, -1, iter(rows[root]))]
        while stack:
            v, parent, edges = stack[-1]
            for w in edges:
                if disc[w]:
                    if w != parent and disc[w] < low[v]:
                        low[v] = disc[w]
                    continue
                clock += 1
                disc[w] = low[w] = clock
                stack.append((w, v, iter(rows[w])))
                break
            else:
                stack.pop()
                if parent >= 0:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] <= disc[parent]:
                        marked[v] = marked[parent] = True
    return components, marked


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
        _check_vertex(g, vertex)
        vals = np.zeros(g.vertex_count)
        vals[vertex] = 1.0
        return cls(vals)


@dataclass(frozen=True, eq=False)
class _BallWitness:
    """A result at a vertex with the function that attains it.

    The result holds that function only on these vertices of the 2-ball of
    the vertex; ``function``, at full length with ``OFF_BALL`` everywhere
    else, is built on first read.
    """

    OFF_BALL = 0.0

    vertex: int
    dimension_n: float
    vertex_count: int
    ball_vertices: np.ndarray
    ball_values: np.ndarray

    @cached_property
    def function(self) -> VertexFunction:
        values = np.full(self.vertex_count, self.OFF_BALL)
        values[self.ball_vertices] = self.ball_values
        return VertexFunction(values)


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

    Ball i has ``width[i]`` columns: 0 its centre x, 1..d_x sphere 1 by
    (degree, vertex), then sphere 2 in vertex order. Its pairs are the
    2-paths x ~ y ~ z, y in sphere-1 order and, for each y, z = x first,
    then the others in adjacency order, as the columns ``pair_y`` and
    ``pair_z`` (z may be x or, in a triangle, in sphere 1) with weight
    ``pair_w`` = 1/(2 d_x d_y). The arrays hold ball after ball: each
    ball's spheres begin at ``s1_first`` and ``s2_first``, and
    ``pair_ball`` is the ball of each pair.

    On a 2-ball that is a tree, every ball of the same signature (d_x and
    the multiset of the d_y) then holds the same sphere-1 degrees and pair
    weights in the same order, and the pairs of one y differ only in their
    distance-2 ends, which a CDE row fills alike.
    """

    def __init__(self, g: Graph, centres: Sequence[int]):
        nv = g.vertex_count
        self.centres = _check_vertices(g, centres)
        # per 1-path x ~ y and per 2-path x ~ y ~ z: the ball of x
        dx = g.degrees[self.centres]
        arc, ball1 = _ranges(g.indptr[self.centres], dx)
        y = g.indices[arc]
        key1 = ball1 * nv + y   # ascending
        # sphere 1 by degree, the ids already ascending within a ball
        by_degree = np.argsort(ball1 * nv + g.degrees[y], kind="stable")
        s1_rank = np.empty_like(by_degree)   # each y's place in sphere 1
        s1_rank[by_degree] = np.arange(len(y))
        y = y[by_degree]
        dy = g.degrees[y]
        arc, edge = _ranges(g.indptr[y], dy)
        z = g.indices[arc]
        s1_first = _firsts(dx)
        ball2 = ball1[edge]
        # the centre first among the pairs of each y
        centre_first = np.argsort(2 * edge + (z != self.centres[ball2]), kind="stable")
        z, edge = z[centre_first], edge[centre_first]

        key = ball2 * nv + z
        pos = np.minimum(np.searchsorted(key1, key), len(key1) - 1)
        in_s1 = key1[pos] == key
        pos = s1_rank[pos]
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

    @cached_property
    def parent(self) -> np.ndarray:
        """Each sphere-2 vertex's parent, as a column of its ball: the
        smallest of its pairs' y ends where it has several."""
        at = self.pair_z > self.degree[self.pair_ball]   # the pairs into sphere 2
        ball = self.pair_ball[at]
        parent = np.full(len(self.sphere2), np.iinfo(np.intp).max)
        s2 = self.s2_first[ball] + self.pair_z[at] - 1 - self.degree[ball]
        np.minimum.at(parent, s2, self.pair_y[at])
        return parent

    @cached_property
    def tree(self) -> np.ndarray:
        """Whether each ball is a tree (girth >= 5 at its centre): every
        2-path x ~ y ~ z but the d_x back to x ends at its own sphere-2 z,
        so its 2-paths number exactly its columns past the centre."""
        return np.bincount(self.pair_ball, minlength=len(self.degree)) == self.width - 1


def _firsts(lengths: np.ndarray) -> np.ndarray:
    """Where each of consecutive segments of these lengths begins."""
    return np.cumsum(lengths) - lengths


def _two_paths(g: Graph, v: np.ndarray) -> np.ndarray:
    """The 2-paths x ~ y ~ z of each vertex x of v, the pairs of its
    2-ball: the sum of its d_y."""
    arc, ball = _ranges(g.indptr[v], g.degrees[v])
    return np.bincount(ball, g.degrees[g.indices[arc]], len(v)).astype(np.intp)


def _ranges(first: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges first[i] .. first[i] + length[i] - 1, concatenated in
    order: (index, segment) per entry, segment the i of its range."""
    segment = np.repeat(np.arange(len(length)), length)
    return np.arange(len(segment)) + (first - _firsts(length))[segment], segment


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
    """The vertex rule: x is an integer, Python's or numpy's (else a
    ``TypeError``; int() would truncate 1.5), in 0..n-1 (else a
    ``ValueError``)."""
    if not 0 <= operator.index(x) < g.vertex_count:
        raise ValueError(f"vertex {x} out of range 0..{g.vertex_count - 1}")


def _check_vertices(g: Graph, vertices: Sequence[int]) -> np.ndarray:
    """The vertices as an intp array, checked at once when they are
    integers in range; otherwise one by one, so the first that
    ``_check_vertex`` refuses raises its error."""
    v = np.array(vertices)
    if v.ndim != 1 or v.dtype.kind not in "iu" or (
        v.size and not (0 <= v.min() and v.max() < g.vertex_count)
    ):
        for x in vertices:
            _check_vertex(g, x)
        return np.array(vertices, dtype=np.intp)
    return v.astype(np.intp, copy=False)


def check_function(g: Graph, f: VertexFunction | Sequence[float]) -> np.ndarray:
    """Coerce f to a float64 array and check it matches the graph."""
    vals = f.values if isinstance(f, VertexFunction) else np.asarray(f, dtype=np.float64)
    if vals.shape != (g.vertex_count,):
        raise ValueError(
            f"vertex function has shape {vals.shape}, graph has {g.vertex_count} vertices"
        )
    return vals
