"""Per-vertex and whole-graph girth.

The girth at x is the length of the shortest cycle through x (math.inf if
x lies on no cycle); the graph girth is the minimum over vertices.

The graph's own validation marks the vertices on a cycle
(``Graph.on_cycle``, by one bridge pass), so every other vertex has girth
inf without a search, in ``vertex_girth`` as in ``all_vertex_girths``.
All-vertex girth is then one batched search from the cycle vertices: a
BFS from many sources at once, level by level in numpy over the graph's
CSR arrays; each source stops at the level that first closes a cycle
through it, so it explores only the ball of radius about half its girth.
"""

from __future__ import annotations

from math import inf

import numpy as np

from .graph import Graph, _check_vertex, _ranges

# A girth is an int >= 3 or math.inf.
GirthValue = int | float

# cells of the search's (source, vertex) label buffer, and the edges it
# expands at once: its memory bound whatever the degree
_CELLS = 1 << 18


def vertex_girth(g: Graph, x: int) -> GirthValue:
    """Shortest cycle length through x, or math.inf: the search of
    `all_vertex_girths` from x alone, run only if x lies on a cycle."""
    _check_vertex(g, x)
    return _search(g, [x])[0] if g.on_cycle[x] else inf


def _search(g: Graph, sources: list[int]) -> list[GirthValue]:
    """Shortest cycle length through each source, or math.inf.

    Level-synchronous BFS from each source x labelling every vertex with
    its distance and its root branch (the first-hop neighbor its BFS tree
    path uses). Tree paths from x to two vertices in different branches
    are internally disjoint, so every edge {u, w} (u, w != x) joining
    different branches closes a simple cycle through x of length
    dist(u) + dist(w) + 1, and the shortest cycle through x always
    contains such an edge at its far end. The minimum over these
    candidates is therefore exact.

    Scanning the edges of level L (the vertices at distance L) finds the
    candidates of every edge with an endpoint at distance <= L: an edge
    whose far end is still unlabelled gives that end the same branch, and
    labels never change. A candidate found while scanning level L has
    length 2L + 1 or 2L + 2, and every edge not yet seen has both ends at
    distance >= L + 1, so its candidate is >= 2L + 3. The search therefore
    stops after the first level that finds a candidate, but not at the
    first candidate: a 2L + 2 candidate can precede a 2L + 1 one within
    the level.

    The sources run in batches of _CELLS // n, a level at a time, in
    chunks of about _CELLS edges, over the graph's CSR arrays. Cell
    (source, v) of one int32 label buffer holds dist(v) << shift | branch,
    the branch numbered by its place in the source's row; 0 is unvisited,
    -1 the source. Of several edges reaching an unlabelled vertex in one
    chunk, one labels it: a BFS tree all the same. A batch resets only the
    cells it labelled, so it costs in proportion to the cells it touches.
    """
    n, degree, indptr, indices = g.vertex_count, g.degrees, g.indptr, g.indices
    shift = int(degree.max() - 1).bit_length()
    branch = (1 << shift) - 1
    rows = max(1, min(len(sources), _CELLS // n))
    label = np.zeros(rows * n, np.int32 if (n + 1) << shift < 2**31 else np.int64)
    girths: list[GirthValue] = []
    for first in range(0, len(sources), rows):
        batch = np.asarray(sources[first:first + rows], np.intp)
        best = np.full(batch.size, inf)
        frontier = np.arange(batch.size) * n + batch
        label[frontier] = -1
        labelled = [frontier]
        level = 0
        while frontier.size:
            reached = []
            vertex = frontier % n
            for part in _chunks(degree[vertex]):
                cells, u = frontier[part], vertex[part]
                arc, head = _ranges(indptr[u], degree[u])  # head: the arc's cell in `cells`
                tail = (cells - u)[head] + indices[arc]
                own = label[cells][head] if level else arc - indptr[u][head]
                fresh = np.flatnonzero(label[tail] == 0)
                cell, value = tail[fresh], own[fresh] + (1 << shift)
                tag = -2 - np.arange(cell.size)  # one winner per cell, without np.unique
                label[cell] = tag
                won = np.flatnonzero(label[cell] == tag)
                cell = cell[won]
                label[cell] = value[won]
                reached.append(cell)
                seen = label[tail]
                hit = np.flatnonzero((seen ^ own) & branch)
                hit = hit[seen[hit] > 0]  # not the source
                np.minimum.at(best, tail[hit] // n, level + 1 + (seen[hit] >> shift))
            reached = np.concatenate(reached)
            labelled.append(reached)
            frontier = reached[best[reached // n] == inf]
            level += 1
        label[np.concatenate(labelled)] = 0
        girths += [int(b) if b < inf else inf for b in best]
    return girths


def _chunks(weights: np.ndarray):
    """Consecutive slices of weights, each of sum <= _CELLS or one entry."""
    ends, start = np.cumsum(weights), 0
    while start < ends.size:
        end = np.searchsorted(ends, ends[start] - weights[start] + _CELLS, "right")
        stop = max(start + 1, int(end))
        yield slice(start, stop)
        start = stop


def all_vertex_girths(g: Graph) -> list[GirthValue]:
    """Girth at every vertex: one search from the vertices on a cycle."""
    cyclic = g.on_cycle.tolist()
    found = iter(_search(g, [x for x, on in enumerate(cyclic) if on]))
    return [next(found) if on else inf for on in cyclic]


def graph_girth(g: Graph) -> GirthValue:
    """Minimum vertex girth over all vertices."""
    return min(all_vertex_girths(g))

