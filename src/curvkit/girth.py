"""Per-vertex and whole-graph girth.

The girth at x is the length of the shortest cycle through x (math.inf if
x lies on no cycle); the graph girth is the minimum over vertices.

All-vertex girth takes one O(n + m) bridge pass and then one search per
cycle vertex. A vertex lies on a cycle exactly when one of its edges is
not a bridge, so every other vertex has girth inf without a search. Each
search stops at the BFS level that first closes a cycle through x, so it
explores only the ball of radius about half the girth at x.
"""

from __future__ import annotations

from math import inf

from .graph import Graph, _check_vertex

# A girth is an int >= 3 or math.inf.
GirthValue = int | float


def vertex_girth(g: Graph, x: int) -> GirthValue:
    """Shortest cycle length through x, or math.inf.

    Level-synchronous BFS from x labelling every vertex with its distance
    and its root branch (the first-hop neighbor its BFS tree path uses).
    Tree paths from x to two vertices in different branches are internally
    disjoint, so every edge {u, w} (u, w != x) joining different branches
    closes a simple cycle through x of length dist(u) + dist(w) + 1, and
    the shortest cycle through x always contains such an edge at its far
    end. The minimum over these candidates is therefore exact.

    Scanning the edges of level L (the vertices at distance L) finds the
    candidates of every edge with an endpoint at distance <= L: an edge
    whose far end is still unlabelled gives that end the same branch, and
    labels never change. A candidate found while scanning level L has
    length 2L + 1 or 2L + 2, and every edge not yet seen has both ends at
    distance >= L + 1, so its candidate is >= 2L + 3. The search therefore
    stops after the first level that finds a candidate, but not at the
    first candidate: a 2L + 2 candidate can precede a 2L + 1 one within
    the level. Storage is two dicts over the explored ball, not O(n).
    """
    _check_vertex(g, x)
    adjacency = g.adjacency
    dist = {y: 1 for y in adjacency[x]}
    branch = {y: y for y in adjacency[x]}
    frontier = list(adjacency[x])
    best: GirthValue = inf
    level = 1
    while frontier and best == inf:
        deeper = []
        for u in frontier:
            own = branch[u]
            for w in adjacency[u]:
                if w == x:
                    continue
                other = branch.get(w)
                if other is None:
                    dist[w] = level + 1
                    branch[w] = own
                    deeper.append(w)
                elif other != own:
                    length = level + dist[w] + 1
                    if length < best:
                        best = length
        frontier = deeper
        level += 1
    return best


def on_cycle(g: Graph) -> list[bool]:
    """True at every vertex that lies on some cycle, by one bridge pass.

    Iterative DFS with lowlink values (Tarjan 1974), so deep graphs need no
    recursion: the tree edge {p, v} is a bridge exactly when no back edge
    from v's subtree reaches p or above (low(v) > disc(p)). A vertex on a
    cycle has an incident non-bridge tree edge (its parent edge, or the
    child edge towards the back edge's far end), so marking the two ends of
    every non-bridge tree edge marks exactly the cycle vertices.
    """
    n = g.vertex_count
    adjacency = g.adjacency
    disc = [0] * n  # discovery time, from 1; 0 marks unvisited
    low = [0] * n
    marked = [False] * n
    clock = 0
    for root in range(n):
        if disc[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        stack = [(root, -1, iter(adjacency[root]))]
        while stack:
            v, parent, edges = stack[-1]
            for w in edges:
                if disc[w]:
                    if w != parent and disc[w] < low[v]:
                        low[v] = disc[w]
                    continue
                clock += 1
                disc[w] = low[w] = clock
                stack.append((w, v, iter(adjacency[w])))
                break
            else:
                stack.pop()
                if parent >= 0:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] <= disc[parent]:
                        marked[v] = marked[parent] = True
    return marked


def all_vertex_girths(g: Graph) -> list[GirthValue]:
    """Girth at every vertex: a search only where the vertex is on a cycle."""
    cyclic = on_cycle(g)
    return [vertex_girth(g, x) if cyclic[x] else inf for x in range(g.vertex_count)]


def graph_girth(g: Graph) -> GirthValue:
    """Minimum vertex girth over all vertices."""
    return min(all_vertex_girths(g))


def has_girth_at_least(g: Graph, lower: int) -> bool:
    """True when no cycle is shorter than `lower` (infinite girth passes)."""
    if lower < 3:
        raise ValueError("girth lower bounds below 3 are vacuous")
    return graph_girth(g) >= lower
