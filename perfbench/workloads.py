"""Inputs of the verify benchmark, one function per workload.

A workload is a list of cases; each case is a graph plus the
``curvkit verify`` options it runs with. Every input depends only on the
workload seed, which also becomes the ``--seed`` passed to ``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass

from curvkit import Graph, petersen, random_tree, random_with_girth

# Sets the mix of CDE phases (sampling, structured scan, descent); keep it
# at the CLI default so `corpus` times the default user run.
SAMPLES = 10000
# One full pass over the 31-graph corpus takes ~25 s on 2 cores; every 4th
# graph (Petersen, 5 girth-5 graphs, 2 trees) keeps a pass near 7 s so a run
# holds several passes.
CORPUS_STRIDE = 4
LADDER_SIZES = (1000, 3000)
HUB_CD_DEGREE = 200
HUB_BOTH_DEGREES = (6, 10, 14)
HUB_LEAVES = 3


@dataclass(frozen=True)
class Case:
    label: str
    graph: Graph
    options: tuple[str, ...]   # verify options after the file name


def girth5_corpus() -> list[Graph]:
    """The frozen acceptance corpus of the test suite, rebuilt here.

    Petersen + 20 seeded girth-5 graphs (<= 40 vertices) + 10 trees; the
    benchmark's tests check it against ``tests/conftest.py``.
    """
    graphs = [petersen()]
    for seed in range(20):
        n = 15 + (seed * 7) % 26
        graphs.append(random_with_girth(n, n + 6, 5, seed))
    for seed in range(10):
        graphs.append(random_tree(8 + seed, seed))
    return graphs


def hub(k: int) -> Graph:
    """Tree hub: centre 0 of degree k, each neighbour with 3 private leaves.

    4k + 1 vertices, infinite girth. Vertices 1..k are the neighbours.
    """
    edges = [(0, y) for y in range(1, k + 1)]
    leaf = k + 1
    for y in range(1, k + 1):
        for _ in range(HUB_LEAVES):
            edges.append((y, leaf))
            leaf += 1
    return Graph.from_edges(edges)


def _both(seed: int) -> tuple[str, ...]:
    return ("--theorem", "both", "--samples", str(SAMPLES), "--seed", str(seed))


def _cd(seed: int) -> tuple[str, ...]:
    return ("--theorem", "cd", "--seed", str(seed))


def corpus(seed: int) -> list[Case]:
    return [
        Case(f"corpus-{i}", g, _both(seed))
        for i, g in enumerate(girth5_corpus())
        if i % CORPUS_STRIDE == 0
    ]


def ladder(seed: int) -> list[Case]:
    return [
        Case(f"ladder-{n}", random_with_girth(n, 3 * n // 2, 5, seed), _cd(seed))
        for n in LADDER_SIZES
    ]


def hubs(seed: int) -> list[Case]:
    cases = [Case(f"hub-{HUB_CD_DEGREE}", hub(HUB_CD_DEGREE), _cd(seed))]
    cases += [Case(f"hub-{k}", hub(k), _both(seed)) for k in HUB_BOTH_DEGREES]
    return cases


WORKLOADS = {"corpus": corpus, "ladder": ladder, "hubs": hubs}
