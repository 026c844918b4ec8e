"""The whole-graph CD route against the dense validating route and, at girth
>= 5, against the closed form in the neighbor degrees, which it computes
there at n = 2 without an eigensolve."""

import math

import numpy as np
import pytest

import curvkit.cd as cd_mod
from conftest import tree_hub
from oracles import closed_form_cd_curvature
from curvkit import (
    NotEliminableError,
    all_vertex_girths,
    assemble_cd_forms,
    cd_bound_girth5,
    cd_curvature,
    cd_curvatures,
    cycle,
    gamma2,
    gamma_local,
    laplacian,
    path,
    petersen,
    random_with_girth,
    schur_minimize,
    schur_minimizer,
    smallest_eigenvalue,
    verify_theorems,
)
from curvkit.cd import CD_CHECK_TOL, DIM_FLOOR
from curvkit.graph import Balls

DIMS = (2.0, 3.5, math.inf)


def _graphs(corpus_small, corpus_girth5):
    # triangles and 4-cycles, girth 5, wide tree hubs, and a path end
    return corpus_small + corpus_girth5 + [tree_hub(14), tree_hub(50), path(7)]


def _dense(g, x, n):
    a, _, coordinates = assemble_cd_forms(g, x, n)
    keep = list(range(g.degree(x)))
    lam, vec = smallest_eigenvalue(schur_minimize(a, keep))
    return a, keep, coordinates, 2.0 * g.degree(x) * lam, vec


def test_curvatures_match_the_dense_route(corpus_small, corpus_girth5):
    for g in _graphs(corpus_small, corpus_girth5):
        tree = Balls(g, range(g.vertex_count)).tree
        for n in DIMS:
            results = list(cd_curvatures(g, range(g.vertex_count), n))
            assert [r.vertex for r in results] == list(range(g.vertex_count))
            for r in results:
                x, f = r.vertex, r.function
                a, keep, coordinates, k, vec = _dense(g, x, n)
                assert r.dimension_n == n
                assert abs(r.curvature_K - k) <= 1e-12
                # the witness attains equality at K ...
                lap = laplacian(g, f, x)
                slack = gamma2(g, f, x) - lap * lap / n - r.curvature_K * gamma_local(g, f, x)
                assert abs(slack) <= CD_CHECK_TOL
                # ... and, except at a tree ball at n = 2, is the dense
                # route's eigenvector, with the dense minimizer over sphere 2
                # and zero elsewhere; the two routes sum every entry in the
                # same order, so they agree bit for bit, degenerate
                # eigenspaces included (a tree ball at n = 2 takes the closed
                # form, tested below)
                values = f.values
                if n != 2.0 or not tree[x]:
                    assert np.array_equal(values[coordinates[keep]], vec)
                    if len(coordinates) > len(keep):
                        expected = schur_minimizer(a, keep, vec)
                        assert np.array_equal(values[coordinates[len(keep) :]], expected)
                outside = np.ones(g.vertex_count, dtype=bool)
                outside[[x, *coordinates]] = False
                assert not values[outside].any() and values[x] == 0.0


@pytest.mark.parametrize("n", [1.0, 1.5, 2.0, 3.5, math.inf])
def test_curvatures_match_the_girth5_closed_form(corpus_girth5, n):
    # at n = 2 the closed form is the paper's bound min_y (2 - d_y)/d_y
    for g in corpus_girth5:
        girths = all_vertex_girths(g)
        xs = [x for x in range(g.vertex_count) if girths[x] >= 5]
        for r in cd_curvatures(g, xs, n):
            assert abs(r.curvature_K - closed_form_cd_curvature(g, r.vertex, n)) <= 1e-14
            if n == 2.0:
                assert abs(r.curvature_K - cd_bound_girth5(g, r.vertex)) <= 1e-14


@pytest.mark.parametrize("n", [0.5, 1.0, 2.0, 3.5, math.inf])
def test_gated_curvature_is_the_smallest_eigenvalue_of_diag_plus_rank_one(corpus_girth5, n):
    # at girth >= 5 the 2-ball is a tree and 2 d_x S = diag(a) + c J, with
    # a_i = (2 - d_i)/d_i over the neighbour degrees and c = (1 - 2/n)/d_x
    # (README, "The bounds the verify command checks")
    for g in corpus_girth5 + [tree_hub(k) for k in (6, 10, 14, 200)]:
        girths = all_vertex_girths(g)
        xs = [x for x in range(g.vertex_count) if girths[x] >= 5]
        for r in cd_curvatures(g, xs, n):
            dy = g.degrees[list(g.adjacency[r.vertex])]
            a = (2.0 - dy) / dy
            c = (1.0 - 2.0 / n) / len(dy)
            want = np.linalg.eigvalsh(np.diag(a) + c)[0]
            assert abs(r.curvature_K - want) <= 1e-13 * max(abs(want), 1.0)
            if n == 2.0:   # c = 0: the paper's bound, attained
                assert abs(r.curvature_K - a.min()) <= 1e-14


def test_results_do_not_depend_on_the_batching(monkeypatch, corpus_small):
    graphs = corpus_small[::3] + [tree_hub(14), random_with_girth(60, 90, 5, 4)]
    alone = {}
    for g in graphs:
        for x in range(g.vertex_count):
            alone[id(g), x] = cd_curvature(g, x, 3.5)
    for size in (1, 40, 200):
        monkeypatch.setattr(cd_mod, "_CD_BATCH", size)
        for g in graphs:
            for r in cd_curvatures(g, range(g.vertex_count), 3.5):
                ref = alone[id(g), r.vertex]
                assert r.curvature_K == ref.curvature_K
                assert np.array_equal(r.function.values, ref.function.values)


def test_curvatures_check_arguments_before_the_first_result():
    g = petersen()
    # the first bad vertex is named, wherever it stands; nothing is yielded
    for vertices, bad in (
        ([10, 0, 1], 10), ([0, 10, 1, -1], 10), ([0, 1, 2, 11], 11), ([3, -1, 4], -1),
        ([np.int64(2), np.int64(12)], 12), (np.array([1, 2, 10**9]), 10**9),
        ([0, 10**30], 10**30),
    ):
        with pytest.raises(ValueError, match=rf"^vertex {bad} out of range 0\.\.9$"):
            cd_curvatures(g, vertices, 2.0)
    with pytest.raises(ValueError):
        cd_curvatures(g, [0, 10], 2.0)
    with pytest.raises(TypeError):   # not truncated to vertex 1
        cd_curvatures(g, [0, 1.5], 2.0)
    with pytest.raises(ValueError):
        cd_curvatures(g, [0], 0.0)
    # numpy integers are vertices, and each result names its vertex as given
    for vertices in ([np.int64(4), 1], np.arange(3, 6, dtype=np.uint8), np.array([9, 0])):
        results = list(cd_curvatures(g, vertices, 2.0))
        assert [r.vertex for r in results] == list(vertices)
        assert [r.curvature_K for r in results] == [cd_curvature(g, int(x)).curvature_K
                                                    for x in vertices]
    assert list(cd_curvatures(g, [], 2.0)) == []
    # any order, repeats included
    order = [3, 0, 3, 9]
    assert [r.vertex for r in cd_curvatures(g, order, 2.0)] == order


def test_curvatures_check_the_pivot_floor(monkeypatch):
    # the opposite corner of a 4-cycle has two parents, each adding
    # 1/(4 d_x d_y) = 1/16 to its pivot: 1/8 at dimension 2. A tree ball
    # takes the closed form, which divides by no pivot
    monkeypatch.setattr(cd_mod, "PIVOT_FLOOR", 0.125)
    with pytest.raises(NotEliminableError):
        cd_curvature(cycle(4), 0, 2.0)
    a, _, _ = assemble_cd_forms(cycle(4), 0, 2.0)
    with pytest.raises(NotEliminableError):
        schur_minimize(a, [0])



# ---- tree balls: the closed form at n = 2 --------------------------------------

@pytest.fixture(scope="module")
def gated(corpus_girth5):
    """(graph, its vertices of girth >= 5) for the girth-5 corpus, the tree
    hubs and a 1000-vertex girth-5 graph."""
    graphs = corpus_girth5 + [tree_hub(k) for k in (6, 10, 14, 50, 200)]
    graphs.append(random_with_girth(1000, 1500, 5, 1))
    return [(g, [x for x, girth in enumerate(all_vertex_girths(g)) if girth >= 5])
            for g in graphs]


@pytest.mark.parametrize("n", [DIM_FLOOR, 0.5, 1.0, 2.0, 3.5, math.inf])
def test_tree_balls_match_the_dense_route(gated, n):
    # at n = 2 the dense route rounds a Schur complement and an eigensolve,
    # and the closed form stays within 1e-14 of max(|K|, 1) of it; at any
    # other n a tree ball takes the scatter and eigensolve, the dense
    # route's bits, 1e300 in size at DIM_FLOOR included
    for g, xs in gated:
        for r in cd_curvatures(g, xs, n):
            k = _dense(g, r.vertex, n)[3]
            if n == 2.0:
                assert abs(r.curvature_K - k) <= 1e-14 * max(abs(k), 1.0), r.vertex
            else:
                assert r.curvature_K == k, (r.vertex, n)


def test_tree_ball_witness_attains_equality_and_is_a_unit_eigenvector(gated):
    # at n = 2, 2 d_x S = diag(a), and the witness is 1 at the first
    # neighbour of the largest degree, each sphere-2 vertex at twice its parent
    for g, xs in gated[:-1]:
        parents = Balls(g, xs).parent
        at = 0
        for r in cd_curvatures(g, xs, 2.0):
            x, f, k, d = r.vertex, r.function, r.curvature_K, g.degree(r.vertex)
            u, w = r.ball_values[:d], r.ball_values[d:]
            dy = np.sort(g.degrees[list(g.adjacency[x])], kind="stable")
            assert u @ u == 1.0 and np.array_equal((2.0 - dy) / dy * u, k * u)
            assert np.array_equal(w, 2.0 * u[parents[at : at + len(w)] - 1])
            at += len(w)
            lap = laplacian(g, f, x)
            slack = gamma2(g, f, x) - lap * lap / 2.0 - k * gamma_local(g, f, x)
            assert abs(slack) <= CD_CHECK_TOL, x


@pytest.mark.parametrize("n", [3.0, math.inf])
def test_a_repeated_largest_degree_keeps_the_curvature_at_n_2(gated, n):
    # for n > 2, e_i - e_j of two largest-degree neighbours is an
    # eigenvector of diag(a) + cJ at min a_i, which is then its smallest
    # eigenvalue: K(x, n) = K(x, 2), to the eigensolve's rounding
    count = 0
    for g, xs in gated:
        top = [x for x in xs
               if np.sum(g.degrees[list(g.adjacency[x])] == max(g.degree(y) for y in g.adjacency[x])) > 1]
        at_n = np.array([r.curvature_K for r in cd_curvatures(g, top, n)])
        at_2 = np.array([r.curvature_K for r in cd_curvatures(g, top, 2.0)])
        assert np.abs(at_n - at_2).max(initial=0.0) <= 1e-14
        count += len(top)
    assert count > 200


def test_verify_runs_no_eigensolve_at_gated_vertices(monkeypatch, corpus_small, gated):
    calls = []
    eigenpairs = cd_mod._smallest_eigenpairs
    monkeypatch.setattr(cd_mod, "_smallest_eigenpairs",
                        lambda mats: calls.append(len(mats)) or eigenpairs(mats))
    records = []
    for g in corpus_small + [g for g, _ in gated]:
        records += verify_theorems(g, "cd").records
    assert calls == []
    # the bound is attained: computed and bound are the same bits
    checked = [r for r in records if r.verdict != "precondition_not_met"]
    assert len(checked) > 2000
    for r in checked:
        assert r.cd_computed == r.cd_bound and str(r.cd_margin) == "0.0", r.vertex
    # the counter sees the eigensolve of a ball that is not a tree
    list(cd_curvatures(cycle(4), [0, 1], 2.0))
    assert calls == [2]
