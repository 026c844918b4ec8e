"""The whole-graph CD route against the dense validating route and, at girth
>= 5, against the closed form in the neighbor degrees."""

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
    gamma2,
    gamma_local,
    laplacian,
    path,
    petersen,
    random_with_girth,
    schur_minimize,
    schur_minimizer,
    smallest_eigenvalue,
)
from curvkit.cd import CD_CHECK_TOL

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
        for n in DIMS:
            results = list(cd_curvatures(g, range(g.vertex_count), n))
            assert [r.vertex for r in results] == list(range(g.vertex_count))
            for r in results:
                x, f = r.vertex, r.minimizing_function
                a, keep, coordinates, k, vec = _dense(g, x, n)
                assert r.dimension_n == n
                assert abs(r.curvature_K - k) <= 1e-12
                # the witness attains equality at K ...
                lap = laplacian(g, f, x)
                slack = gamma2(g, f, x) - lap * lap / n - r.curvature_K * gamma_local(g, f, x)
                assert abs(slack) <= CD_CHECK_TOL
                # ... and is the dense route's eigenvector, with the dense
                # minimizer over sphere 2 and zero elsewhere; the two routes
                # sum every entry in the same order, so they agree bit for
                # bit, degenerate eigenspaces included
                values = f.values
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
                assert np.array_equal(r.minimizing_function.values, ref.minimizing_function.values)


def test_curvatures_check_arguments_before_the_first_result():
    g = petersen()
    with pytest.raises(ValueError):
        cd_curvatures(g, [0, 10], 2.0)
    with pytest.raises(ValueError):
        cd_curvatures(g, [0], 0.0)
    assert list(cd_curvatures(g, [], 2.0)) == []
    # any order, repeats included
    order = [3, 0, 3, 9]
    assert [r.vertex for r in cd_curvatures(g, order, 2.0)] == order


def test_curvatures_check_the_pivot_floor(monkeypatch):
    # a path end's only sphere-2 pivot is 1/8 at dimension 2
    monkeypatch.setattr(cd_mod, "PIVOT_FLOOR", 0.125)
    with pytest.raises(NotEliminableError):
        cd_curvature(path(4), 0, 2.0)
    a, _, _ = assemble_cd_forms(path(4), 0, 2.0)
    with pytest.raises(NotEliminableError):
        schur_minimize(a, [0])

