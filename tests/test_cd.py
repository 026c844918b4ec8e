import math

import numpy as np
import pytest

from conftest import random_functions
from curvkit import (
    VertexFunction,
    all_vertex_girths,
    approx_equal,
    cd_check,
    cd_curvature,
    cycle,
    gamma2,
    gamma_local,
    laplacian,
    path,
    petersen,
    random_tree,
    random_with_girth,
    star,
    vertex_girth,
)
from curvkit.cd import (
    DIM_FLOOR,
    assemble_cd_forms,
    schur_minimize,
    schur_minimizer,
    smallest_eigenvalue,
)
from oracles import cholesky_schur, rayleigh_cd_minimum, walked_two_ball


def _embed(g, coordinates, coords):
    values = np.zeros(g.vertex_count)
    values[coordinates] = coords
    return values


def test_assemble_star_center():
    g = star(3)
    a, b_mat, coordinates = assemble_cd_forms(g, 0, 2.0)
    assert coordinates.tolist() == [1, 2, 3]   # sphere 1; sphere 2 is empty
    assert np.allclose(a, np.eye(3) / 6.0, atol=1e-15)
    assert np.allclose(b_mat, np.eye(3) / 6.0, atol=1e-15)


def test_assembled_forms_match_operators(corpus_small):
    rng = np.random.default_rng(17)
    for g in corpus_small[:12]:
        for x in range(0, g.vertex_count, 3):
            for n in (1.0, 2.0, 3.5, math.inf):
                a, b_mat, coordinates = assemble_cd_forms(g, x, n)
                for _ in range(3):
                    coords = rng.normal(size=len(coordinates))
                    f = _embed(g, coordinates, coords)
                    quad_a = coords @ a @ coords
                    lap = laplacian(g, f, x)
                    expected = gamma2(g, f, x) - (0.0 if math.isinf(n) else lap * lap / n)
                    assert approx_equal(quad_a, expected, rel=1e-10)
                    quad_b = coords @ b_mat @ coords
                    assert approx_equal(quad_b, gamma_local(g, f, x), rel=1e-12)


def test_sphere2_block_diagonal_positive(corpus_small):
    for g in corpus_small:
        for x in range(g.vertex_count):
            a, _, _ = assemble_cd_forms(g, x, 2.0)
            p = g.degree(x)
            block = a[p:, p:]
            off = block - np.diag(np.diag(block))
            assert np.max(np.abs(off), initial=0.0) == 0.0
            assert np.all(np.diag(block) > 0.0)


def test_schur_route_matches_cholesky_reference(corpus_small):
    # the division route against the general Cholesky Schur complement,
    # on every vertex; the witness's sphere-2 part is compared with the
    # reference argmin for its own sphere-1 values (not with an
    # eigenvector: degenerate eigenspaces make the basis arbitrary)
    for g in corpus_small:
        for x in range(g.vertex_count):
            for n in (1.0, 2.0, math.inf):
                a, _, coordinates = assemble_cd_forms(g, x, n)
                keep = list(range(g.degree(x)))
                ref_s, ref_w = cholesky_schur(a, keep)
                s = schur_minimize(a, keep)
                # relative to the scale of the form: S may vanish exactly
                assert np.max(np.abs(s - ref_s)) <= 1e-12 * np.max(np.abs(a))
                values = cd_curvature(g, x, n).function.values
                tail = values[coordinates[len(keep) :]]
                expected = ref_w @ values[coordinates[keep]]
                assert np.max(np.abs(tail - expected), initial=0.0) <= 1e-12 * np.max(
                    np.abs(expected), initial=0.0
                )


def test_curvature_matches_the_validating_public_route(corpus_small):
    # cd_curvature splits the form once; schur_minimize / schur_minimizer
    # each split and validate it again, and must give the same bits where
    # the 2-ball is not a tree (a tree ball takes the closed form, which
    # agrees to rounding)
    for g in corpus_small:
        girths = all_vertex_girths(g)
        for x in range(g.vertex_count):
            a, _, coordinates = assemble_cd_forms(g, x, 2.0)
            keep = list(range(g.degree(x)))
            lam, vec = smallest_eigenvalue(schur_minimize(a, keep))
            result = cd_curvature(g, x, 2.0)
            if girths[x] >= 5:
                assert abs(result.curvature_K - 2.0 * g.degree(x) * lam) <= 1e-14
                continue
            assert result.curvature_K == 2.0 * g.degree(x) * lam
            values = result.function.values
            assert np.array_equal(values[coordinates[keep]], vec)
            if len(coordinates) > len(keep):
                expected = schur_minimizer(a, keep, vec)
                assert np.array_equal(values[coordinates[len(keep) :]], expected)


def test_b_form_structure():
    g = petersen()
    _, b_mat, _ = assemble_cd_forms(g, 0, 2.0)
    p = g.degree(0)
    expected = np.zeros_like(b_mat)
    expected[:p, :p] = np.eye(p) / (2.0 * g.degree(0))
    assert np.array_equal(b_mat, expected)


def test_cd_star_center_is_one():
    result = cd_curvature(star(3), 0, 2.0)
    assert result.curvature_K == pytest.approx(1.0, abs=1e-8)


def test_cd_cycle6_is_zero():
    g = cycle(6)
    for x in range(6):
        assert cd_curvature(g, x, 2.0).curvature_K == pytest.approx(0.0, abs=1e-8)


def test_cd_petersen_matches_degree_bound():
    g = petersen()
    for x in range(10):
        k = cd_curvature(g, x, 2.0).curvature_K
        assert k >= -1.0 / 3.0 - 1e-8
        assert k == pytest.approx(-1.0 / 3.0, abs=1e-9)  # the bound is attained


def test_witness_attains_equality_and_breaks_above(corpus_small):
    for g in corpus_small[:10]:
        for x in range(0, g.vertex_count, 2):
            res = cd_curvature(g, x, 2.0)
            f = res.function
            lhs = gamma2(g, f, x)
            lap = laplacian(g, f, x)
            rhs = lap * lap / 2.0 + res.curvature_K * gamma_local(g, f, x)
            assert abs(lhs - rhs) <= 1e-8
            assert cd_check(g, x, 2.0, res.curvature_K - 1e-9, f)
            assert not cd_check(g, x, 2.0, res.curvature_K + 1e-6, f)


def test_witness_vanishes_at_center_and_outside_ball():
    g = path(7)
    res = cd_curvature(g, 0, 2.0)
    s1, s2, _ = walked_two_ball(g, 0)
    inside = {0} | set(s1) | set(s2)
    assert res.function[0] == 0.0
    for v in range(g.vertex_count):
        if v not in inside:
            assert res.function[v] == 0.0


def test_cd_check_examples():
    g = star(3)
    constant = VertexFunction.constant(g, 5.0)
    for k in (-100.0, 0.0, 100.0):
        assert cd_check(g, 0, 2.0, k, constant)
    indicator = VertexFunction.indicator(g, 1)
    assert cd_check(g, 0, 2.0, 1.0, indicator)  # equality case
    assert not cd_check(g, 0, 2.0, 1.01, indicator)


def test_cd_check_scale_invariance(corpus_small):
    for g in corpus_small[:8]:
        f = random_functions(g, 1, seed=61)[0]
        for x in range(0, g.vertex_count, 3):
            k0 = cd_curvature(g, x, 2.0).curvature_K
            for k in (k0 - 0.5, k0, k0 + 0.5):
                for c in (2.0, -3.0, 0.25):
                    assert cd_check(g, x, 2.0, k, f) == cd_check(g, x, 2.0, k, c * f)


def test_monotone_in_dimension(corpus_small):
    dims = (1.0, 2.0, 5.0, math.inf)
    for g in corpus_small[:10]:
        for x in range(0, g.vertex_count, 2):
            values = [cd_curvature(g, x, n).curvature_K for n in dims]
            for small, large in zip(values, values[1:]):
                assert small <= large + 1e-9


def test_dimension_validation():
    g = star(3)
    with pytest.raises(ValueError):
        cd_curvature(g, 0, 0.0)
    with pytest.raises(ValueError):
        cd_curvature(g, 0, -2.0)
    # below the floor the 1/n terms overflow; at it K is finite
    with pytest.raises(ValueError, match="at least 1e-300"):
        cd_curvature(g, 0, DIM_FLOOR / 2)
    assert math.isfinite(cd_curvature(g, 0, DIM_FLOOR).curvature_K)
    # infinity is a valid dimension: drops the (Df)^2 term
    k_inf = cd_curvature(g, 0, math.inf).curvature_K
    assert k_inf >= cd_curvature(g, 0, 2.0).curvature_K - 1e-9


def test_locality_of_curvature():
    # the graph beyond the 2-ball cannot matter: path(4) and path(7) share
    # the 2-ball of vertex 0 and its sphere-1 degrees, but vertex 3 has
    # degree 1 in one and 2 in the other
    a_long, _, _ = assemble_cd_forms(path(7), 0, 2.0)
    a_short, _, _ = assemble_cd_forms(path(4), 0, 2.0)
    assert a_long.shape == (2, 2)  # sphere1 = {1}, sphere2 = {2}
    assert np.array_equal(a_long, a_short)
    assert cd_curvature(path(7), 0, 2.0).curvature_K == cd_curvature(path(4), 0, 2.0).curvature_K


def test_eigen_route_matches_function_space_oracle():
    graphs = [
        star(3),
        cycle(6),
        petersen(),
        random_tree(9, 2),
        random_with_girth(12, 15, 5, 1),
    ]
    for g in graphs:
        for x in range(0, g.vertex_count, 2):
            k = cd_curvature(g, x, 2.0).curvature_K
            oracle = rayleigh_cd_minimum(g, x, 2.0, restarts=4000, seed=5)
            assert abs(k - oracle) <= 1e-6


def test_eigen_route_matches_oracle_other_dimensions():
    graphs = [star(3), cycle(6), petersen(), random_with_girth(12, 15, 3, 8)]
    for n in (1.0, 5.0, math.inf):
        for g in graphs:
            for x in (0, g.vertex_count - 1):
                k = cd_curvature(g, x, n).curvature_K
                oracle = rayleigh_cd_minimum(g, x, n, restarts=4000, seed=13)
                assert abs(k - oracle) <= 1e-6


def test_curvature_is_a_universal_lower_bound(corpus_small):
    # K - 1e-9 must satisfy the inequality for arbitrary functions, not
    # just the witness: the eigen route claims a universal bound
    rng = np.random.default_rng(73)
    for g in corpus_small[:10]:
        for x in range(0, g.vertex_count, 3):
            k = cd_curvature(g, x, 2.0).curvature_K
            for _ in range(20):
                f = rng.normal(size=g.vertex_count)
                assert cd_check(g, x, 2.0, k - 1e-9, f)


def test_girth5_vertices_attain_degree_bound(corpus_girth5):
    # at dimension 2 the form decouples per neighbor, so the curvature
    # equals min_i (2-k_i)/k_i exactly wherever the girth gate holds
    for g in corpus_girth5[:8]:
        for x in range(g.vertex_count):
            if vertex_girth(g, x) < 5:
                continue
            bound = min((2.0 - g.degree(y)) / g.degree(y) for y in g.adjacency[x])
            assert cd_curvature(g, x, 2.0).curvature_K == pytest.approx(bound, abs=1e-9)
