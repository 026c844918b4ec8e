import numpy as np
import pytest

from conftest import positive_functions, random_functions
from oracles import direct_gamma, direct_gamma2, gamma_f_ratio_split
from curvkit import (
    Graph,
    IterationTooDeepError,
    NonpositiveValueError,
    VertexFunction,
    approx_equal,
    cycle,
    gamma,
    gamma2,
    gamma2_local,
    gamma_f_ratio,
    gamma_iterate,
    gamma_local,
    laplacian,
    path,
    petersen,
    random_with_girth,
    star,
)
from curvkit.operators import MAX_GAMMA_ITERATE


def test_laplacian_constant_vanishes(corpus_small):
    for g in corpus_small[:6]:
        f = VertexFunction.constant(g, 3.7)
        assert all(laplacian(g, f, x) == 0.0 for x in range(g.vertex_count))


def test_laplacian_star_center():
    g = star(3)
    f = VertexFunction.indicator(g, 1)
    assert laplacian(g, f, 0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_laplacian_distance_function_on_cycle():
    g = cycle(6)
    f = VertexFunction(np.array([0.0, 1.0, 2.0, 3.0, 2.0, 1.0]))  # dist from 0
    assert laplacian(g, f, 0) == pytest.approx(1.0, abs=1e-15)


def test_gamma_star_center():
    g = star(3)
    f = VertexFunction.indicator(g, 1)
    assert gamma(g, f, f, 0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert gamma_local(g, f, 0) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_gamma_constant_vanishes():
    g = petersen()
    c = VertexFunction.constant(g, 2.0)
    h = VertexFunction(np.arange(10.0))
    for x in range(10):
        assert gamma(g, c, h, x) == pytest.approx(0.0, abs=1e-15)
        assert gamma_local(g, c, x) == 0.0


def test_gamma_quadratic_scaling_and_bilinearity(corpus_small):
    for g in corpus_small[:8]:
        for f in random_functions(g, 3, seed=11):
            h, k = random_functions(g, 2, seed=12)
            for x in range(g.vertex_count):
                assert approx_equal(gamma(g, 2 * f, 2 * f, x), 4 * gamma(g, f, f, x))
                assert approx_equal(gamma(g, f, h, x), gamma(g, h, f, x), rel=1e-12)
                assert approx_equal(
                    gamma(g, f, h + 2.5 * k, x),
                    gamma(g, f, h, x) + 2.5 * gamma(g, f, k, x),
                    rel=1e-10,
                )


def test_gamma_equals_gamma_local(corpus_small):
    for g in corpus_small:
        for f in random_functions(g, 2, seed=21):
            for x in range(g.vertex_count):
                assert approx_equal(gamma(g, f, f, x), gamma_local(g, f, x), rel=1e-12)


def test_gamma2_equals_gamma2_local(corpus_small):
    for g in corpus_small:
        for f in random_functions(g, 2, seed=22):
            for x in range(g.vertex_count):
                assert approx_equal(gamma2(g, f, x), gamma2_local(g, f, x), rel=1e-12)


def test_gamma2_star_center_hand_value():
    # f = 0 at the center, arbitrary leaf values v_i:
    # G_2(f)(center) = (Df)^2/2 + sum(v_i^2)/6
    g = star(3)
    v = np.array([0.7, -1.3, 2.1])
    f = VertexFunction(np.concatenate([[0.0], v]))
    lap = v.sum() / 3.0
    expected = 0.5 * lap * lap + (v * v).sum() / 6.0
    assert gamma2(g, f, 0) == pytest.approx(expected, abs=1e-14)
    assert gamma2_local(g, f, 0) == pytest.approx(expected, abs=1e-14)


def test_gamma2_linear_function_on_path_interior():
    g = path(7)
    f = VertexFunction(np.arange(7.0))
    for x in (2, 3, 4):
        assert approx_equal(gamma2(g, f, x), gamma2_local(g, f, x), rel=1e-12)


def test_gamma2_specific_cycle_function():
    g = cycle(6)
    f = VertexFunction(np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
    assert approx_equal(gamma2(g, f, 0), gamma2_local(g, f, 0), rel=1e-12)


def test_gamma2_constant_vanishes():
    g = cycle(5)
    c = VertexFunction.constant(g, -4.0)
    for x in range(5):
        assert gamma2(g, c, x) == pytest.approx(0.0, abs=1e-15)
        assert gamma2_local(g, c, x) == pytest.approx(0.0, abs=1e-15)


def test_gamma_iterate_base_case():
    g = cycle(5)
    f = VertexFunction(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    h = VertexFunction(np.array([2.0, -1.0, 0.5, 3.0, 1.0]))
    for x in range(5):
        assert gamma_iterate(g, f, h, x, 0) == f[x] * h[x]


def test_gamma_iterate_matches_gamma_and_gamma2(corpus_small):
    # gamma and gamma2 are the i = 1, 2 cases of gamma_iterate; the direct
    # formulas of the oracles are the independent definitional reference
    for g in corpus_small:
        f, h = random_functions(g, 2, seed=31)
        for x in range(g.vertex_count):
            first = gamma_iterate(g, f, h, x, 1)
            second = gamma_iterate(g, f, f, x, 2)
            assert approx_equal(first, gamma(g, f, h, x), rel=1e-12)
            assert approx_equal(first, direct_gamma(g, f, h, x), rel=1e-12)
            assert approx_equal(second, gamma2(g, f, x), rel=1e-12)
            assert approx_equal(second, direct_gamma2(g, f, x), rel=1e-12)


class _RecordingRows(tuple):
    """Adjacency tuple that records the rows read and any full iteration."""

    def __new__(cls, rows):
        out = super().__new__(cls, rows)
        out.read = set()
        out.iterated = False
        return out

    def __getitem__(self, v):
        self.read.add(v)
        return super().__getitem__(v)

    def __iter__(self):
        self.iterated = True
        return super().__iter__()


def test_gamma_iterate_reads_only_the_ball_it_needs():
    g = random_with_girth(400, 600, 5, 1)
    rng = np.random.default_rng(61)
    f, h = rng.normal(size=400), rng.normal(size=400)
    for x in (7, 200):
        dist = {x: 0}
        queue = [x]
        for v in queue:
            for z in g.adjacency[v]:
                if z not in dist:
                    dist[z] = dist[v] + 1
                    queue.append(z)
        for i in range(MAX_GAMMA_ITERATE + 1):
            rows = _RecordingRows(g.adjacency)
            watched = Graph(vertex_count=g.vertex_count, adjacency=rows)
            assert gamma_iterate(watched, f, h, x, i) == gamma_iterate(g, f, h, x, i)
            assert not rows.iterated
            assert rows.read <= {v for v, d in dist.items() if d <= i - 1}


def test_gamma_iterate_depth_guard():
    g = cycle(5)
    f = VertexFunction.constant(g, 1.0)
    gamma_iterate(g, f, f, 0, 4)  # at the limit: fine
    with pytest.raises(IterationTooDeepError):
        gamma_iterate(g, f, f, 0, 5)
    with pytest.raises(ValueError):
        gamma_iterate(g, f, f, 0, -1)


def test_gamma_f_ratio_constant_positive():
    g = petersen()
    f = VertexFunction.constant(g, 3.0)
    for x in range(10):
        assert gamma_f_ratio(g, f, x) == pytest.approx(0.0, abs=1e-15)
        assert gamma_f_ratio_split(g, f, x) == pytest.approx(0.0, abs=1e-15)


def test_gamma_f_ratio_quadratic_scaling():
    g = petersen()
    for f in positive_functions(g, 3, seed=41):
        for x in range(10):
            base = gamma_f_ratio(g, f, x)
            assert approx_equal(gamma_f_ratio(g, 3.0 * f, x), 9.0 * base, rel=1e-10)


def test_gamma_f_ratio_two_paths_agree(corpus_small):
    for g in corpus_small:
        for f in positive_functions(g, 2, seed=42):
            for x in range(g.vertex_count):
                assert approx_equal(
                    gamma_f_ratio(g, f, x), gamma_f_ratio_split(g, f, x), rel=1e-10
                )


def test_gamma_f_ratio_rejects_nonpositive():
    g = petersen()
    f = np.ones(10)
    f[5] = 0.0  # distance <= 2 from vertex 0
    with pytest.raises(NonpositiveValueError) as err:
        gamma_f_ratio(g, f, 0)
    assert err.value.vertex == 5
    with pytest.raises(NonpositiveValueError):
        gamma_f_ratio_split(g, f, 0)


def test_add_constant_invariance(corpus_small):
    for g in corpus_small[:8]:
        for f in random_functions(g, 2, seed=51):
            shifted = f + 17.25
            for x in range(g.vertex_count):
                assert approx_equal(
                    laplacian(g, f, x), laplacian(g, shifted, x), rel=1e-12
                )
                assert approx_equal(
                    gamma(g, f, f, x), gamma(g, shifted, shifted, x), rel=1e-12
                )
                assert approx_equal(
                    gamma2(g, f, x), gamma2(g, shifted, x), rel=1e-12
                )


def test_quadratic_scaling(corpus_small):
    c = -2.5
    for g in corpus_small[:8]:
        for f in random_functions(g, 2, seed=52):
            for x in range(g.vertex_count):
                assert approx_equal(gamma(g, c * f, c * f, x), c * c * gamma(g, f, f, x))
                assert approx_equal(gamma2(g, c * f, x), c * c * gamma2(g, f, x))
                assert approx_equal(
                    laplacian(g, c * f, x) ** 2, c * c * laplacian(g, f, x) ** 2
                )


def test_gamma_nonnegative_and_kernel(corpus_small):
    for g in corpus_small:
        for f in random_functions(g, 2, seed=53):
            for x in range(g.vertex_count):
                value = gamma_local(g, f, x)
                assert value >= 0.0
                constant_on_ball = all(
                    f[y] == f[x] for y in g.adjacency[x]
                )
                assert (value == 0.0) == constant_on_ball
    # explicitly constant on one ball but not elsewhere
    g = path(5)
    f = np.array([1.0, 1.0, 1.0, 2.0, 0.0])
    assert gamma_local(g, f, 0) == 0.0
    assert gamma_local(g, f, 2) > 0.0


def test_locality_distance_three_perturbation():
    g = path(7)
    x = 0
    f = np.array([0.3, -1.2, 0.8, 0.1, 2.0, -0.4, 1.1])
    g_pos = np.exp(f / 3)
    for bump_at in (3, 4, 5, 6):  # all at distance >= 3 from x
        bumped = f.copy()
        bumped[bump_at] += 13.0
        assert laplacian(g, bumped, x) == laplacian(g, f, x)
        assert gamma(g, bumped, bumped, x) == gamma(g, f, f, x)
        assert gamma2(g, bumped, x) == gamma2(g, f, x)
        assert gamma2_local(g, bumped, x) == gamma2_local(g, f, x)
        pos_bumped = g_pos.copy()
        pos_bumped[bump_at] *= 7.0
        assert gamma_f_ratio(g, pos_bumped, x) == gamma_f_ratio(g, g_pos, x)


def test_function_length_validation():
    g = star(3)
    with pytest.raises(ValueError):
        laplacian(g, np.zeros(3), 0)
