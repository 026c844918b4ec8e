import tracemalloc

import numpy as np
import pytest

from curvkit import (
    InfeasibleFunctionError,
    VertexFunction,
    approx_equal,
    ball,
    cde_check,
    cde_estimate,
    cde_ratio,
    cycle,
    gamma,
    gamma2,
    gamma_f_ratio_split,
    gamma_local,
    laplacian,
    path,
    petersen,
    star,
    vertex_girth,
)
from conftest import girth5_corpus, tree_hub
from curvkit.cde import (
    FEASIBILITY_MARGIN,
    _batch_ratios,
    _descend,
    _score_moves,
    _structured_rows,
)
from curvkit.localforms import LocalEvaluator, MoveTable
from curvkit.rng import derive_stream
from oracles import proposal_tensor_moves


def _feasible_function(g, x, seed):
    """Positive function with Df(x) < 0: shrink the 1-ball below f(x)."""
    rng = np.random.default_rng(seed)
    vals = np.exp(0.4 * rng.normal(size=g.vertex_count))
    vals[x] = 1.0
    for y in g.adjacency[x]:
        vals[y] = 0.2 + 0.5 * rng.random()
    return vals


def test_constant_function_is_infeasible():
    g = star(3)
    f = VertexFunction.constant(g, 2.0)
    with pytest.raises(InfeasibleFunctionError) as err:
        cde_ratio(g, 0, 2.0, f)
    assert err.value.precondition == "laplacian_sign"


def test_nonpositive_function_is_infeasible():
    g = petersen()
    f = np.ones(10)
    f[6] = -1.0
    with pytest.raises(InfeasibleFunctionError) as err:
        cde_ratio(g, 0, 2.0, f)
    assert err.value.precondition == "positivity"


def test_ratio_scale_invariance(corpus_small):
    for g in corpus_small[:8]:
        for x in range(0, g.vertex_count, 3):
            f = _feasible_function(g, x, seed=x + 1)
            base = cde_ratio(g, x, 2.0, f)
            for c in (0.5, 3.0, 40.0):
                assert approx_equal(cde_ratio(g, x, 2.0, c * f), base, rel=1e-9)


def test_star_hand_value_and_dual_path():
    # uniform leaves t give ratio 1 + (1-t)^2/(2t) on a 3-star center
    g = star(3)
    f = np.array([1.0, 0.5, 0.5, 0.5])
    value = cde_ratio(g, 0, 2.0, f)
    assert value == pytest.approx(1.25, abs=1e-12)
    # independent evaluation path: split form of G(f, G(f)/f)
    lap = laplacian(g, f, 0)
    num = gamma2(g, f, 0) - gamma_f_ratio_split(g, f, 0) - lap * lap / 2.0
    assert approx_equal(value, num / gamma_local(g, f, 0), rel=1e-10)


def test_ratio_locality():
    g = path(7)
    f = _feasible_function(g, 0, seed=3)
    base = cde_ratio(g, 0, 2.0, f)
    for far in (3, 4, 5, 6):
        bumped = f.copy()
        bumped[far] *= 5.0
        assert cde_ratio(g, 0, 2.0, bumped) == base


def test_cde_check_huge_negative_bound(corpus_small):
    for g in corpus_small[:6]:
        x = 0
        f = _feasible_function(g, x, seed=9)
        assert cde_check(g, x, 2.0, -1e6, f)


def test_structured_family_satisfies_bound_on_girth5(corpus_girth5):
    for g in corpus_girth5[:6]:
        for x in range(0, g.vertex_count, 4):
            if vertex_girth(g, x) < 5:
                continue
            bound = -g.degree(x) / 2.0 - 1.0
            b = ball(g, x, 2)
            for t in (0.3, 0.7, 0.9):
                vals = np.ones(g.vertex_count)
                for y in b.sphere1:
                    vals[y] = t
                for z in b.sphere2:
                    vals[z] = t * t
                assert cde_check(g, x, 2.0, bound, vals)


def test_estimate_deterministic(petersen_graph):
    a = cde_estimate(petersen_graph, 3, 2.0, samples=2000, seed=7)
    b = cde_estimate(petersen_graph, 3, 2.0, samples=2000, seed=7)
    assert a.sampled_min == b.sampled_min
    assert a.argmin.ratio == b.argmin.ratio
    assert (a.argmin.function.values == b.argmin.function.values).all()
    assert a.samples_used == 2000 and a.seed == 7
    # different seeds explore differently
    c = cde_estimate(petersen_graph, 3, 2.0, samples=2000, seed=8)
    assert c.sampled_min != a.sampled_min


def test_estimate_monotone_in_samples(petersen_graph):
    ladder = [100, 400, 1500, 5000]
    vertices = (0, 4)
    for x in vertices:
        values = [
            cde_estimate(petersen_graph, x, 2.0, samples=s, seed=11).sampled_min
            for s in ladder
        ]
        for coarse, fine in zip(values, values[1:]):
            assert fine <= coarse


def test_estimate_bounds_star_and_petersen(petersen_graph):
    est = cde_estimate(star(3), 0, 2.0, samples=10000, seed=0)
    assert est.sampled_min >= -3.0 / 2.0 - 1.0
    est = cde_estimate(petersen_graph, 0, 2.0, samples=10000, seed=0)
    assert est.sampled_min >= -3.0 / 2.0 - 1.0


def test_estimate_argmin_is_feasible_and_consistent(corpus_small):
    for g in corpus_small[:6]:
        x = g.vertex_count // 2
        est = cde_estimate(g, x, 2.0, samples=1500, seed=4)
        f = est.argmin.function
        b = ball(g, x, 2)
        for v in (x,) + b.sphere1 + b.sphere2:
            assert f[v] > 0.0
        assert f[x] == 1.0
        assert laplacian(g, f, x) < 0.0
        assert gamma_local(g, f, x) > 0.0
        assert est.sampled_min == est.argmin.ratio
        # scalar re-evaluation through the definitional operators agrees
        assert approx_equal(cde_ratio(g, x, 2.0, f), est.sampled_min, rel=1e-9)


def test_estimate_includes_structured_family(petersen_graph):
    x = 2
    est = cde_estimate(petersen_graph, x, 2.0, samples=1, seed=0)
    ev = LocalEvaluator(petersen_graph, x)
    rows = _structured_rows(ev, derive_stream(0, x))
    assert len(rows)
    structured_min = float(np.min(_batch_ratios(ev, rows, 2.0)))
    assert est.sampled_min <= structured_min


def test_batch_ratios_match_scalar_path(corpus_small):
    for g in corpus_small[:5]:
        x = 0
        ev = LocalEvaluator(g, x)
        rng = np.random.default_rng(23)
        rows = np.exp(rng.normal(size=(20, ev.width)) * 0.5)
        rows[:, 0] = 1.0
        values = _batch_ratios(ev, rows, 2.0)
        lap = ev.laplacian(rows)
        for i in range(len(rows)):
            if lap[i] >= 0:
                continue
            full = ev.to_vertex_function_values(rows[i], fill=1.0)
            assert approx_equal(values[i], cde_ratio(g, x, 2.0, full), rel=1e-12)


def _move_rows(ev, rng):
    """Sampler-like rows plus edge cases: the sphere-1 sum at the budget (up
    moves clamp), values next to the floor (down moves die), and
    Df(x) > 0 (moves that keep it are excluded)."""
    d = ev.degree
    rows = np.exp(rng.uniform(-3.0, 3.0, size=(8, ev.width)))
    rows[:, 0] = 1.0
    s1 = rows[:, ev.s1_cols]
    ceiling = rng.uniform(0.05, 1.0, size=8)
    rows[:, ev.s1_cols] = s1 * np.minimum(1.0, ceiling / s1.mean(axis=1))[:, None]
    spread = np.linspace(0.2, 1.8, d) / np.linspace(0.2, 1.8, d).sum() if d > 1 else 1.0
    rows[1, ev.s1_cols] = spread * d * (1.0 - FEASIBILITY_MARGIN)
    rows[2, ev.s1_cols[0]] = rows[2, -1] = 1.2e-9
    rows[3, ev.s1_cols] = spread * 1.5 * d
    return rows


def test_delta_moves_match_proposal_tensor(corpus_small):
    # every descent move scored by delta against the same move built as a
    # full row and evaluated by _batch_ratios; triangles and 4-cycles (a
    # column at the z end of several pairs) come from the small corpus
    graphs = list(corpus_small) + girth5_corpus()[::3]
    steps = np.array([0.5, 0.25, 1e-3, 3.0, 0.7, 0.01, 0.125, 0.9])
    rng = np.random.default_rng(41)
    excluded = 0
    for g in graphs:
        for x in range(g.vertex_count):
            ev = LocalEvaluator(g, x)
            table = MoveTable(ev)
            rows = _move_rows(ev, rng)
            for n in (2.0, 3.5, np.inf):
                ref_moved, ref_values, ref_dead, ref_lap = proposal_tensor_moves(
                    ev, rows, steps, n
                )
                moved, values, dead, lap, unmoved = _score_moves(ev, table, rows, steps, n)
                # (2, B, width - 1) -> (B, slot), slot j = column j // 2 + 1
                moved, values, dead, lap = (
                    a.transpose(1, 2, 0).reshape(len(rows), -1)
                    for a in (moved, values, dead, lap)
                )
                assert np.array_equal(dead, ref_dead)
                assert np.array_equal(lap < 0.0, ref_lap < 0.0)
                assert np.array_equal(np.isinf(values), np.isinf(ref_values))
                assert np.allclose(moved, ref_moved, rtol=1e-14, atol=0.0)
                finite = np.isfinite(ref_values)
                a, b = values[finite], ref_values[finite]
                assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(a), np.abs(b)) + 1e-12)
                full = _batch_ratios(ev, rows, n)
                assert np.all(np.abs(unmoved - full) <= 1e-12 * np.abs(full) + 1e-12)
                excluded += int(ref_dead.sum()) + int((ref_lap >= 0.0).sum())
    assert excluded > 0   # the edge rows reach both exclusions


def test_descend_returns_full_values_not_above_the_starts(corpus_small):
    rng = np.random.default_rng(5)
    for g in corpus_small[::3]:
        for x in range(0, g.vertex_count, 3):
            ev = LocalEvaluator(g, x)
            starts = _move_rows(ev, rng)[[0, 1, 2, 4, 5, 6, 7]]   # Df(x) < 0
            values, rows = _descend(ev, starts, 2.0)
            assert np.array_equal(values, _batch_ratios(ev, rows, 2.0))
            start_values = _batch_ratios(ev, starts, 2.0)
            assert np.all(values <= start_values + 1e-12 * np.abs(start_values))
            assert np.all(rows > 0.0) and np.all(ev.laplacian(rows) < 0.0)


def test_hub_center_estimate_memory_is_bounded():
    # degree-100 center, 401-wide 2-ball, default sample count: scored by
    # delta the search traces ~120 MiB; building every proposal row as a
    # full row peaks near 1.3 GB of RSS here
    g = tree_hub(100)
    tracemalloc.start()
    try:
        est = cde_estimate(g, 0, 2.0, samples=10000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20, f"peak {peak / 2**20:.0f} MiB"
    assert est.sampled_min >= -100 / 2.0 - 1.0


def test_gamma_at_s1_matches_definitional_gamma(corpus_small):
    # the per-neighbor aggregation matrix against G(f)(y) from the definition
    for g in corpus_small:
        vals = np.exp(np.random.default_rng(31).normal(size=g.vertex_count))
        for x in range(g.vertex_count):
            ev = LocalEvaluator(g, x)
            row = vals[ev.vertices][None, :]
            local = ev.gamma_at_s1(row)[0]
            for i, y in enumerate(ev.ball.sphere1):
                assert approx_equal(local[i], gamma(g, vals, vals, y), rel=1e-12)


def test_parameter_validation(petersen_graph):
    with pytest.raises(ValueError):
        cde_estimate(petersen_graph, 0, 2.0, samples=0, seed=0)
    with pytest.raises(ValueError):
        cde_estimate(petersen_graph, 0, 0.0, samples=10, seed=0)
    with pytest.raises(ValueError):
        cde_ratio(petersen_graph, 0, -1.0, np.ones(10))


def test_pending_vertex_estimate():
    g = path(5)
    est = cde_estimate(g, 0, 2.0, samples=500, seed=1)  # degree-1 center
    assert est.sampled_min >= -1.0 / 2.0 - 1.0
    interior = cde_estimate(g, 2, 2.0, samples=500, seed=1)
    assert interior.sampled_min >= -2.0  # bound with degree 2


def test_estimate_on_low_girth_vertex_still_works():
    g = cycle(3)
    est = cde_estimate(g, 0, 2.0, samples=800, seed=2)
    assert np.isfinite(est.sampled_min)


def test_high_degree_structured_branch():
    # degree 8 overflows the full grid product; the capped configuration
    # scan must still run, stay deterministic, and respect the bound
    g = star(8)
    a = cde_estimate(g, 0, 2.0, samples=400, seed=6)
    b = cde_estimate(g, 0, 2.0, samples=400, seed=6)
    assert a.sampled_min == b.sampled_min
    assert a.sampled_min >= -8.0 / 2.0 - 1.0
    ev = LocalEvaluator(g, 0)
    rows = _structured_rows(ev, derive_stream(6, 0))
    assert 19 < len(rows) <= 8000


def test_high_degree_center_is_sampled_without_rejection():
    # at degree 40 almost no log-uniform draw has Df(x) < 0 on its own;
    # every draw is made feasible, so the search runs and respects the bound
    g = star(40)
    values = []
    for samples in (50, 400, 2000):
        est = cde_estimate(g, 0, 2.0, samples=samples, seed=3)
        values.append(est.sampled_min)
        f = est.argmin.function
        assert f[0] == 1.0
        assert all(f[v] > 0.0 for v in range(g.vertex_count))
        assert laplacian(g, f, 0) < 0.0
    assert values[0] >= values[1] >= values[2] >= -40.0 / 2.0 - 1.0


def test_unusual_seeds():
    g = star(3)
    for seed in (-1, 2**63 + 11, 0):
        est = cde_estimate(g, 0, 2.0, samples=200, seed=seed)
        assert np.isfinite(est.sampled_min)
        assert est.seed == seed
