import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from curvkit import (
    Graph,
    InfeasibleFunctionError,
    VertexFunction,
    all_vertex_girths,
    approx_equal,
    cde_check,
    cde_estimate,
    cde_ratio,
    complete,
    cycle,
    gamma2,
    gamma_local,
    laplacian,
    path,
    petersen,
    star,
    vertex_girth,
)
import curvkit.cde as cde_mod
import curvkit.localforms as localforms
from conftest import girth5_corpus, small_mixed_corpus, tree_hub
from curvkit.cd import DIM_FLOOR
from curvkit.cde import (
    FEASIBILITY_MARGIN,
    _REFINE_CAP,
    _batch_ratios,
    _descend,
    _reduced_ratios,
    _sampled_rows,
    _score_moves,
    _structured_rows,
    _trigger_rows,
    cde_estimates,
)
from curvkit.graph import Balls
from curvkit.localforms import (
    GRADIENT_FLOOR,
    LocalEvaluator,
    MoveScorer,
    _own_terms,
    _reduced_pair,
)
from curvkit.rng import derive_stream
from oracles import (
    expression_sampled_rows,
    gamma_f_ratio_split,
    heap_trigger_rows,
    listed_structured_rows,
    proposal_tensor_moves,
    walked_fill,
    walked_two_ball,
)


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


def test_underflowing_gradient_is_infeasible():
    # Df(0) < 0, but G(f)(0) ~ (2e-176)^2 underflows to 0
    g = petersen()
    f = np.full(10, 1e-160)
    f[g.adjacency[0][0]] = np.nextafter(1e-160, 0.0)
    assert laplacian(g, f, 0) < 0.0
    with pytest.raises(InfeasibleFunctionError, match=r"G\(f\)\(x\) = 0") as err:
        cde_ratio(g, 0, 2.0, f)
    assert err.value.precondition == "zero_gradient"


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


def _exact_cde_ratio(g, f, x, n):
    """The CDE ratio at x in exact rational arithmetic, every gradient form
    in its product form (D(uw) - u Dw - w Du) / 2."""
    adj, vs = g.adjacency, range(g.vertex_count)

    def lap(u):
        return {v: sum(u[y] - u[v] for y in adj[v]) / len(adj[v]) for v in vs}

    def gam(u, w):
        du, dw, duw = lap(u), lap(w), lap({v: u[v] * w[v] for v in vs})
        return {v: (duw[v] - u[v] * dw[v] - w[v] * du[v]) / 2 for v in vs}

    gf, df = gam(f, f), lap(f)
    g2 = lap(gf)[x] / 2 - gam(f, df)[x]
    num = g2 - gam(f, {v: gf[v] / f[v] for v in vs})[x] - df[x] * df[x] / n
    return num / gf[x]


@pytest.mark.parametrize("eps", [1e-4, 3e-5])
def test_ratio_keeps_its_digits_near_a_constant(eps):
    # a filled row a little below the constant 1: the product form of G
    # lost 3e-4 (eps = 1e-4) and 1e-2 (eps = 3e-5) of the ratio
    g, x = cycle(6), 3
    ev = LocalEvaluator(g, x)
    f = np.ones(g.vertex_count)
    f[ev.vertices] = ev.fill(np.array([[1.0 - eps, 1.0 - eps / 3.0]]))[0]
    exact = _exact_cde_ratio(g, [Fraction(v) for v in f], x, Fraction(2))
    assert abs(cde_ratio(g, x, 2.0, f) - float(exact)) <= 1e-9 * abs(float(exact))


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
            s1, s2, _ = walked_two_ball(g, x)
            for t in (0.3, 0.7, 0.9):
                vals = np.ones(g.vertex_count)
                for y in s1:
                    vals[y] = t
                for z in s2:
                    vals[z] = t * t
                assert cde_check(g, x, 2.0, bound, vals)


def test_gated_minima_keep_the_sharper_bound(corpus_girth5):
    # at girth >= 5 the CDE ratio is argued to stay at or above
    # -max(d_x/2, 1) for n >= 2, 1 above the paper's bound -d_x/2 - 1
    # (ROADMAP, the girth-5 CDE bound in closed form); no search can cross it
    for g in corpus_girth5 + [tree_hub(k) for k in (6, 10, 14, 100)]:
        girths = all_vertex_girths(g)
        xs = [x for x in range(g.vertex_count) if girths[x] >= 5]
        for e in cde_estimates(g, xs, 2.0, 2000, 0):
            bound = -max(g.degree(e.vertex) / 2.0, 1.0)
            assert e.sampled_min >= bound - 1e-9, (
                f"vertex {e.vertex}: CDE minimum {e.sampled_min!r} is below "
                f"-max(d_x/2, 1) = {bound}: a defect in the code or in the "
                "argument for the sharper bound"
            )


def test_estimate_deterministic(petersen_graph):
    a = cde_estimate(petersen_graph, 3, 2.0, samples=2000, seed=7)
    b = cde_estimate(petersen_graph, 3, 2.0, samples=2000, seed=7)
    assert a.sampled_min == b.sampled_min
    assert (a.function.values == b.function.values).all()
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
        f = est.function
        s1, s2, _ = walked_two_ball(g, x)
        for v in (x,) + s1 + s2:
            assert f[v] > 0.0
        assert f[x] == 1.0
        assert laplacian(g, f, x) < 0.0
        assert gamma_local(g, f, x) > 0.0
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


@pytest.mark.parametrize("n", [DIM_FLOOR, 0.5, 2.0, np.inf])
def test_every_search_ends_with_a_finite_candidate(n):
    # the structured scan holds the uniform rows f(y) = v < 1, whose
    # G(f)(x) = (1 - v)^2 / 2 is above the gradient floor, so no search
    # can end without a finite ratio, at any dimension or degree
    graphs = girth5_corpus() + small_mixed_corpus() + [tree_hub(k) for k in (1, 2, 6, 50)]
    for g in graphs + [star(1), path(2), complete(8)]:
        for x in range(g.vertex_count):
            ev = LocalEvaluator(g, x)
            rows = _structured_rows(ev, derive_stream(0, x))
            assert np.isfinite(np.min(_batch_ratios(ev, rows, n)))
        estimates = cde_estimates(g, range(g.vertex_count), n, samples=1)
        assert all(np.isfinite(est.sampled_min) for est in estimates)


def _close(a, b, rel=1e-12):
    """Equal to rel relative, with an absolute floor of rel near 0, where
    both routes cancel terms of size O(1)."""
    return np.all(np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b)) + rel)


def _reduced_cases():
    """Every vertex of the small corpus (triangles and 4-cycles), of every
    3rd girth-5 corpus graph, and the tree-hub centre."""
    for g in small_mixed_corpus() + girth5_corpus()[::3]:
        for x in range(g.vertex_count):
            yield g, x
    yield tree_hub(14), 0


def test_batch_ratios_match_scalar_path():
    # the psi_w pair sum of full rows against the definitional cde_ratio;
    # every other row is scaled, so f(x) != 1 there
    rng = np.random.default_rng(23)
    checked = 0
    for g, x in _reduced_cases():
        ev = LocalEvaluator(g, x)
        rows = np.exp(rng.normal(size=(6, ev.width)) * 0.5)
        rows[:, 0] = 1.0
        rows[:, ev.s1_cols] *= 0.7   # mostly Df(x) < 0, at every degree
        rows[1::2] *= np.exp(rng.normal(size=(3, 1)))
        lap = ev.laplacian(rows)
        for n in (2.0, 3.5, np.inf):
            values = _batch_ratios(ev, rows, n)
            for i in np.flatnonzero(lap < 0.0):
                full = np.ones(g.vertex_count)
                full[ev.vertices] = rows[i]
                assert approx_equal(values[i], cde_ratio(g, x, n, full), rel=1e-12)
                checked += 1
    assert checked >= 7000


def test_reduced_ratio_matches_the_filled_row():
    # R against the full ratio of the row with sphere 2 filled by a set
    # walk, and +inf exactly below the gradient floor
    rng = np.random.default_rng(17)
    for g, x in _reduced_cases():
        ev = LocalEvaluator(g, x)
        t = np.exp(rng.uniform(-3.0, 3.0, size=(20, ev.degree)))
        t[0] = 1.0 + 0.01 * rng.uniform(-1.0, 1.0, size=ev.degree)   # below the floor
        filled = walked_fill(ev, t)
        low = ev.gamma(filled) < GRADIENT_FLOOR
        assert low[0]
        for n in (2.0, 3.5, np.inf):
            reduced = _reduced_ratios(ev, t, n)
            assert np.array_equal(np.isinf(reduced), low)
            assert _close(reduced[~low], _batch_ratios(ev, filled, n)[~low])


def test_full_rows_below_the_gradient_floor_score_inf():
    # one floor rule for full rows and for R: a positive G(f)(x) below
    # GRADIENT_FLOOR is +inf on both routes, not a finite ratio
    rng = np.random.default_rng(31)
    for g, x in [(petersen(), 0), (star(3), 0), (path(5), 2), (tree_hub(6), 0)]:
        ev = LocalEvaluator(g, x)
        t = 1.0 - 0.04 * rng.uniform(0.1, 1.0, size=(8, ev.degree))
        filled = ev.fill(t)
        gx = ev.gamma(filled)
        assert np.all((0.0 < gx) & (gx < GRADIENT_FLOOR))
        for n in (2.0, np.inf):
            assert np.all(np.isposinf(_batch_ratios(ev, filled, n)))
            assert np.all(np.isposinf(MoveScorer(ev.balls, [len(t)]).ratios(t.ravel(), n)))


def test_fill_matches_walked_fill():
    rng = np.random.default_rng(19)
    for g, x in _reduced_cases():
        ev = LocalEvaluator(g, x)
        t = np.exp(rng.uniform(-3.0, 3.0, size=(5, ev.degree)))
        assert np.allclose(ev.fill(t), walked_fill(ev, t), rtol=1e-15, atol=0.0)


def test_filled_sphere2_is_optimal():
    # with the centre and sphere 1 fixed, no log-normal perturbation of the
    # filled sphere 2 lowers the ratio
    rng = np.random.default_rng(23)
    checked = 0
    for g in small_mixed_corpus() + girth5_corpus()[::3]:
        for x in range(g.vertex_count):
            ev = LocalEvaluator(g, x)
            if not len(ev.s2_cols):
                continue
            filled = ev.fill(np.exp(rng.normal(0.0, 0.7, size=(50, ev.degree))))
            best = _batch_ratios(ev, filled, 2.0)
            for sigma in (1e-3, 1e-1):
                moved = filled.copy()
                moved[:, ev.s2_cols] *= np.exp(rng.normal(0.0, sigma, size=(50, len(ev.s2_cols))))
                ratio = _batch_ratios(ev, moved, 2.0)
                # G(f)(x) does not read sphere 2, so both rows share the floor
                finite = np.isfinite(best)
                assert np.array_equal(np.isfinite(ratio), finite)
                ratio, low = ratio[finite], best[finite]
                assert np.all(ratio >= low - 1e-12 * np.maximum(np.abs(low), 1.0))
            checked += 1
    assert checked >= 500


def test_reduced_ratio_is_separable_at_girth_5():
    # at a girth-5 vertex R depends on d_x, the d_y and t alone:
    # sum_y (w_y/2)(t_y - 1)^2 (t_y + 1)(1/t_y + 1 - d_y) plus the Df(x)
    # terms, over G(f)(x); checked against the filled row in full
    rng = np.random.default_rng(29)
    cases = [(g, x) for g in girth5_corpus()[::2] for x in range(g.vertex_count)]
    for g, x in cases + [(tree_hub(20), 0)]:
        if vertex_girth(g, x) < 5:
            continue
        ev = LocalEvaluator(g, x)
        d = ev.degree
        dy = np.array([g.degree(y) for y in ev.vertices[ev.s1_cols]], dtype=np.float64)
        w = 1.0 / (2.0 * d * dy)
        t = np.exp(rng.uniform(-2.0, 0.5, size=(10, d)))
        lap, gx = t.mean(axis=1) - 1.0, ((t - 1.0) ** 2).sum(axis=1) / (2.0 * d)
        for n in (2.0, np.inf):
            own = (0.5 * w * (t - 1.0) ** 2 * (t + 1.0) * (1.0 / t + 1.0 - dy)).sum(axis=1)
            closed = (own + ((0.5 - 1.0 / n) * lap + 0.5 * gx) * lap) / gx
            assert _close(closed, _batch_ratios(ev, walked_fill(ev, t), n))
            assert _close(closed, _reduced_ratios(ev, t, n))


def test_own_term_is_the_pair_form_at_the_best_sphere_2():
    # the collapsed own term against psi_w at f(z) = 1 and at f(z)* = t^2
    t = np.exp(np.linspace(-3.0, 3.0, 101))
    for w, single in ((0.1, 0.0), (1 / 12, 2.0), (1 / 400, 3.0)):
        centre = _reduced_pair(t, 1.0 - t, 0.0, w)
        child = _reduced_pair(t, t * t - t, t * t - 1.0, w)
        scale = np.abs(centre) + single * np.abs(child)
        assert np.all(np.abs(_own_terms(t, w, single) - (centre + single * child)) <= 1e-13 * scale)


def _move_rows(ev, rng):
    """Sampler-like sphere-1 rows plus edge cases: the sum at the budget
    (up moves clamp), a value next to the floor (down moves die), and
    Df(x) > 0 (moves that keep it are excluded)."""
    d = ev.degree
    rows = np.exp(rng.uniform(-3.0, 3.0, size=(8, d)))
    ceiling = rng.uniform(0.05, 1.0, size=8)
    rows *= np.minimum(1.0, ceiling / rows.mean(axis=1))[:, None]
    spread = np.linspace(0.2, 1.8, d) / np.linspace(0.2, 1.8, d).sum() if d > 1 else 1.0
    rows[1] = spread * d * (1.0 - FEASIBILITY_MARGIN)
    rows[2, 0] = 1.2e-9
    rows[3] = spread * 1.5 * d
    return rows


def _mixed_graph():
    """One graph whose 2-balls hold every kind of term, at widths from 4 to
    57: the tree-hub-14 centre (girth >= 5), a triangle and a 4-cycle hung
    on leaves of the hub, and a girth-5 corpus graph hung on a third leaf.
    Returns (graph, vertices to batch): the hub centre, a degree-1 leaf,
    triangle and 4-cycle vertices and every other corpus vertex."""
    hub, corpus = tree_hub(14), girth5_corpus()[1]
    n = hub.vertex_count
    edges = hub.edges + [(15, n), (n, n + 1), (n + 1, 15)]
    edges += [(16, n + 2), (n + 2, n + 3), (n + 3, n + 4), (n + 4, 16)]
    edges += [(17, n + 5)] + [(n + 5 + u, n + 5 + v) for u, v in corpus.edges]
    vertices = [0, 18, 15, n, 16, n + 3] + list(range(n + 5, n + 5 + corpus.vertex_count, 2))
    return Graph.from_edges(edges), vertices


def _move_batches(corpus_small):
    """Batches (graph, vertices) scored in one table: every vertex of each
    graph, then the mixed-width batch."""
    graphs = list(corpus_small) + girth5_corpus()[::3]
    return [(g, range(g.vertex_count)) for g in graphs] + [_mixed_graph()]


def _per_vertex(scorer, moves):
    """Split (2, M) move arrays into per-vertex (count, slot) arrays, slot
    j moving sphere-1 value j // 2, up for even j and down for odd j."""
    cuts = np.cumsum(scorer.counts * scorer.degrees)[:-1]
    return [
        part.reshape(2, count, -1).transpose(1, 2, 0).reshape(count, -1)
        for part, count in zip(np.split(moves, cuts, axis=1), scorer.counts)
    ]


def _force_full_moves(monkeypatch):
    """Make every move with G(f)(x) above the floor go to the full
    re-evaluation; returns the list of the row counts it scores."""
    redone = []
    ratios = MoveScorer.ratios

    def counted(self, flat, n):
        out = ratios(self, flat, n)
        redone.append(len(out))
        return out

    monkeypatch.setattr(localforms, "_DELTA_CANCEL", 0.0)
    monkeypatch.setattr(MoveScorer, "ratios", counted)
    return redone


@pytest.mark.parametrize("route", ["delta", "full"])
def test_delta_moves_match_proposal_tensor(corpus_small, monkeypatch, route):
    # every descent move scored by delta, over the ragged rows of many
    # vertices at once, against the same move built as a full row, filled
    # and evaluated by _batch_ratios; triangles and 4-cycles (coupling
    # terms) come from the small corpus. The "full" route forces the
    # fallback: every move with G(f)(x) above the floor is scored in full
    # on a row of its own, and must give the same scores
    redone = _force_full_moves(monkeypatch) if route == "full" else []
    steps = np.array([0.5, 0.25, 1e-3, 3.0, 0.7, 0.01, 0.125, 0.9])
    rng = np.random.default_rng(41)
    excluded = finite_moves = 0
    for g, xs in _move_batches(corpus_small):
        evs = [LocalEvaluator(g, x) for x in xs]
        rows = [_move_rows(ev, rng) for ev in evs]
        scorer = MoveScorer(Balls(g, xs), [len(r) for r in rows])
        current = np.concatenate([r.ravel() for r in rows])
        step = np.tile(steps, len(evs))
        for n in (2.0, 3.5, np.inf):
            scored = _score_moves(scorer, current, step, n)
            moved, values, dead, lap = (_per_vertex(scorer, a) for a in scored[:4])
            unmoved = np.split(scored[4], np.cumsum(scorer.counts)[:-1])
            for i, ev in enumerate(evs):
                ref_moved, ref_values, ref_dead, ref_lap = proposal_tensor_moves(
                    ev, rows[i], steps, n
                )
                assert np.array_equal(dead[i], ref_dead)
                assert np.array_equal(lap[i] < 0.0, ref_lap < 0.0)
                assert np.array_equal(np.isinf(values[i]), np.isinf(ref_values))
                assert np.allclose(moved[i], ref_moved, rtol=1e-14, atol=0.0)
                finite = np.isfinite(ref_values)
                assert _close(values[i][finite], ref_values[finite])
                filled = walked_fill(ev, rows[i])
                full = _batch_ratios(ev, filled, n)
                full[ev.gamma(filled) < GRADIENT_FLOOR] = np.inf
                assert np.array_equal(np.isinf(unmoved[i]), np.isinf(full))
                assert _close(unmoved[i][np.isfinite(full)], full[np.isfinite(full)])
                excluded += int(ref_dead.sum()) + int((ref_lap >= 0.0).sum())
                finite_moves += int(finite.sum())
    assert excluded > 0   # the edge rows reach both exclusions
    if route == "full":
        assert sum(redone) >= finite_moves > 0


def test_scored_moves_do_not_depend_on_the_rows_beside_them():
    # the same vertex's rows, scored alone and inside a mixed-width batch,
    # give bit-identical moves and scores
    rng = np.random.default_rng(7)
    g, xs = _mixed_graph()
    evs = [LocalEvaluator(g, x) for x in xs]
    rows = [_move_rows(ev, rng)[[0, 1, 4, 5]] for ev in evs]
    steps = np.array([0.5, 0.03, 0.25, 2.0])
    scorer = MoveScorer(Balls(g, xs), [4] * len(evs))
    current = np.concatenate([r.ravel() for r in rows])
    together = _score_moves(scorer, current, np.tile(steps, len(evs)), 2.0)
    together = [_per_vertex(scorer, a) for a in together[:4]] + [together[4].reshape(-1, 4)]
    for i, (ev, r) in enumerate(zip(evs, rows)):
        alone_scorer = MoveScorer(ev.balls, [4])
        alone = _score_moves(alone_scorer, r.ravel().copy(), steps, 2.0)
        alone = [_per_vertex(alone_scorer, a)[0] for a in alone[:4]] + [alone[4]]
        for a, b in zip(alone, together):
            assert np.array_equal(a, b[i])


@pytest.mark.parametrize("route", ["delta", "full"])
def test_one_graph_batch_of_every_term_kind_matches_one_vertex_scorers(monkeypatch, route):
    # a triangle vertex, a 4-cycle vertex (a distance-2 vertex with two
    # parents) and girth >= 5 vertices, their rows in one scorer: ratios
    # and moves equal those of each vertex's own scorer bit for bit, on
    # the delta route and on the full re-evaluation of every move
    redone = _force_full_moves(monkeypatch) if route == "full" else []
    g, xs = _mixed_graph()
    kinds = [MoveScorer(LocalEvaluator(g, x).balls, [1]) for x in xs]
    assert any(len(s.tri_y) for s in kinds) and any(len(s.shared_y) for s in kinds)
    assert any(not len(s.tri_y) and not len(s.shared_y) for s in kinds)
    rng = np.random.default_rng(11)
    counts = [3, 1, 2, 3, 2, 1] + [2] * (len(xs) - 6)
    rows = [0.9 * np.exp(rng.uniform(-2.0, 0.0, size=(c, d))) for c, d in
            zip(counts, Balls(g, xs).degree)]
    scorer = MoveScorer(Balls(g, xs), counts)
    current = np.concatenate([r.ravel() for r in rows])
    values = np.stack([current * 1.3, current / 1.7])
    together = scorer.ratios(current, 2.0), *scorer.moves(current, values, 2.0)
    cuts, at = np.cumsum(counts)[:-1], np.cumsum(scorer.counts * scorer.degrees)[:-1]
    for i, x in enumerate(xs):
        alone = MoveScorer(LocalEvaluator(g, x).balls, [counts[i]])
        flat = rows[i].ravel()
        mine = np.split(values, at, axis=1)[i]
        assert np.array_equal(alone.ratios(flat, 2.0), np.split(together[0], cuts)[i])
        for a, b in zip(alone.moves(flat, mine, 2.0), together[1:]):
            part = np.split(b, cuts)[i] if b.ndim == 1 else np.split(b, at, axis=1)[i]
            assert np.array_equal(a, part)
    if route == "full":
        assert redone


def test_descend_returns_full_values_not_above_the_starts(corpus_small):
    rng = np.random.default_rng(5)
    batches = [(g, range(0, g.vertex_count, 3)) for g in corpus_small[::3]] + [_mixed_graph()]
    for g, xs in batches:
        evs = [LocalEvaluator(g, x) for x in xs]
        starts = [_move_rows(ev, rng)[[0, 1, 2, 4, 5, 6, 7]] for ev in evs]   # Df(x) < 0
        refined = _descend(evs, starts, 2.0)
        assert len(refined) == len(evs)
        for ev, start, (values, rows) in zip(evs, starts, refined):
            assert rows.shape == start.shape
            assert np.array_equal(values, _reduced_ratios(ev, rows, 2.0))
            assert np.all(values <= _reduced_ratios(ev, start, 2.0))
            assert np.all(rows > 0.0) and np.all(rows.mean(axis=1) < 1.0)


def test_descent_takes_no_move_within_rounding():
    # rows the descent converged to at the sphere-1 budget: an up move
    # clamps back to the row up to rounding and no other move gains, so
    # the only "gains" left are rounding; descended again, the rows come
    # back bit for bit (without the acceptance threshold they drift)
    for g, x in [(tree_hub(6), 0), (girth5_corpus()[5], 1)]:
        ev = LocalEvaluator(g, x)
        sampled = _sampled_rows(ev, derive_stream(0, x), 200)
        starts = sampled[np.argsort(_reduced_ratios(ev, sampled, 2.0))[:20]]
        ((_, converged),) = _descend([ev], [starts], 2.0)
        budget = ev.degree * (1.0 - FEASIBILITY_MARGIN)
        converged = converged[np.abs(converged.sum(axis=1) - budget) <= 1e-12]
        assert len(converged) >= 10
        ((values, rows),) = _descend([ev], [converged], 2.0)
        assert np.array_equal(rows, converged)
        assert np.array_equal(values, _reduced_ratios(ev, converged, 2.0))


def _counting_scorers(monkeypatch):
    """Record the counts of every MoveScorer the cde module builds."""
    built = []

    class Counting(MoveScorer):
        def __init__(self, balls, counts):
            built.append(np.array(counts))
            super().__init__(balls, counts)

    monkeypatch.setattr(cde_mod, "MoveScorer", Counting)
    return built


def _search_starts(ev, samples):
    """The descent starts of ``_search`` at ev (seed 0): the sampled rows
    that enter the running top-10."""
    sampled = _sampled_rows(ev, derive_stream(0, ev.center), samples)
    return sampled[_trigger_rows(_reduced_ratios(ev, sampled, 2.0))]


def test_descent_scores_fewer_rows_as_candidates_stop(monkeypatch):
    # stopped candidates leave the scored rows: per descent, the rows
    # scored per sweep never rise and end below half of the first sweep's
    g = girth5_corpus()[1]
    sweeps = []
    score, descend = cde_mod._score_moves, cde_mod._descend

    def descending(evs, starts, n):
        sweeps.append([])
        return descend(evs, starts, n)

    def scoring(scorer, current, step, n):
        sweeps[-1].append(len(step))
        return score(scorer, current, step, n)

    monkeypatch.setattr(cde_mod, "_descend", descending)
    monkeypatch.setattr(cde_mod, "_score_moves", scoring)
    list(cde_estimates(g, range(g.vertex_count), 2.0, samples=2000, seed=0))
    assert sweeps
    for rows in sweeps:
        assert all(b <= a for a, b in zip(rows, rows[1:])), rows
        assert 2 * rows[-1] < rows[0], rows


@pytest.mark.parametrize("n", [0.5, 2.0, 3.5, np.inf])
def test_descent_of_a_batch_is_each_vertex_descended_alone(monkeypatch, n):
    # the rows still moving are scored again by a scorer of their own, on
    # every term kind: a graph with triangles and distance-2 vertices of
    # several parents, and a girth-5 graph; every vertex in one batch
    # against each vertex's starts alone, bit for bit
    built = _counting_scorers(monkeypatch)
    emptied = False
    for g, samples in [(small_mixed_corpus()[17], 300), (girth5_corpus()[1], 2000)]:
        evs = [LocalEvaluator(g, x) for x in range(g.vertex_count)]
        starts = [_search_starts(ev, samples) for ev in evs]
        built.clear()
        together = _descend(evs, starts, n)
        # a rebuilt scorer where one ball has no rows left while others do
        emptied |= any(c.sum() and not c.all() for c in built[1:])
        for ev, start, (values, rows) in zip(evs, starts, together):
            ((alone_values, alone_rows),) = _descend([ev], [start], n)
            assert np.array_equal(values, alone_values)
            assert np.array_equal(rows, alone_rows)
    # at n = 0.5 more than half of the candidates still move at the sweep cap
    assert emptied or n == 0.5


@pytest.mark.parametrize("samples", [10000, 1000])
def test_reduced_ratios_build_one_scorer(monkeypatch, samples):
    # 10^4 sampled rows are 4 blocks of 2048 and a short one of 1808, scored
    # as the last full-length window; 1000 rows are one short block
    ev = LocalEvaluator(girth5_corpus()[1], 0)
    sampled = _sampled_rows(ev, derive_stream(0, 0), samples)
    one_block = MoveScorer(ev.balls, [samples]).ratios(sampled.ravel(), 2.0)
    built = _counting_scorers(monkeypatch)
    ratios = _reduced_ratios(ev, sampled, 2.0)
    assert len(built) == 1
    assert built[0].tolist() == [min(samples, cde_mod._RATIO_CHUNK)]
    assert np.array_equal(ratios, one_block)


def _searched_vertices(g):
    """The vertices ``cde_estimates`` searches over all of g: each of girth
    < 5, and one per signature (d_x and the sorted d_y) of the others."""
    girths = all_vertex_girths(g)
    signatures = {(g.degree(x), *sorted(map(g.degree, g.adjacency[x])))
                  for x, girth in enumerate(girths) if girth >= 5}
    return sum(girth < 5 for girth in girths) + len(signatures)


def test_estimates_do_not_depend_on_the_batching(monkeypatch):
    # each vertex alone against all vertices in batches of several
    # vertices each (a small batch constant makes many batches)
    g = girth5_corpus()[1]
    batches = []
    descend = cde_mod._descend

    def counting(evs, starts, n):
        batches.append(len(evs))
        return descend(evs, starts, n)

    monkeypatch.setattr(cde_mod, "_descend", counting)
    monkeypatch.setattr(cde_mod, "_DESCENT_BATCH", 1000)
    together = list(cde_estimates(g, range(g.vertex_count), 2.0, samples=2000, seed=3))
    assert len(batches) >= 2 and max(batches) >= 2
    assert sum(batches) == _searched_vertices(g) < g.vertex_count
    assert [e.vertex for e in together] == list(range(g.vertex_count))
    for x, est in enumerate(together):
        alone = cde_estimate(g, x, 2.0, samples=2000, seed=3)
        assert alone.sampled_min == est.sampled_min
        assert np.array_equal(alone.function.values, est.function.values)


@pytest.mark.parametrize("budget", [cde_mod._DESCENT_BATCH, 1])
def test_each_signature_is_searched_once(monkeypatch, budget):
    # tree_hub(14) has 57 vertices of 3 signatures (the centre, its
    # neighbours, the leaves): 3 vertices are descended, and every other
    # vertex takes its signature's search, mapped onto its own ball, with
    # the bits of its own search alone and a function that re-verifies;
    # at a budget of 1 every vertex is a batch of its own, so most
    # batches hold no search
    monkeypatch.setattr(cde_mod, "_DESCENT_BATCH", budget)
    g = tree_hub(14)
    descended = []
    descend = cde_mod._descend

    def counting(evs, starts, n):
        descended.extend(ev.center for ev in evs)
        return descend(evs, starts, n)

    monkeypatch.setattr(cde_mod, "_descend", counting)
    together = list(cde_estimates(g, range(g.vertex_count), 2.0, samples=2000, seed=5))
    assert descended == [0, 1, 15] and _searched_vertices(g) == 3
    for x, est in enumerate(together):
        alone = cde_estimate(g, x, 2.0, samples=2000, seed=5)
        assert alone.sampled_min == est.sampled_min
        assert np.array_equal(alone.function.values, est.function.values)
        assert approx_equal(cde_ratio(g, x, 2.0, est.function), est.sampled_min, rel=1e-9)
    assert len({e.sampled_min for e in together}) == 3


def test_vertices_that_take_a_search_are_held_in_bounded_batches(monkeypatch):
    # every vertex of cycle(16000) has the signature (2, 2, 2), so 15999
    # vertices take vertex 0's search; each is held in a descent batch by
    # the 5 columns of its ball, so a batch holds at most 1 + 8192 / 5
    # vertices however long the cycle. Held without a size, they all
    # waited in one batch, and the peak traced 9.2 MiB (41 MiB with their
    # evaluators); here it is 4.3 MiB
    g = cycle(16000)
    held = []
    refine = cde_mod._refine

    def recording(batch, *args):
        held.append(len(batch))
        return refine(batch, *args)

    monkeypatch.setattr(cde_mod, "_refine", recording)
    tracemalloc.start()
    try:
        count = sum(1 for _ in cde_estimates(g, range(g.vertex_count), 2.0, samples=100, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == sum(held) == g.vertex_count
    assert max(held) <= 1 + cde_mod._DESCENT_BATCH // 5, max(held)
    assert peak < 7 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_descent_batches_are_sized_by_the_terms_they_score(monkeypatch):
    # small_mixed_corpus()[17] has triangles and distance-2 vertices with
    # several parents, so its rows hold more terms than sphere-1 values; a
    # batch counted by starts x d_x holds up to twice the budget in terms
    g = small_mixed_corpus()[17]
    sizes = []
    descend = cde_mod._descend

    def recording(evs, starts, n):
        sizes.append([len(s) * ev.row_terms() for ev, s in zip(evs, starts)])
        return descend(evs, starts, n)

    monkeypatch.setattr(cde_mod, "_descend", recording)
    monkeypatch.setattr(cde_mod, "_DESCENT_BATCH", 1000)
    list(cde_estimates(g, range(g.vertex_count), 2.0, samples=300, seed=0))
    assert sum(map(len, sizes)) == _searched_vertices(g) and max(map(len, sizes)) >= 2
    assert all(len(s) == 1 or sum(s) <= 1000 for s in sizes), sizes


def test_row_terms_are_the_terms_of_a_scorer_row():
    # d_x own terms plus the coupling pairs of a MoveScorer row: its
    # triangle pairs and its pairs to distance-2 vertices with several
    # parents; none at girth >= 5
    coupled = 0
    for g in small_mixed_corpus() + girth5_corpus()[:5]:
        for x, girth in enumerate(all_vertex_girths(g)):
            ev = LocalEvaluator(g, x)
            one = MoveScorer(ev.balls, [1])
            assert ev.row_terms() == ev.degree + len(one.tri_y) + len(one.shared_y)
            assert girth < 5 or ev.row_terms() == ev.degree
            coupled += ev.row_terms() > ev.degree
    assert coupled > 0


def test_estimates_check_arguments_before_the_first_estimate(petersen_graph):
    with pytest.raises(ValueError):
        cde_estimates(petersen_graph, [0, 10], 2.0, samples=10, seed=0)
    with pytest.raises(ValueError):
        cde_estimates(petersen_graph, [0], 2.0, samples=0, seed=0)
    assert list(cde_estimates(petersen_graph, [], 2.0, samples=10, seed=0)) == []


def test_chunked_ratios_equal_one_call_on_a_wide_vertex(monkeypatch):
    # the hub-100 centre has 400 pairs and 100 sphere-1 values, so a block
    # holds 163 of the full rows (two temporaries per pair) and 1310 of the
    # sphere-1 rows
    ev = LocalEvaluator(tree_hub(100), 0)
    sampled = _sampled_rows(ev, derive_stream(3, 0), 2000)
    full = ev.fill(sampled[:1000])
    assert len(full) > cde_mod._RATIO_CHUNK * cde_mod._RATIO_PAIRS // len(ev.pair_y)
    assert len(sampled) > cde_mod._RATIO_CHUNK * cde_mod._RATIO_PAIRS // ev.degree
    blocks = _batch_ratios(ev, full, 2.0), _reduced_ratios(ev, sampled, 2.0)
    # one block of every row
    monkeypatch.setattr(cde_mod, "_RATIO_CHUNK", len(sampled) * len(ev.pair_y))
    assert np.array_equal(blocks[0], _batch_ratios(ev, full, 2.0))
    assert np.array_equal(blocks[1], _reduced_ratios(ev, sampled, 2.0))
    assert np.array_equal(blocks[1], MoveScorer(ev.balls, [len(sampled)]).ratios(sampled.ravel(), 2.0))


def _trigger_cases():
    rng = np.random.default_rng(13)
    cases = {
        "ties": np.array([1.0] * 30 + [0.5] * 30 + [0.25, 0.5, 0.25] * 10),
        "inf": np.array([np.inf] * 15 + [3.0, np.inf, 2.0, 1.0] * 5),
        "fewer_than_10": np.array([3.0, 1.0, 2.0]),
        "empty": np.zeros(0),
        "cut_at_cap": np.linspace(1.0, 0.0, 3 * _REFINE_CAP),
        "integers": rng.integers(0, 40, size=5000).astype(float),
    }
    for i, (g, x) in enumerate([(petersen(), 0), (star(8), 0), (tree_hub(6), 0)]
                               + [(girth5_corpus()[k], k % 5) for k in (0, 7, 20)]):
        ev = LocalEvaluator(g, x)
        raw = _sampled_rows(ev, derive_stream(i, x), 10000)
        cases[f"sampled_{i}"] = _reduced_ratios(ev, raw, 2.0)
    return cases


def test_trigger_rows_match_heap_walk():
    for name, ratios in _trigger_cases().items():
        assert _trigger_rows(ratios) == heap_trigger_rows(ratios), name
    assert len(_trigger_rows(np.linspace(1.0, 0.0, 3 * _REFINE_CAP))) == _REFINE_CAP


def test_sampled_rows_are_bit_identical_to_the_expression():
    for g, x in [(star(3), 0), (petersen(), 4), (tree_hub(40), 0), (path(5), 0)]:
        ev = LocalEvaluator(g, x)
        for seed, samples in ((0, 1), (5, 777), (2**64 - 1, 3000)):
            stream = derive_stream(seed, x)
            assert np.array_equal(
                _sampled_rows(ev, stream, samples), expression_sampled_rows(ev, stream, samples)
            )


@pytest.mark.parametrize("p", [1, 3, 4, 14, 100])
def test_structured_rows_match_listed_rows(p):
    for g, x in [(tree_hub(p), 0), (star(p), 0) if p > 1 else (path(4), 0)]:
        ev = LocalEvaluator(g, x)
        assert ev.degree == p
        for seed in (0, 9):
            stream = derive_stream(seed, x)
            assert np.array_equal(_structured_rows(ev, stream), listed_structured_rows(ev, stream))
    for g in small_mixed_corpus()[:4]:   # 4-cycles: a distance-2 vertex with two parents
        for x in range(g.vertex_count):
            ev = LocalEvaluator(g, x)
            assert np.array_equal(
                _structured_rows(ev, derive_stream(1, x)),
                listed_structured_rows(ev, derive_stream(1, x)),
            )


def test_hub_center_estimate_memory_is_bounded():
    # degree-100 center, 401-wide 2-ball, default sample count: scored by
    # delta over sphere 1 the search traces ~40 MiB; building every
    # proposal row as a full row peaks near 1.3 GB of RSS here
    g = tree_hub(100)
    tracemalloc.start()
    try:
        est = cde_estimate(g, 0, 2.0, samples=10000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20, f"peak {peak / 2**20:.0f} MiB"
    assert est.sampled_min >= -100 / 2.0 - 1.0


def test_hub_center_estimate_peak_is_one_sample_array():
    # the 10^4 sampled rows are 101 draws wide (7.7 MiB), built in the
    # draws' array and dropped before the structured scan, whose 8000 x 401
    # rows (24.5 MiB) are the peak; its configurations are made only up to
    # the cap
    g = tree_hub(100)
    tracemalloc.start()
    try:
        cde_estimate(g, 0, 2.0, samples=10000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_dense_vertex_estimate_memory_is_bounded():
    # each row at a vertex of K_40 holds 39 sphere-1 values and 1482
    # triangle pairs; ratio blocks of 2048 rows, sized by the sphere-1
    # values alone, traced 261 MiB, and blocks sized by the terms a row
    # scores trace under 19 MiB
    tracemalloc.start()
    try:
        cde_estimate(complete(40), 0, 2.0, samples=10000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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
        f = est.function
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
