"""Falsification search for the exponential-type curvature condition.

The condition at a vertex x with dimension n requires, for every positive
f with Df(x) < 0,

    G_2(f)(x) - G(f, G(f)/f)(x) >= (1/n)(Df)^2(x) + K * G(f)(x).

Unlike the plain curvature-dimension inequality this is not quadratic in f
(the G(f, G(f)/f) term), so no finite eigenproblem captures the optimal K.
The estimator therefore searches for violating functions. With f(x) = 1
by scale invariance and the sphere-1 values t fixed, the numerator is
smallest at a closed-form sphere-2 assignment f(z)* (see localforms), so
the search runs over sphere 1 only and scores each candidate t by the
reduced ratio R(t), the ratio of its filled function (+inf below
localforms.GRADIENT_FLOOR, where G(f)(x) is too small to re-verify the
ratio definitionally): seeded random sampling of t (every draw is mapped
to a feasible function, so none is rejected), pattern-search refinement
of the best candidates, plus a structured scan of the family
f(z) = f(y)^2 over the whole 2-ball, whose full rows are scored by
localforms.LocalEvaluator.ratios. A refinement move changes one
sphere-1 value, so it is scored by delta in O(1) on a girth-5 ball
(localforms.MoveScorer) rather than by re-evaluating a whole row.
Sampling and the scans run once per signature at tree 2-balls (below)
and once per vertex elsewhere; the refinement runs over the
candidates of many consecutive vertices at once, in one lockstep descent
per batch of rows of mixed widths, scored over one ``graph.Balls`` of the
batch's vertices as the CD batches are, so its numpy call count does not
grow with the number of vertices; candidates that stop leave the rows it
scores. The result is an upper bound on the true pointwise infimum; "no
violation found" is the acceptance outcome, a found violation is
re-verified definitionally (``cde_ratio``, which reads none of the closed
local formulas) before being reported; the witness is the best candidate
with sphere 2 filled by f(z)*, built at full length on first read.

Sampling is driven by counter-mode SplitMix64 (see rng.py): sample i is a
pure function of (seed, signature, i) at a vertex whose 2-ball is a tree
(every vertex of girth >= 5), the signature being d_x and the sorted
neighbour degrees, over the layout of ``graph.Balls``, and of
(seed, vertex, i) elsewhere. So estimates are deterministic, do not
depend on vertex labels at girth >= 5, and are monotone in the sample
count (the candidate set for a larger count is a superset).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from typing import NamedTuple

import numpy as np

from .cd import _check_dimension
from .graph import (
    Balls, Graph, _BallWitness, _ranges, _two_paths, batches, check_function, _check_vertices,
)
from .localforms import LocalEvaluator, MoveScorer
from .operators import NonpositiveValueError, gamma, gamma2, gamma_f_ratio, laplacian
from .rng import counter_uniforms, derive_stream

CDE_CHECK_TOL = 1e-12
FEASIBILITY_MARGIN = 1e-9

_LOG_HALF_RANGE = 3.0            # sampled values are exp(uniform[-3, 3])
_GRID = tuple(round(0.1 * k, 10) for k in range(1, 20))   # 0.1 .. 1.9
_STRUCTURED_CAP = 8000
_STRUCTURED_STREAM_TAG = 0x5354
_TOP_K = 10
_REFINE_CAP = 512
_DESCENT_SWEEPS = 40
_DESCENT_MIN_STEP = 1e-3
# a descent move must beat its candidate's ratio by more than this, relative
# to max(1, |ratio|): the scorer's rounding error is a few 1e-13 of that
_ACCEPT_TOL = 1e-12
# rows per ratio block, fewer above _RATIO_PAIRS temporaries per row (2 per pair of a
# full row, 1 per term of a sphere-1 row): a block holds at most _RATIO_CHUNK x _RATIO_PAIRS
_RATIO_CHUNK = 2048
_RATIO_PAIRS = 64
_DESCENT_BATCH = 1 << 13   # terms (rows x terms per row) per lockstep descent


class InfeasibleFunctionError(ValueError):
    """Candidate function violates a feasibility precondition."""

    def __init__(self, precondition: str, detail: str):
        super().__init__(f"{precondition}: {detail}")
        self.precondition = precondition


@dataclass(frozen=True, eq=False)
class CdeEstimate(_BallWitness):
    """Sampled upper bound on the pointwise infimum of the ratio, with the
    feasible function that attains it, held on the ball columns of
    ``graph.Balls``; off the ball the function is 1.0 (positive, and
    irrelevant by locality).
    """

    OFF_BALL = 1.0

    sampled_min: float
    samples_used: int
    seed: int


def cde_ratio(g: Graph, x: int, n: float, f) -> float:
    """(G_2(f) - G(f, G(f)/f) - (1/n)(Df)^2)(x) / G(f)(x).

    Feasibility: f > 0 on the 2-ball of x, Df(x) < 0, G(f)(x) > 0.
    Computed from the definitional operators alone, none of the closed
    local formulas the search scores candidates with.
    """
    n = _check_dimension(n)
    vals = check_function(g, f)
    try:   # gamma_f_ratio checks that f > 0 on the 2-ball
        ratio_term = gamma_f_ratio(g, vals, x)
    except NonpositiveValueError as exc:
        raise InfeasibleFunctionError("positivity", f"f({exc.vertex}) = {exc.value}") from None
    lap = laplacian(g, vals, x)
    if not lap < 0.0:
        raise InfeasibleFunctionError("laplacian_sign", f"Df(x) = {lap} is not < 0")
    den = gamma(g, vals, vals, x)
    if not den > 0.0:
        raise InfeasibleFunctionError("zero_gradient", "G(f)(x) = 0")
    num = gamma2(g, vals, x) - ratio_term - lap * lap / n
    return num / den


def cde_check(g: Graph, x: int, n: float, K: float, f) -> bool:
    """Does the exponential-type inequality hold at x for this feasible f?"""
    return cde_ratio(g, x, n, f) >= K - CDE_CHECK_TOL


def cde_estimate(
    g: Graph, x: int, n: float = 2.0, samples: int = 10000, seed: int = 0
) -> CdeEstimate:
    """Search for low-ratio feasible functions at x; deterministic in seed.

    The batch of one of ``cde_estimates``, which gives the same estimate
    for x bit for bit whatever other vertices it searches alongside.
    """
    (estimate,) = cde_estimates(g, [x], n, samples, seed)
    return estimate


def cde_estimates(
    g: Graph, vertices: Iterable[int], n: float = 2.0, samples: int = 10000, seed: int = 0
) -> Iterator[CdeEstimate]:
    """The estimate at each of these vertices, yielded in their order.

    At each vertex, draws `samples` feasible functions: center fixed to 1
    by scale invariance, sphere-1 values log-uniform in [e^-3, e^3] and
    scaled down, where needed, to a mean at or below a drawn ceiling in
    (0, 1), so every draw has Df(x) < 0, and sphere 2 at its closed-form
    best f(z)*. Every sample that enters the running top-10 is refined by
    projected pattern search over sphere 1, and the structured family
    f(z) = f(parent y)^2 is always scanned over a grid of sphere-1 values.
    The returned minimum is the smallest of the sampled and the refined
    reduced ratios and the structured ratios, each a fixed function of its
    row, so it never increases when `samples` grows (counter-mode draws
    make the candidate set a superset).

    At a vertex whose 2-ball is a tree (girth >= 5 there) the search is
    a function of its signature, d_x and the neighbour degrees in sphere-1
    order (sorted, see ``graph.Balls``): its stream is the seed with the
    signature folded in by ``derive_stream``, and each signature is
    searched once per call, at its first vertex. Every other vertex of
    that signature takes that vertex's minimum, and its function mapped
    onto its own ball: sphere 1 column by column, and each distance-2
    vertex at the value of its parent's children. So equal signatures
    give equal bits, and relabelling the graph only permutes the
    estimates. Any other vertex draws from ``derive_stream(seed, x)``.

    Sampling and the scans run per vertex searched; the refinement runs
    in batches of consecutive vertices of up to ``_DESCENT_BATCH`` scored
    terms (a vertex that takes an earlier search counts its columns), one
    lockstep descent per batch. A candidate's path depends
    only on its own start, so the estimates do not depend on the batching,
    and ``cde_estimate`` gives each vertex's estimate bit for bit.
    Arguments are checked before the first estimate is requested.
    """
    n = _check_dimension(n)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    vertices = _check_vertices(g, list(vertices))
    found: dict[tuple, tuple] = {}
    return chain.from_iterable(
        _refine(b, g, n, samples, seed, found)
        for b in batches(_searches(g, vertices, n, samples, seed), _DESCENT_BATCH))


class _Copy(NamedTuple):
    """What a vertex that takes an earlier vertex's search keeps of its
    ball: the vertex behind each column and each sphere-2 column's parent."""

    center: int
    vertices: np.ndarray
    parent: np.ndarray


def _searches(g: Graph, vertices: np.ndarray, n: float, samples: int, seed: int) -> Iterator[tuple]:
    """((ball, signature, search), size) per vertex, in order. The
    signature is that of a tree 2-ball, else None. At a vertex whose
    signature an earlier vertex searched, the ball is a ``_Copy`` and the
    search None; elsewhere the ball is the vertex's ``LocalEvaluator`` and
    the search ``_search`` there. The size is what a descent batch holds
    for the vertex: the terms its descent scores (starts x terms per row),
    or a copy's columns. The signatures are read from one ``Balls`` per
    group of vertices of up to ``_DESCENT_BATCH`` 2-paths."""
    seen = set()
    for xs in batches(zip(vertices.tolist(), _two_paths(g, vertices)), _DESCENT_BATCH):
        b = Balls(g, xs)
        s1_end, s2_count = b.s1_first + b.degree, b.width - 1 - b.degree
        s1_degree = b.s1_degree.tolist()
        spans = zip(b.s1_first.tolist(), s1_end.tolist(), b.s2_first.tolist(),
                    (b.s2_first + s2_count).tolist())
        for x, is_tree, (s1, e1, s2, e2) in zip(xs, b.tree.tolist(), spans):
            key = (e1 - s1, *s1_degree[s1:e1]) if is_tree else None
            if key in seen:
                copy = _Copy(x, np.concatenate(([x], b.sphere1[s1:e1], b.sphere2[s2:e2])),
                             b.parent[s2:e2].copy())
                yield (copy, key, None), len(copy.vertices)
                continue
            ev = LocalEvaluator(g, x)
            if key is None:
                stream = derive_stream(seed, x)
            else:
                seen.add(key)
                stream = reduce(derive_stream, key, seed)
            search = _search(ev, n, samples, stream)
            yield (ev, key, search), len(search[0]) * ev.row_terms()


def _search(ev: LocalEvaluator, n: float, samples: int, stream: int):
    """Sample and scan at ev's centre, drawing from stream. Returns
    (descent starts as sphere-1 rows, (best value, its full row) so far).
    The best is finite: the scan holds the uniform rows f(y) = v < 1,
    f(z) = v^2, whose G(f)(x) = (1 - v)^2 / 2 >= 0.005 is above the
    gradient floor."""
    sampled = _sampled_rows(ev, stream, samples)
    ratios = _reduced_ratios(ev, sampled, n)
    # refine every sample that enters the running top-10
    starts = sampled[_trigger_rows(ratios)]
    best = _better((np.inf, None), ratios, sampled, ev.fill)
    del sampled, ratios
    structured = _structured_rows(ev, stream)
    best = _better(best, _batch_ratios(ev, structured, n), structured)
    return starts, best


def _better(best: tuple, ratios: np.ndarray, rows: np.ndarray, fill=np.copy) -> tuple:
    """(value, full row) of the smallest ratio where it is below best's
    value, else best; fill makes full rows of rows."""
    if len(ratios):
        j = int(np.argmin(ratios))
        if ratios[j] < best[0]:
            return float(ratios[j]), fill(rows[j : j + 1])[0]
    return best


def _sampled_rows(ev: LocalEvaluator, stream: int, samples: int) -> np.ndarray:
    """The sampled sphere-1 rows, feasible by construction (Df(x) < 0),
    built in the array of their draws.

    Row i reads counters i*(d_x + 1) .. (i+1)*(d_x + 1) - 1; the first
    draws a ceiling c in (0, 1) for the sphere-1 mean, the others draw the
    values exp(3 (2u - 1)), computed in place operation by operation.
    """
    raw = counter_uniforms(stream, 0, samples * (ev.degree + 1)).reshape(samples, -1)
    ceiling = (1.0 - raw[:, 0]) ** (1.0 / ev.degree) * (1.0 - FEASIBILITY_MARGIN)
    raw *= 2.0
    raw -= 1.0
    raw *= _LOG_HALF_RANGE
    np.exp(raw, out=raw)
    s1 = raw[:, 1:]
    s1 *= np.minimum(1.0, ceiling / s1.mean(axis=1))[:, None]
    return s1


def _refine(
    batch: list[tuple], g: Graph, n: float, samples: int, seed: int, found: dict
) -> Iterator[CdeEstimate]:
    """Descend every start of the batch's searches in lockstep, then yield
    each vertex's estimate. found maps each signature searched so far to
    its minimum and its function at the vertex searched: the centre and
    sphere-1 values, and by sphere-1 column the value of that column's
    distance-2 children (on a tree ball they depend on their parent
    alone); a ``_Copy`` takes them, its searched vertex being earlier in
    this batch or in an earlier one."""
    evs = [ev for ev, _, search in batch if search]
    starts = [search[0] for _, _, search in batch if search]
    descents = iter(_descend(evs, starts, n) if evs else ())
    for ball, key, search in batch:
        if search:
            value, row = _better(search[1], *next(descents), ball.fill)
            if key is not None:
                child = np.empty(1 + ball.degree)
                child[ball.balls.parent] = row[ball.s2_cols]
                found[key] = value, row[: 1 + ball.degree], child
        else:
            value, head, child = found[key]
            row = np.concatenate([head, child[ball.parent]])
        yield CdeEstimate(
            vertex=ball.center,
            dimension_n=n,
            sampled_min=value,
            samples_used=samples,
            seed=seed,
            vertex_count=g.vertex_count,
            ball_vertices=ball.vertices,
            ball_values=row,
        )


def _trigger_rows(ratios: np.ndarray) -> list[int]:
    """Rows that enter the running top-``_TOP_K`` of ratios, in order,
    at most ``_REFINE_CAP`` of them.

    Prefix-stable, so a larger sample count refines a superset: the
    trigger sequence of a shorter run is a prefix of a longer run's, which
    keeps the cap monotonicity-safe. Blocks of doubling length are
    prefiltered against the 10th-smallest ratio before them; that value
    only falls, so a row not below it never enters, and only the rows
    below it go through the heap.
    """
    heap: list[float] = []   # max-heap via negation, the 10 smallest so far
    rows: list[int] = []
    start, length = 0, _TOP_K
    while start < len(ratios) and len(rows) < _REFINE_CAP:
        block = ratios[start : start + length]
        hits = np.flatnonzero(block < -heap[0]) if len(heap) == _TOP_K else range(len(block))
        for i in hits:
            r = float(block[i])
            if len(heap) < _TOP_K:
                heapq.heappush(heap, -r)
            elif r < -heap[0]:
                heapq.heappushpop(heap, -r)
            else:
                continue
            rows.append(start + int(i))
        start += length
        length *= 2
    return rows[:_REFINE_CAP]


def _batch_ratios(ev: LocalEvaluator, rows: np.ndarray, n: float) -> np.ndarray:
    """``LocalEvaluator.ratios`` of each strictly positive full row, in
    blocks of _RATIO_CHUNK rows, fewer (at least one) above _RATIO_PAIRS / 2
    pairs; rows are independent, so the blocks change no bit."""
    chunk = max(1, _RATIO_CHUNK * _RATIO_PAIRS // max(2 * len(ev.pair_y), _RATIO_PAIRS))
    out = np.empty(len(rows))
    for i in range(0, len(rows), chunk):
        out[i : i + chunk] = ev.ratios(rows[i : i + chunk], n)
    return out


def _reduced_ratios(ev: LocalEvaluator, rows: np.ndarray, n: float) -> np.ndarray:
    """R of each sphere-1 row, over blocks of _RATIO_CHUNK rows, fewer (at
    least one) above _RATIO_PAIRS terms per row, all scored by one scorer: a
    short last block is the last full-length window, its first rows scored
    again. Rows are independent, so the blocks change no bit."""
    chunk = min(len(rows), max(1, _RATIO_CHUNK * _RATIO_PAIRS // max(ev.row_terms(), _RATIO_PAIRS)))
    out = np.empty(len(rows))
    scorer = MoveScorer(ev.balls, [chunk])
    for i in range(0, len(rows), max(chunk, 1)):
        i = min(i, len(rows) - chunk)
        out[i : i + chunk] = scorer.ratios(np.ravel(rows[i : i + chunk]), n)
    return out


def _structured_rows(ev: LocalEvaluator, stream: int) -> np.ndarray:
    """Feasible rows of the family f(center)=1, f(y)=t_y, f(z)=t_parent^2.

    Sphere-1 assignments come from the fixed grid 0.1..1.9. Degrees <= 3
    get the full grid product; larger degrees get all-uniform plus
    single-deviation configurations plus a fixed seeded block of random
    grid configurations (independent of the sample count), cut at
    ``_STRUCTURED_CAP`` configurations before any is built.
    """
    p = len(ev.s1_cols)
    grid = np.array(_GRID)
    k = len(grid)
    if k**p <= _STRUCTURED_CAP:
        mesh = np.stack(
            [a.ravel() for a in np.meshgrid(*([grid] * p), indexing="ij")], axis=1
        )
    else:
        # deviation q: slot q // (k (k - 1)) takes grid value i, the rest
        # grid value j != i, for (i, j) in row-major order
        deviations = min(p * k * (k - 1), _STRUCTURED_CAP - k)
        slot, pair = np.divmod(np.arange(deviations), k * (k - 1))
        i, j = np.divmod(pair, k - 1)
        j += j >= i
        mesh = np.empty((k + deviations, p))
        mesh[:k] = grid[:, None]
        mesh[k:] = grid[j][:, None]
        mesh[k + np.arange(deviations), slot] = grid[i]
        room = _STRUCTURED_CAP - len(mesh)
        if room > 0:
            sub = derive_stream(stream, _STRUCTURED_STREAM_TAG)
            u = counter_uniforms(sub, 0, room * p).reshape(room, p)
            mesh = np.concatenate([mesh, grid[np.minimum((u * k).astype(int), k - 1)]])

    feasible = mesh[mesh.sum(axis=1) < p]   # Df(x) < 0
    rows = np.empty((len(feasible), ev.width))
    rows[:, 0] = 1.0
    rows[:, ev.s1_cols] = feasible
    if len(ev.s2_cols):
        rows[:, ev.s2_cols] = rows[:, ev.balls.parent] ** 2
    return rows


def _descend(
    evs: list[LocalEvaluator], starts: list[np.ndarray], n: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Projected pattern search over sphere 1, for the candidates of many
    vertices of one graph in lockstep: starts[i] holds the start rows at
    evs[i], each the sphere-1 values of a function with f(x) = 1 and
    sphere 2 at f(z)*.

    Each sweep proposes a multiplicative up/down move of every sphere-1
    coordinate of every candidate, takes a candidate's best move (the
    first in column order, up before down, among equal scores) where it
    beats the candidate's ratio as it stands, evaluated in full from the
    row in the same sweep, by more than ``_ACCEPT_TOL`` relative, and
    otherwise halves that candidate's step. Positivity and Df(x) < 0 are
    maintained by clamping with margin 1e-9. Proposals are scored by delta
    over the ragged rows of all vertices at once, O(1) each on a girth-5
    ball (see ``localforms.MoveScorer``), so a sweep costs a handful of
    numpy calls whatever the number of vertices. A candidate whose step
    fell below the floor no longer moves; once the live candidates are at
    most half of the rows scored, later sweeps score the live rows alone,
    with a scorer of their own on the same ``Balls`` (a row's scores depend
    only on its own entries, so this changes no bit). Returns (values,
    rows) per vertex from the scorer of every start, the values being R of
    the rows, so they never exceed those of the starts. Deterministic; a
    candidate's path depends only on its own start.
    """
    balls = Balls(evs[0].graph, [ev.center for ev in evs])
    full = scorer = MoveScorer(balls, [len(s) for s in starts])
    flat = current = np.concatenate([np.ravel(s) for s in starts]).astype(np.float64)
    entry = np.arange(len(flat))   # where the scored entries lie in flat
    step = np.full(len(scorer.first), 0.5)
    for _ in range(_DESCENT_SWEEPS):
        live = step >= _DESCENT_MIN_STEP
        if not live.any():
            break
        if 2 * np.count_nonzero(live) <= len(live):   # score the live rows only
            of = scorer.vertex_of[live]
            keep, _ = _ranges(scorer.first[live], scorer.degrees[of])
            flat[entry] = current
            entry, current, step = entry[keep], current[keep], step[live]
            scorer = MoveScorer(balls, np.bincount(of, minlength=len(evs)))
            live = live[live]
        _sweep(scorer, current, step, live, n)
    flat[entry] = current
    values = np.split(full.ratios(flat, n), np.cumsum(full.counts)[:-1])
    return list(zip(values, full.split(flat)))


def _sweep(
    scorer: MoveScorer, current: np.ndarray, step: np.ndarray, live: np.ndarray, n: float
) -> None:
    """One sweep of ``_descend`` over the rows of the scorer: moves the
    live rows of current that improve and halves the step of the others,
    in place. Its temporaries are freed before the next sweep scores."""
    moved, values, _, _, unmoved = _score_moves(scorer, current, step, n)
    # slot 2 m + k is the k-th move of coordinate m: per row, column
    # order, up before down
    slots = values.T.ravel()
    seg = 2 * scorer.first
    best = np.minimum.reduceat(slots, seg)
    hit = slots == np.repeat(best[scorer.row_of], 2)
    pick = np.minimum.reduceat(np.where(hit, np.arange(len(slots)), len(slots)), seg)
    gain = _ACCEPT_TOL * np.maximum(1.0, np.abs(unmoved))
    gain[np.isinf(gain)] = 0.0   # any finite move improves an infinite ratio
    improved = live & (best + gain < unmoved)
    m, k = np.divmod(pick[improved], 2)
    current[m] = moved[k, m]
    step[live & ~improved] *= 0.5


def _score_moves(
    scorer: MoveScorer, current: np.ndarray, step: np.ndarray, n: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every clamped up/down move of every sphere-1 coordinate of every
    row of the scorer, scored; step holds each row's step.

    Returns (moved, values, dead, lap, unmoved): the first four of shape
    (2, M), M the coordinates in the scorer's order, up at k = 0 and down
    at k = 1; the new value of the coordinate; its ratio, +inf where the
    move is dead or leaves Df(x) >= 0; the dead flags; Df(x) after the
    move; and the ratio of each row before any move.
    """
    row = scorer.row_of
    up = 1.0 + step[row]
    moved = np.maximum(np.stack([current * up, current / up]), FEASIBILITY_MARGIN)
    # clamp so Df(x) <= -margin: shrink the moved coordinate by the budget
    # excess
    budget = scorer.row_degree * (1.0 - FEASIBILITY_MARGIN)
    others = np.add.reduceat(current, scorer.first)[row] - current
    moved -= np.maximum(others + moved - budget[row], 0.0)
    dead = moved <= FEASIBILITY_MARGIN
    moved = np.maximum(moved, FEASIBILITY_MARGIN)
    ratio, lap, unmoved = scorer.moves(current, moved, n)
    values = np.where(dead | ~(lap < 0.0), np.inf, ratio)
    return moved, values, dead, lap, unmoved
