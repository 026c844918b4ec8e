"""Falsification search for the exponential-type curvature condition.

The condition at a vertex x with dimension n requires, for every positive
f with Df(x) < 0,

    G_2(f)(x) - G(f, G(f)/f)(x) >= (1/n)(Df)^2(x) + K * G(f)(x).

Unlike the plain curvature-dimension inequality this is not quadratic in f
(the G(f, G(f)/f) term), so no finite eigenproblem captures the optimal K.
The estimator therefore searches for violating functions: seeded random
sampling over the 2-ball (every draw is mapped to a feasible function, so
none is rejected), pattern-search refinement of the best candidates,
plus a structured scan of the family f(z) = f(y)^2 (the distance-2
assignment that minimizes the per-neighbor block). A refinement move
changes one coordinate, so it is scored by delta over the pairs that
coordinate touches (localforms.MoveTable) rather than by re-evaluating a
whole row; time and memory per sweep grow with the number of pairs, not
with their square. The result is an
upper bound on the true pointwise infimum; "no violation found" is the
acceptance outcome, a found violation is re-verified definitionally
before being reported.

Sampling is driven by counter-mode SplitMix64 (see rng.py): sample i is a
pure function of (seed, vertex, i), so estimates are deterministic,
parallelize per vertex, and are monotone in the sample count (the
candidate set for a larger count is a superset).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .cd import _check_dimension
from .graph import Graph, VertexFunction, ball, check_function, _check_vertex
from .localforms import LocalEvaluator, MoveTable
from .operators import gamma2, gamma_f_ratio, gamma_local, laplacian
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
_RATIO_CHUNK = 2048   # rows per ratio call, bounding its temporaries


class InfeasibleFunctionError(ValueError):
    """Candidate function violates a feasibility precondition."""

    def __init__(self, precondition: str, detail: str):
        super().__init__(f"{precondition}: {detail}")
        self.precondition = precondition


class NoFeasibleSampleError(RuntimeError):
    """The search produced no candidate with a finite ratio."""


@dataclass(frozen=True)
class CdeSample:
    """A feasible test function together with its curvature ratio."""

    vertex: int
    function: VertexFunction
    ratio: float


@dataclass(frozen=True)
class CdeEstimate:
    """Sampled upper bound on the pointwise infimum of the ratio."""

    vertex: int
    dimension_n: float
    sampled_min: float
    argmin: CdeSample
    samples_used: int
    seed: int


def cde_ratio(g: Graph, x: int, n: float, f) -> float:
    """(G_2(f) - G(f, G(f)/f) - (1/n)(Df)^2)(x) / G(f)(x).

    Feasibility: f > 0 on the 2-ball of x, Df(x) < 0, G(f)(x) > 0.
    Computed from the scalar operator primitives.
    """
    n = _check_dimension(n)
    vals = check_function(g, f)
    _check_vertex(g, x)
    b = ball(g, x, 2)
    for v in (x,) + b.coordinates:
        if not vals[v] > 0.0:
            raise InfeasibleFunctionError("positivity", f"f({v}) = {vals[v]}")
    lap = laplacian(g, vals, x)
    if not lap < 0.0:
        raise InfeasibleFunctionError("laplacian_sign", f"Df(x) = {lap} is not < 0")
    den = gamma_local(g, vals, x)
    if not den > 0.0:
        raise InfeasibleFunctionError("zero_gradient", "G(f)(x) = 0")
    num = gamma2(g, vals, x) - gamma_f_ratio(g, vals, x) - lap * lap / n
    return num / den


def cde_check(g: Graph, x: int, n: float, K: float, f) -> bool:
    """Does the exponential-type inequality hold at x for this feasible f?"""
    return cde_ratio(g, x, n, f) >= K - CDE_CHECK_TOL


def cde_estimate(
    g: Graph, x: int, n: float = 2.0, samples: int = 10000, seed: int = 0
) -> CdeEstimate:
    """Search for low-ratio feasible functions at x; deterministic in seed.

    Draws `samples` feasible functions: center fixed to 1 by scale
    invariance, other 2-ball values log-uniform in [e^-3, e^3], and the
    sphere-1 values scaled down, where needed, to a mean at or below a
    drawn ceiling in (0, 1), so every draw has Df(x) < 0. Refines every
    sample that enters the running top-10 by projected pattern search, and
    always scans the structured family f(z) = f(parent y)^2 over a grid of
    sphere-1 values. The returned minimum never increases when `samples`
    grows (counter-mode draws make the candidate set a superset).
    """
    n = _check_dimension(n)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_vertex(g, x)

    ev = LocalEvaluator(g, x)
    width = ev.width
    stream = derive_stream(seed, x)

    # --- sampling, feasible by construction (Df(x) < 0) ---------------------
    # row i reads counters i*width .. (i+1)*width - 1; column 0 draws a
    # ceiling c in (0, 1) for the sphere-1 mean, the others draw the values
    u = counter_uniforms(stream, 0, samples * width).reshape(samples, width)
    raw = np.exp(_LOG_HALF_RANGE * (2.0 * u - 1.0))
    s1 = raw[:, ev.s1_cols]
    ceiling = (1.0 - u[:, 0]) ** (1.0 / ev.degree) * (1.0 - FEASIBILITY_MARGIN)
    raw[:, ev.s1_cols] = s1 * np.minimum(1.0, ceiling / s1.mean(axis=1))[:, None]
    raw[:, 0] = 1.0
    del u, s1   # the draws and the sphere-1 copy are as large as raw
    raw_ratios = _chunked_ratios(ev, raw, n)

    # --- structured family --------------------------------------------------
    structured = _structured_rows(ev, stream)
    structured_ratios = _chunked_ratios(ev, structured, n)

    # --- refinement: every sample entering the running top-10 ---------------
    # (prefix-stable trigger, so larger sample counts refine a superset; the
    # trigger sequence of a shorter run is a prefix of a longer run's, which
    # keeps the count cap monotonicity-safe)
    heap: list[float] = []   # max-heap via negation, the 10 smallest so far
    trigger_rows: list[int] = []
    for i, r in enumerate(raw_ratios.tolist()):
        if len(heap) < _TOP_K:
            heapq.heappush(heap, -r)
            trigger_rows.append(i)
        elif r < -heap[0]:
            heapq.heappushpop(heap, -r)
            trigger_rows.append(i)
    trigger_rows = trigger_rows[:_REFINE_CAP]

    best_value = np.inf
    best_row: np.ndarray | None = None
    for source_vals, source_rows in (
        (raw_ratios, raw),
        (structured_ratios, structured),
    ):
        if len(source_vals):
            j = int(np.argmin(source_vals))
            if source_vals[j] < best_value:
                best_value = float(source_vals[j])
                best_row = source_rows[j].copy()
    if trigger_rows:
        refined_vals, refined_rows = _descend(ev, raw[trigger_rows], n)
        j = int(np.argmin(refined_vals))
        if refined_vals[j] < best_value:
            best_value = float(refined_vals[j])
            best_row = refined_rows[j].copy()

    if best_row is None or not np.isfinite(best_value):
        raise NoFeasibleSampleError(f"no feasible candidate at vertex {x}")

    # pad with 1.0 outside the 2-ball: positive, and irrelevant by locality
    full = ev.to_vertex_function_values(best_row, fill=1.0)
    sample = CdeSample(vertex=x, function=VertexFunction(full), ratio=best_value)
    return CdeEstimate(
        vertex=x,
        dimension_n=n,
        sampled_min=best_value,
        argmin=sample,
        samples_used=samples,
        seed=seed,
    )


def _batch_ratios(ev: LocalEvaluator, rows: np.ndarray, n: float) -> np.ndarray:
    """Ratio for each row; +inf where the denominator degenerates."""
    if len(rows) == 0:
        return np.zeros(0)
    den = ev.gamma(rows)
    good = den > 0.0
    safe = np.where(good, den, 1.0)
    return np.where(good, ev.cde_numerator(rows, n) / safe, np.inf)


def _chunked_ratios(ev: LocalEvaluator, rows: np.ndarray, n: float) -> np.ndarray:
    """_batch_ratios over blocks of _RATIO_CHUNK rows; rows are independent,
    so only the size of the temporaries changes."""
    if len(rows) <= _RATIO_CHUNK:
        return _batch_ratios(ev, rows, n)
    starts = range(0, len(rows), _RATIO_CHUNK)
    return np.concatenate([_batch_ratios(ev, rows[i : i + _RATIO_CHUNK], n) for i in starts])


def _structured_rows(ev: LocalEvaluator, stream: int) -> np.ndarray:
    """Feasible rows of the family f(center)=1, f(y)=t_y, f(z)=t_parent^2.

    Sphere-1 assignments come from the fixed grid 0.1..1.9. Degrees <= 3
    get the full grid product; larger degrees get all-uniform plus
    single-deviation configurations plus a fixed seeded block of random
    grid configurations (independent of the sample count).
    """
    p = len(ev.s1_cols)
    grid = np.array(_GRID)
    k = len(grid)
    if k**p <= _STRUCTURED_CAP:
        mesh = np.stack(
            [a.ravel() for a in np.meshgrid(*([grid] * p), indexing="ij")], axis=1
        )
    else:
        configs = [np.full(p, t) for t in grid]
        for slot in range(p):
            for t_dev in grid:
                for t_rest in grid:
                    if t_dev == t_rest:
                        continue
                    row = np.full(p, t_rest)
                    row[slot] = t_dev
                    configs.append(row)
        room = _STRUCTURED_CAP - len(configs)
        if room > 0:
            sub = derive_stream(stream, _STRUCTURED_STREAM_TAG)
            u = counter_uniforms(sub, 0, room * p).reshape(room, p)
            configs.extend(grid[np.minimum((u * k).astype(int), k - 1)])
        mesh = np.array(configs[:_STRUCTURED_CAP])

    feasible = mesh[mesh.sum(axis=1) < p]   # Df(x) < 0
    rows = np.empty((len(feasible), ev.width))
    rows[:, 0] = 1.0
    rows[:, ev.s1_cols] = feasible
    if len(ev.s2_cols):
        sphere1 = set(ev.ball.sphere1)
        for z, col in zip(ev.ball.sphere2, ev.s2_cols):
            parent = min(v for v in ev.graph.adjacency[z] if v in sphere1)
            parent_col = ev.ball.index[parent] + 1
            rows[:, col] = rows[:, parent_col] ** 2
    return rows


def _descend(
    ev: LocalEvaluator, starts: np.ndarray, n: float
) -> tuple[np.ndarray, np.ndarray]:
    """Projected pattern search over a batch of candidates in lockstep.

    Each sweep proposes a multiplicative up/down move of every non-center
    coordinate of every candidate, accepts a candidate's best improving
    move, and otherwise halves that candidate's step. Positivity and
    Df(x) < 0 are maintained by clamping with margin 1e-9. Proposals are
    scored by delta (see ``localforms.MoveTable``), so a sweep costs
    O(candidates x pairs) time and memory; a move is accepted when its
    score is below the ratio of the candidate as it stands, evaluated in
    full from the row in the same sweep. The returned values are
    ``_batch_ratios`` of the returned rows, so they never exceed those of
    the starts beyond rounding. Deterministic; a candidate's path depends
    only on its own start.
    """
    current = np.array(starts, dtype=np.float64)
    step = np.full(len(current), 0.5)
    table = MoveTable(ev)
    for _ in range(_DESCENT_SWEEPS):
        live = np.flatnonzero(step >= _DESCENT_MIN_STEP)
        if not live.size:
            break
        moved, values, _, _, unmoved = _score_moves(ev, table, current[live], step[live], n)
        # slot j moves column j // 2 + 1, up for even j and down for odd j
        moved = moved.transpose(1, 2, 0).reshape(len(live), -1)
        values = values.transpose(1, 2, 0).reshape(len(live), -1)
        pick = np.argmin(values, axis=1)
        improved = values[np.arange(len(live)), pick] < unmoved
        current[live[improved], pick[improved] // 2 + 1] = moved[improved, pick[improved]]
        step[live[~improved]] *= 0.5
    return _batch_ratios(ev, current, n), current


def _score_moves(
    ev: LocalEvaluator, table: MoveTable, current: np.ndarray, step: np.ndarray, n: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every clamped up/down move of every non-center coordinate, scored.

    Returns (moved, values, dead, lap, unmoved): the first four of shape
    (2, B, width - 1), the new value of column c at [k, :, c - 1], up for
    k = 0 and down for k = 1; its ratio, +inf where the move is dead or
    leaves Df(x) >= 0; the dead flags; Df(x) after the move; and the ratio
    of each candidate before any move.
    """
    old = current[:, 1:]
    up = (1.0 + step)[:, None]
    moved = np.maximum(np.stack([old * up, old / up]), FEASIBILITY_MARGIN)
    # clamp sphere-1 moves so Df(x) <= -margin: shrink the moved
    # coordinate by the budget excess
    budget = ev.degree * (1.0 - FEASIBILITY_MARGIN)
    p = len(ev.s1_cols)   # sphere 1 is columns 1..p
    s1 = current[:, 1 : p + 1]
    others = s1.sum(axis=1)[:, None] - s1
    moved[:, :, :p] -= np.maximum(others + moved[:, :, :p] - budget, 0.0)
    dead = moved <= FEASIBILITY_MARGIN
    moved = np.maximum(moved, FEASIBILITY_MARGIN)
    ratio, lap, unmoved = table.ratios(current, moved, n)
    values = np.where(dead | ~(lap < 0.0), np.inf, ratio)
    return moved, values, dead, lap, unmoved
