import logging
import tracemalloc
from dataclasses import replace
from math import inf

import numpy as np
import pytest

import curvkit.verify
from conftest import tree_hub
from curvkit import (
    Graph,
    PreconditionFailedError,
    all_vertex_girths,
    cd_bound_girth5,
    cd_check,
    cd_curvature,
    cd_curvatures,
    cd_witness_value,
    cde_check,
    cde_estimate,
    cde_estimates,
    cde_ratio,
    cycle,
    gamma_local,
    graph_girth,
    petersen,
    path,
    random_tree,
    random_with_girth,
    star,
    verify_theorems,
    vertex_girth,
)
from curvkit.report import record_to_dict
from curvkit.verify import VertexReport


def test_cd_bound_examples():
    assert cd_bound_girth5(star(3), 0) == 1.0
    assert cd_bound_girth5(cycle(6), 0) == 0.0
    assert cd_bound_girth5(petersen(), 0) == pytest.approx(-1.0 / 3.0, abs=1e-15)
    # leaf of a star: single neighbor of degree 3
    assert cd_bound_girth5(star(3), 1) == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_verify_cd_bounds_are_cd_bound_girth5(corpus_girth5, corpus_small):
    # bit for bit at every gated vertex: verify reads every bound from one
    # array expression; a gated-out vertex has none
    gated_out = 0
    for g in corpus_girth5 + corpus_small + [tree_hub(k) for k in (6, 10, 14, 50, 200)]:
        records = verify_theorems(g, "cd").records
        gated = [x for x, girth in enumerate(all_vertex_girths(g)) if girth >= 5]
        assert [r.vertex for r in records if r.cd_bound is not None] == gated
        gated_out += len(records) - len(gated)
        bounds = [records[x].cd_bound for x in gated]
        expected = [cd_bound_girth5(g, x) for x in gated]
        assert all(type(b) is float for b in bounds)
        assert np.array(bounds).tobytes() == np.array(expected).tobytes()
    assert gated_out > 0


def test_witness_value_examples():
    assert cd_witness_value(star(3), 0, 0) == pytest.approx(1.0, abs=1e-15)
    assert cd_witness_value(cycle(6), 0, 0) == pytest.approx(0.0, abs=1e-15)
    assert cd_witness_value(petersen(), 0, 1) == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert type(cd_witness_value(petersen(), 0, 1)) is float


def test_witness_value_requires_girth5():
    with pytest.raises(PreconditionFailedError):
        cd_witness_value(cycle(4), 0, 0)
    with pytest.raises(ValueError):
        cd_witness_value(star(3), 0, 5)


def test_witness_value_formula_on_corpus(corpus_girth5):
    for g in corpus_girth5[:10]:
        for x in range(g.vertex_count):
            if vertex_girth(g, x) < 5:
                continue
            for i, y in enumerate(g.adjacency[x]):
                k = g.degree(y)
                expected = -(k - 2.0) / k
                assert abs(cd_witness_value(g, x, i) - expected) <= 1e-12


def test_rechecks_and_the_construction_read_no_closed_local_code(corpus_small, monkeypatch):
    # the re-checks behind a fail and the CD construction are the
    # definitional route: with the closed local formulas returning nonsense
    # they return what they return unpatched, at a girth-5 vertex and at a
    # vertex on a 4-cycle
    import curvkit.localforms as localforms

    four = next(g for g in corpus_small if graph_girth(g) == 4 and g.vertex_count > 4)
    x4 = next(x for x, girth in enumerate(all_vertex_girths(four)) if girth == 4)
    cases = []
    for g, x in ((petersen(), 0), (four, x4)):
        cd = cd_curvature(g, x)
        cases.append((g, x, cd.curvature_K, cd.function, cde_estimate(g, x, samples=200).function))

    def evaluate():
        out = []
        for g, x, k, cd_function, cde_function in cases:
            out.append(cde_ratio(g, x, 2.0, cde_function))
            out += [cd_check(g, x, 2.0, k + shift, cd_function) for shift in (-1e-3, 1e-3)]
        return out + [cd_witness_value(petersen(), 0, i) for i in range(3)]

    def nonsense(self, rows):
        return np.full(len(rows), 12345.0)

    expected = evaluate()
    monkeypatch.setattr(localforms.LocalEvaluator, "gamma", nonsense)
    monkeypatch.setattr(localforms.LocalEvaluator, "gamma2", nonsense)
    monkeypatch.setattr(localforms, "_pair_form", lambda yz, xz, w: 0.0 * yz + 12345.0)
    assert gamma_local(petersen(), cases[0][4], 0) == 12345.0   # the patch is in force
    assert evaluate() == expected
    assert expected[1:3] == [True, False] and expected[4:6] == [True, False]


def test_verify_cd_tree_all_pass():
    report = verify_theorems(random_tree(12, 3), "cd")
    assert all(r.verdict == "pass" for r in report.records)
    assert all(r.girth == inf for r in report.records)
    assert all(r.cde_bound is None for r in report.records)


def test_verify_cd_petersen_all_pass(petersen_graph):
    report = verify_theorems(petersen_graph, "cd")
    assert len(report.records) == 10
    for r in report.records:
        assert r.verdict == "pass"
        assert r.cd_computed >= -1.0 / 3.0 - 1e-8
        assert r.cd_bound == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert r.witness is None


def test_verify_cd_triangle_precondition_not_met():
    report = verify_theorems(cycle(3), "cd")
    for r in report.records:
        assert r.verdict == "precondition_not_met"
        assert r.girth == 3
        # no theorem runs at a gated-out vertex
        assert (r.cd_bound, r.cd_computed, r.cd_margin) == (None,) * 3
        assert (r.cde_bound, r.cde_sampled_min, r.cde_margin) == (None,) * 3
    assert report.all_precondition_not_met
    assert not report.has_failures


def test_verify_cd_tightness_on_stars_and_cycles():
    report = verify_theorems(star(4), "cd")
    center = report.records[0]
    assert abs(center.cd_margin) <= 1e-8
    for m in (5, 6, 8):
        report = verify_theorems(cycle(m), "cd")
        for r in report.records:
            assert abs(r.cd_margin) <= 1e-8


def test_verify_cde_star_and_path():
    report = verify_theorems(star(3), "cde", samples=3000, seed=0)
    center = report.records[0]
    assert center.verdict == "pass"
    assert center.cde_bound == -3.0 / 2.0 - 1.0
    assert center.cde_sampled_min >= center.cde_bound - 1e-8
    report = verify_theorems(path(5), "cde", samples=2000, seed=0)
    for r in report.records:
        assert r.verdict == "pass"
        if r.vertex in (1, 2, 3):
            assert r.cde_bound == -2.0
        else:
            assert r.cde_bound == -1.5


def test_verify_cde_petersen(petersen_graph):
    report = verify_theorems(petersen_graph, "cde", samples=10000, seed=42)
    assert all(r.verdict == "pass" for r in report.records)
    assert all(r.seed == 42 for r in report.records)


def test_verify_both_combines(petersen_graph):
    report = verify_theorems(petersen_graph, theorem="both", samples=1000, seed=0)
    for r in report.records:
        assert r.verdict == "pass"
        assert r.cd_margin is not None and r.cde_margin is not None
        assert record_to_dict(r)["dim"] == 2.0


def test_relabelling_permutes_the_records(corpus_girth5):
    # at a gated vertex the CD curvature and the CDE search depend on its
    # 2-ball up to labels: a seeded random relabelling of each graph
    # permutes the records, and girth, verdict and every CD and CDE number
    # keep their bits (CD at a tree ball reads the neighbour degrees only,
    # no eigensolve)
    exact = ("girth", "cd_bound", "cd_computed", "cd_margin",
             "cde_bound", "cde_sampled_min", "cde_margin")
    for i, g in enumerate(corpus_girth5):
        label = np.random.default_rng(i).permutation(g.vertex_count)   # new id of each vertex
        h = Graph.from_edges([(label[u], label[v]) for u, v in g.edges])
        before = verify_theorems(g, "both", samples=1000, seed=1).records
        after = verify_theorems(h, "both", samples=1000, seed=1).records
        moved = [after[label[x]] for x in range(g.vertex_count)]
        assert [r.verdict for r in moved] == [r.verdict for r in before]
        for name in exact:
            got = np.array([getattr(r, name) for r in moved], dtype=np.float64)
            want = np.array([getattr(r, name) for r in before], dtype=np.float64)
            assert got.tobytes() == want.tobytes(), (i, name)


def test_mixed_girth_gating():
    # triangle with a pendant path: tail vertices have infinite girth and
    # are verified; triangle vertices are gated out per-vertex
    g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
    report = verify_theorems(g, "cd")
    by_vertex = {r.vertex: r for r in report.records}
    for v in (0, 1):
        assert by_vertex[v].verdict == "precondition_not_met"
    for v in (3, 4, 5):
        assert by_vertex[v].verdict == "pass"


def test_gate_computes_each_vertex_girth_once(monkeypatch):
    # the gate reads the per-vertex girths computed for the report: one
    # all_vertex_girths call, whose batched search runs from the cycle
    # vertices only; the bridge pass leaves the tail 3-4-5 (girth inf)
    # unsearched
    import curvkit.girth

    g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
    calls, searched = [], []

    def counted(graph):
        calls.append(graph)
        return all_girths(graph)

    def search(graph, sources):
        searched.append(list(sources))
        return original(graph, sources)

    all_girths = curvkit.girth.all_vertex_girths
    original = curvkit.girth._search
    monkeypatch.setattr(curvkit.verify, "all_vertex_girths", counted)
    monkeypatch.setattr(curvkit.girth, "_search", search)
    report = verify_theorems(g, "cd")
    assert [r.verdict for r in report.records] == ["precondition_not_met"] * 3 + ["pass"] * 3
    assert len(calls) == 1 and calls[0] is g
    assert searched == [[0, 1, 2]]


def test_min_girth_threshold_parameter():
    # the gate is the bounds' hypothesis, girth >= 5: a 4-cycle is gated out
    default = verify_theorems(cycle(4), "cd")
    assert default.all_precondition_not_met


def test_invalid_theorem_name(petersen_graph):
    with pytest.raises(ValueError):
        verify_theorems(petersen_graph, theorem="cdx")


def test_no_failure_without_reverified_witness(corpus_girth5):
    # across the corpus: failure records must carry a witness that
    # independently violates the bound; passing records carry none
    for g in corpus_girth5[:6]:
        report = verify_theorems(g, theorem="both", samples=400, seed=3)
        for r in report.records:
            if r.verdict == "fail":  # not expected; verify honestly if seen
                assert r.witness is not None
                if r.cde_margin is not None and r.cde_margin < -1e-8:
                    assert not cde_check(g, r.vertex, 2.0, r.cde_bound, r.witness)
                else:
                    assert not cd_check(g, r.vertex, 2.0, r.cd_bound, r.witness)
            else:
                assert r.witness is None


def test_reverified_violation_fails_with_the_minimizer_as_witness(
    petersen_graph, cd_bound_raised_at_vertex_3
):
    report = verify_theorems(petersen_graph, "cd")
    assert [r.vertex for r in report.records if r.verdict == "fail"] == [3]
    record = report.records[3]
    minimizer = cd_curvature(petersen_graph, 3).function
    assert record.witness.values.tobytes() == minimizer.values.tobytes()
    assert not cd_check(petersen_graph, 3, 2.0, record.cd_bound, record.witness)


def test_violation_that_does_not_reverify_is_logged_not_failed(
    petersen_graph, monkeypatch, caplog
):
    # K - 1 reported at vertex 3 with the true minimizer, which satisfies
    # the true bound: the margin is negative but the witness does not break it
    curvatures = curvkit.verify.cd_curvatures

    def lowered(g, vertices, n):
        for result in curvatures(g, vertices, n):
            if result.vertex == 3:
                result = replace(result, curvature_K=result.curvature_K - 1.0)
            yield result

    monkeypatch.setattr(curvkit.verify, "cd_curvatures", lowered)
    with caplog.at_level(logging.WARNING, logger="curvkit.verify"):
        report = verify_theorems(petersen_graph, "cd")
    assert all(r.verdict == "pass" and r.witness is None for r in report.records)
    assert caplog.messages == ["vertex 3: cd margin -1.000e+00 did not re-verify as a violation"]


def test_results_compare_and_hash_without_raising(petersen_graph):
    # results hold numpy arrays, so == and hash go by the identity of those;
    # two runs compare unequal instead of raising
    g = petersen_graph
    cd = [cd_curvature(g, 0) for _ in range(2)]
    cde = [cde_estimate(g, 0, samples=50) for _ in range(2)]
    functions = [result.function for result in cd]
    records = [
        VertexReport(
            vertex=0, girth=5, cd_bound=0.0,
            cd_computed=-1.0, cd_margin=-1.0, cde_bound=None, cde_sampled_min=None,
            cde_margin=None, verdict="fail", seed=None, witness=f,
        )
        for f in functions
    ]
    for a, b in [functions, cd, cde, records]:
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a) and isinstance(hash(b), int)
    # a copy of a record holds the same witness, so it compares equal
    copy = replace(records[0])
    assert copy == records[0] and hash(copy) == hash(records[0])


def _peaks(run) -> dict[int, int]:
    """tracemalloc peak of run(g), which returns one item per vertex, on
    girth-5 graphs of 300 and 1500 vertices."""
    peaks = {}
    for n in (300, 1500):
        g = random_with_girth(n, 3 * n // 2, 5, 1)
        tracemalloc.start()
        try:
            held = run(g)
            _, peaks[n] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(held) == n
    return peaks


def _verify_peaks(theorem: str, **options) -> dict[int, int]:
    """tracemalloc peak of verify_theorems on those graphs."""
    return _peaks(lambda g: verify_theorems(g, theorem, **options).records)


def test_cde_verify_memory_is_not_quadratic_in_the_vertex_count():
    # holding a full-length witness for every vertex at once would add
    # n^2 x 8 bytes: 17 MiB at n = 1500, against ~5 MiB for the whole n = 300
    # run
    peaks = _verify_peaks("cde", samples=200)
    assert peaks[1500] < 2.5 * peaks[300], {n: f"{p / 2**20:.1f} MiB" for n, p in peaks.items()}


def test_cd_verify_memory_is_not_quadratic_in_the_vertex_count():
    # the same for the CD witnesses, against ~2 MiB for the n = 300 run
    peaks = _verify_peaks("cd")
    assert peaks[1500] < 2.5 * peaks[300], {n: f"{p / 2**20:.1f} MiB" for n, p in peaks.items()}


@pytest.mark.parametrize(
    "compute",
    [
        lambda g: cd_curvatures(g, range(g.vertex_count)),
        lambda g: cde_estimates(g, range(g.vertex_count), samples=200),
    ],
    ids=["cd", "cde"],
)
def test_held_results_memory_is_not_quadratic_in_the_vertex_count(compute):
    # a result holds its witness on the 2-ball only; a full-length witness
    # per result would add n^2 x 8 bytes over all of them, 17 MiB at n = 1500
    peaks = _peaks(lambda g: list(compute(g)))
    assert peaks[1500] < 2.5 * peaks[300], {n: f"{p / 2**20:.1f} MiB" for n, p in peaks.items()}
