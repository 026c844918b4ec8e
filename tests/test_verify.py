import tracemalloc
from math import inf

import pytest

from curvkit import (
    Graph,
    PreconditionFailedError,
    cd_bound_girth5,
    cd_check,
    cd_witness_value,
    cde_check,
    cycle,
    petersen,
    path,
    random_tree,
    random_with_girth,
    star,
    verify_cd_theorem,
    verify_cde_theorem,
    verify_theorems,
    vertex_girth,
)


def test_cd_bound_examples():
    assert cd_bound_girth5(star(3), 0) == 1.0
    assert cd_bound_girth5(cycle(6), 0) == 0.0
    assert cd_bound_girth5(petersen(), 0) == pytest.approx(-1.0 / 3.0, abs=1e-15)
    # leaf of a star: single neighbor of degree 3
    assert cd_bound_girth5(star(3), 1) == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_witness_value_examples():
    assert cd_witness_value(star(3), 0, 0) == pytest.approx(1.0, abs=1e-15)
    assert cd_witness_value(cycle(6), 0, 0) == pytest.approx(0.0, abs=1e-15)
    assert cd_witness_value(petersen(), 0, 1) == pytest.approx(-1.0 / 3.0, abs=1e-15)


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


def test_verify_cd_tree_all_pass():
    report = verify_cd_theorem(random_tree(12, 3))
    assert all(r.verdict == "pass" for r in report.records)
    assert all(r.girth == inf for r in report.records)
    assert all(r.cde_bound is None for r in report.records)


def test_verify_cd_petersen_all_pass(petersen_graph):
    report = verify_cd_theorem(petersen_graph)
    assert len(report.records) == 10
    for r in report.records:
        assert r.verdict == "pass"
        assert r.cd_computed >= -1.0 / 3.0 - 1e-8
        assert r.cd_bound == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert r.neighbor_degrees == (3, 3, 3)
        assert r.witness is None


def test_verify_cd_triangle_precondition_not_met():
    report = verify_cd_theorem(cycle(3))
    for r in report.records:
        assert r.verdict == "precondition_not_met"
        assert r.girth == 3
        # numbers still reported
        assert r.cd_computed is not None and r.cd_bound is not None
    assert report.all_precondition_not_met
    assert not report.has_failures


def test_verify_cd_tightness_on_stars_and_cycles():
    report = verify_cd_theorem(star(4))
    center = report.records[0]
    assert abs(center.cd_margin) <= 1e-8
    for m in (5, 6, 8):
        report = verify_cd_theorem(cycle(m))
        for r in report.records:
            assert abs(r.cd_margin) <= 1e-8


def test_verify_cde_star_and_path():
    report = verify_cde_theorem(star(3), samples=3000, seed=0)
    center = report.records[0]
    assert center.verdict == "pass"
    assert center.cde_bound == -3.0 / 2.0 - 1.0
    assert center.cde_sampled_min >= center.cde_bound - 1e-8
    report = verify_cde_theorem(path(5), samples=2000, seed=0)
    for r in report.records:
        assert r.verdict == "pass"
        if r.vertex in (1, 2, 3):
            assert r.cde_bound == -2.0
        else:
            assert r.cde_bound == -1.5


def test_verify_cde_petersen(petersen_graph):
    report = verify_cde_theorem(petersen_graph, samples=10000, seed=42)
    assert all(r.verdict == "pass" for r in report.records)
    assert all(r.seed == 42 for r in report.records)


def test_verify_both_combines(petersen_graph):
    report = verify_theorems(petersen_graph, theorem="both", samples=1000, seed=0)
    for r in report.records:
        assert r.verdict == "pass"
        assert r.cd_margin is not None and r.cde_margin is not None
        assert r.dim == 2.0


def test_mixed_girth_gating():
    # triangle with a pendant path: tail vertices have infinite girth and
    # are verified; triangle vertices are gated out per-vertex
    g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
    report = verify_cd_theorem(g)
    by_vertex = {r.vertex: r for r in report.records}
    for v in (0, 1):
        assert by_vertex[v].verdict == "precondition_not_met"
    for v in (3, 4, 5):
        assert by_vertex[v].verdict == "pass"
    # strict global gating marks every vertex as unverifiable (girth 3)
    strict = verify_cd_theorem(g, strict_global_girth=True)
    assert strict.all_precondition_not_met


def test_strict_global_girth_computes_each_vertex_girth_once(monkeypatch):
    # the whole-graph gate is the minimum of the per-vertex girths already
    # computed for the report, not a second all-vertex pass; the bridge pass
    # leaves the tail 3-4-5 (girth inf) unsearched
    import curvkit.girth
    import curvkit.verify

    g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
    calls = []

    def counted(graph, x):
        calls.append(x)
        return original(graph, x)

    original = curvkit.girth.vertex_girth
    monkeypatch.setattr(curvkit.verify, "vertex_girth", counted)
    monkeypatch.setattr(curvkit.girth, "vertex_girth", counted)
    report = verify_cd_theorem(g, strict_global_girth=True)
    assert report.all_precondition_not_met
    assert len(calls) == len(set(calls))
    assert set(calls) == {0, 1, 2}


def test_min_girth_threshold_parameter():
    g = cycle(4)
    default = verify_cd_theorem(g)
    assert default.all_precondition_not_met
    relaxed = verify_cd_theorem(g, min_girth=4)
    assert all(r.verdict == "pass" for r in relaxed.records)


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


def _verify_peaks(theorem: str, **options) -> dict[int, int]:
    """tracemalloc peak of verify_theorems on girth-5 graphs of 300 and
    1500 vertices."""
    peaks = {}
    for n in (300, 1500):
        g = random_with_girth(n, 3 * n // 2, 5, 1)
        tracemalloc.start()
        try:
            report = verify_theorems(g, theorem, **options)
            _, peaks[n] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.records) == n
    return peaks


def test_cde_verify_memory_is_not_quadratic_in_the_vertex_count():
    # an estimate carries a full-length vertex function, so holding every
    # vertex's estimate at once would add n^2 x 8 bytes: 17 MiB at n = 1500,
    # against ~5 MiB for the whole n = 300 run
    peaks = _verify_peaks("cde", samples=200)
    assert peaks[1500] < 2.5 * peaks[300], {n: f"{p / 2**20:.1f} MiB" for n, p in peaks.items()}


def test_cd_verify_memory_is_not_quadratic_in_the_vertex_count():
    # the same for the CD witnesses, against ~2 MiB for the n = 300 run
    peaks = _verify_peaks("cd")
    assert peaks[1500] < 2.5 * peaks[300], {n: f"{p / 2**20:.1f} MiB" for n, p in peaks.items()}
