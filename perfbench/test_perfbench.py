"""Tests of the benchmark's own parts.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from curvkit import graph_girth, petersen, serialize_edge_list  # noqa: E402
from curvkit.cli import main as cli_main  # noqa: E402

SCHEMA = ROOT / "src" / "curvkit" / "report.schema.json"


@pytest.mark.parametrize("k", [1, 6, 200])
def test_hub_is_a_tree_with_4k_plus_1_vertices(k):
    g = workloads.hub(k)
    assert g.vertex_count == 4 * k + 1
    assert g.edge_count == g.vertex_count - 1   # connected (checked by Graph) + n-1 edges
    assert graph_girth(g) == float("inf")
    assert g.degree(0) == k
    assert all(g.degree(y) == 1 + workloads.HUB_LEAVES for y in range(1, k + 1))


def test_corpus_matches_the_frozen_test_corpus():
    from conftest import girth5_corpus

    assert workloads.girth5_corpus() == girth5_corpus()


def test_workloads_depend_only_on_the_seed():
    for build in workloads.WORKLOADS.values():
        assert build(3) == build(3)
    assert workloads.corpus(3)[0].options[-2:] == ("--seed", "3")


def _report(tmp_path, capsys) -> tuple[int, bytes]:
    path = tmp_path / "petersen.edges"
    path.write_text(serialize_edge_list(petersen()))
    code = cli_main(["verify", str(path), "--theorem", "both", "--samples", "50"])
    return code, capsys.readouterr().out.encode()


def _edit(report: bytes, change) -> bytes:
    doc = json.loads(report)
    change(doc["records"][3])
    return json.dumps(doc).encode()


def test_gate_accepts_a_real_report(tmp_path, capsys):
    code, report = _report(tmp_path, capsys)
    doc, problems = gate.check(code, report, gate.validator(SCHEMA))
    assert problems == []
    assert len(gate.cde_excesses(doc)) == 10


def test_gate_rejects_fail_verdict_and_cd_margin(tmp_path, capsys):
    code, report = _report(tmp_path, capsys)
    schema = gate.validator(SCHEMA)

    failed = _edit(report, lambda r: r.update(verdict="fail"))
    assert any("fail verdict" in p for p in gate.check(code, failed, schema)[1])

    loose = _edit(report, lambda r: r.update(cd_margin=2e-8))
    assert any("cd_margin" in p for p in gate.check(code, loose, schema)[1])

    ungated = _edit(report, lambda r: r.update(cd_margin=2e-8, verdict="precondition_not_met"))
    assert gate.check(code, ungated, schema)[1] == []

    assert gate.check(1, report, schema)[1] == ["exit code 1, expected 0"]
    assert gate.check(0, b"{}", schema)[1][0].startswith("schema:")


def test_ledger_requires_identical_bytes_across_passes(tmp_path, capsys):
    code, report = _report(tmp_path, capsys)
    ledger = gate.Ledger(gate.validator(SCHEMA))
    ledger.record("p", code, report, "")
    ledger.record("p", code, report, "")
    assert (ledger.attempted, ledger.failed) == (2, 0)
    ledger.record("p", code, report + b" ", "")
    assert ledger.failed == 1


def _span(name, start, end, parent=None, **attrs):
    return tracer.Span(name, start, parent, end, attrs)


def test_self_time_subtracts_direct_children_only():
    root = _span("cli", 0.0, 10.0, vertices=5)
    verify = _span("verify", 1.0, 9.0, root)
    girth = _span("girth", 1.5, 2.5, verify, vertex=0)
    cde = _span("cde", 3.0, 8.0, verify, vertex=0, samples=4)
    init = _span("localforms.init", 3.0, 3.5, cde, width=3)
    draw = _span("rng.uniforms", 3.5, 4.0, cde, size=16)
    descend = _span("cde.descend", 5.0, 7.0, cde, size=2)
    ratio = _span("cde.ratio", 5.5, 6.0, descend, size=40)
    spans = [root, verify, girth, cde, init, draw, descend, ratio]

    own = tracer.self_times(spans)
    assert own[root] == pytest.approx(2.0)
    assert own[verify] == pytest.approx(8.0 - 1.0 - 5.0)
    assert own[cde] == pytest.approx(5.0 - 0.5 - 0.5 - 2.0)
    assert own[descend] == pytest.approx(1.5)
    assert own[ratio] == pytest.approx(0.5)

    installed = {name for _, _, name, _ in tracer.WRAPS}
    metrics, missing = tracer.layer_metrics(spans, installed)
    assert missing == []
    assert metrics["cde.sample_s"] == pytest.approx(2.0)
    assert metrics["verify.self_s"] == pytest.approx(2.0)
    assert metrics["cde.accept_ratio"] == pytest.approx(4 / (16 / 2))
    assert metrics["verify.vertex_ms_max"] == pytest.approx(6000.0)
    assert metrics["cde.ratio_rows"] == 40


def test_tracer_restores_names_and_records_nested_spans(tmp_path, capsys):
    import curvkit.verify

    original = curvkit.verify.cde_estimate
    t = tracer.Tracer()
    with t.installed_wrappers():
        assert curvkit.verify.cde_estimate is not original
        with t.span(tracer.ROOT_SPAN, vertices=10):
            _report(tmp_path, capsys)
    assert curvkit.verify.cde_estimate is original
    assert t.missing == []
    metrics, missing = tracer.layer_metrics(t.spans, t.installed)
    assert missing == []
    assert metrics["cde.descend_starts"] > 0
    assert 0 < metrics["cde.accept_ratio"] <= 1
    assert metrics["girth.calls"] == metrics["cd.calls"] == 10


def test_tracer_reports_a_removed_private_name_as_missing(monkeypatch):
    import curvkit.cde

    monkeypatch.delattr(curvkit.cde, "_descend")
    t = tracer.Tracer()
    t.install()
    try:
        with t.span(tracer.ROOT_SPAN, vertices=10):
            pass
    finally:
        t.uninstall()
    assert t.missing == ["curvkit.cde._descend"]
    metrics, missing = tracer.layer_metrics(t.spans, t.installed)
    assert {"cde.descend_s", "cde.descend_starts", "cde.sample_s"} <= set(missing)
    assert "cde.ratio_s" in metrics


def test_benchmark_json_declares_every_traced_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    traced, _ = tracer.layer_metrics([], {name for _, _, name, _ in tracer.WRAPS})
    harness = {"report.bytes", "proc.cpu_s", "trace.overhead_frac", "cde.excess_mean"}
    assert declared == set(traced) | harness
