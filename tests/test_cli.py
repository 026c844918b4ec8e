import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from math import inf
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import girth5_corpus, tree_hub
from curvkit import (
    Graph, cd_curvature, cycle, parse_edge_list, petersen, random_tree, random_with_girth,
    serialize_edge_list, star,
)
from curvkit.cli import main
from curvkit.report import dumps, load_schema


@pytest.fixture()
def petersen_file(tmp_path):
    f = tmp_path / "petersen.edges"
    f.write_text(serialize_edge_list(petersen()))
    return str(f)


@pytest.fixture()
def tree_file(tmp_path):
    f = tmp_path / "tree.edges"
    f.write_text(serialize_edge_list(random_tree(12, 3)))
    return str(f)


@pytest.fixture()
def star3_file(tmp_path):
    f = tmp_path / "star3.edges"
    f.write_text(serialize_edge_list(star(3)))
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- girth ----------------------------------------------------------------

def test_girth_text(capsys, petersen_file, tmp_path):
    code, out, _ = run(capsys, "girth", petersen_file)
    assert code == 0 and out.strip() == "5"
    tree = tmp_path / "tree.edges"
    tree.write_text("0 1\n1 2\n1 3\n")
    code, out, _ = run(capsys, "girth", str(tree))
    assert code == 0 and out.strip() == "inf"
    c5 = tmp_path / "c5.edges"
    c5.write_text("0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, out, _ = run(capsys, "girth", str(c5))
    assert code == 0 and out.strip() == "5"


def test_girth_whole_graph_json(capsys, petersen_file):
    code, out, _ = run(capsys, "girth", petersen_file, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"girth": 5}


def test_girth_per_vertex_json(capsys, petersen_file):
    code, out, _ = run(capsys, "girth", petersen_file, "--per-vertex", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["girth"] == 5
    assert [r["vertex"] for r in doc["per_vertex"]] == list(range(10))
    assert all(r["girth"] == 5 for r in doc["per_vertex"])


def test_girth_csv(capsys, star3_file):
    code, out, _ = run(capsys, "girth", star3_file, "--per-vertex", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["vertex", "girth"]
    assert rows[1] == ["0", "inf"]


# ---- curvature-cd ----------------------------------------------------------

def test_curvature_cd_star(capsys, star3_file):
    code, out, _ = run(capsys, "curvature-cd", star3_file, "--vertex", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["records"][0]["curvature"] == pytest.approx(1.0, abs=1e-8)


def test_curvature_cd_cycle_all_zero(capsys, tmp_path):
    c6 = tmp_path / "c6.edges"
    c6.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    code, out, _ = run(capsys, "curvature-cd", str(c6))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["records"]) == 6
    for rec in doc["records"]:
        assert rec["curvature"] == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("dim", ["0", "inf", "1e-308", "1e-310"])
def test_curvature_cd_dim_zero_is_usage_error(capsys, tmp_path, dim):
    # both curvature commands; below DIM_FLOOR the 1/n terms overflow. The
    # file does not exist, so exit 64 (not 2) shows the option is refused
    # before the graph is read
    missing = str(tmp_path / "missing.edges")
    for command in ("curvature-cd", "curvature-cde"):
        for fmt in ("json", "csv"):
            code, out, err = run(capsys, command, missing, "--dim", dim, "--format", fmt)
            assert code == 64
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("usage error:")
            assert "--dim" in err


def test_curvature_cd_csv(capsys, star3_file):
    code, out, _ = run(capsys, "curvature-cd", star3_file, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["vertex", "dim", "curvature"]
    assert len(rows) == 5


# ---- curvature-cde ---------------------------------------------------------

def test_curvature_cde_deterministic_bytes(capsys, star3_file):
    args = ("curvature-cde", star3_file, "--samples", "500", "--seed", "0")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_curvature_cde_petersen_bound(capsys, petersen_file):
    code, out, _ = run(
        capsys, "curvature-cde", petersen_file, "--samples", "300", "--seed", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["records"]) == 10
    for rec in doc["records"]:
        assert rec["sampled_min"] >= -2.5
        assert rec["seed"] == 1


def test_curvature_cde_high_degree_center(capsys, tmp_path):
    star40 = tmp_path / "star40.edges"
    star40.write_text(serialize_edge_list(star(40)))
    code, out, _ = run(capsys, "curvature-cde", str(star40), "--vertex", "0")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["records"]) == 1
    assert doc["records"][0]["sampled_min"] >= -21.0


@pytest.mark.parametrize("command", ["curvature-cde", "verify"])
def test_curvature_cde_bad_samples(capsys, star3_file, command):
    code, _, err = run(capsys, command, star3_file, "--samples", "0")
    assert code == 64 and "samples" in err


# ---- verify ----------------------------------------------------------------

def test_verify_petersen_exit0_and_schema(capsys, petersen_file):
    code, out, _ = run(
        capsys, "verify", petersen_file, "--samples", "400", "--seed", "5"
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["pass"] == 10
    fields = set(doc["records"][0])
    assert fields == {
        "vertex", "girth", "cd_bound", "cd_computed", "cd_margin",
        "cde_bound", "cde_sampled_min", "cde_margin", "verdict", "seed", "dim",
    }


def test_verify_triangle_exit3(capsys, tmp_path):
    tri = tmp_path / "tri.edges"
    tri.write_text("0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "verify", str(tri), "--samples", "50")
    assert code == 3
    doc = json.loads(out)
    assert doc["summary"]["precondition_not_met"] == 3
    jsonschema.validate(doc, load_schema())
    # numbers still reported for gated-out vertices
    assert doc["records"][0]["cd_computed"] is not None


def test_verify_cd_only_schema(capsys, petersen_file):
    code, out, _ = run(capsys, "verify", petersen_file, "--theorem", "cd")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["records"][0]["cde_bound"] is None
    assert doc["params"]["samples"] is None


def test_schema_rejects_dim_other_than_two(capsys, petersen_file):
    # verify checks the bounds at n = 2 only, so no valid report carries
    # another dimension
    code, out, _ = run(capsys, "verify", petersen_file, "--samples", "200")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    for dim in (1.9, 3.0):
        other = json.loads(out)
        other["params"]["dim"] = dim
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(other, load_schema())
        other = json.loads(out)
        other["records"][3]["dim"] = dim
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(other, load_schema())


def test_verify_random_girth5_corpus_exit0(capsys, tmp_path):
    for seed in (0, 1, 2):
        g = random_with_girth(30, 35, 5, seed)
        f = tmp_path / f"g{seed}.edges"
        f.write_text(serialize_edge_list(g))
        code, out, _ = run(capsys, "verify", str(f), "--samples", "300", "--seed", "9")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["fail"] == 0


@pytest.mark.parametrize(
    "graph",
    [petersen(), random_with_girth(12, 14, 4, 51), cycle(3)],
    ids=["petersen", "random-girth", "triangle"],
)
def test_verify_agrees_with_the_curvature_commands(capsys, tmp_path, graph):
    # verify computes K(x, 2) and the CDE sampled minimum with the same
    # samples and seed as curvature-cd and curvature-cde, to the bit
    f = tmp_path / "g.edges"
    f.write_text(serialize_edge_list(graph))
    sample = ("--samples", "300", "--seed", "3")
    _, out, _ = run(capsys, "verify", str(f), *sample)
    records = json.loads(out)["records"]
    _, out, _ = run(capsys, "curvature-cd", str(f), "--dim", "2")
    cd = json.loads(out)["records"]
    _, out, _ = run(capsys, "curvature-cde", str(f), "--dim", "2", *sample)
    cde = json.loads(out)["records"]
    for rows in (cd, cde):
        assert [r["vertex"] for r in rows] == [r["vertex"] for r in records]
    assert [r["cd_computed"] for r in records] == [r["curvature"] for r in cd]
    assert [r["cde_sampled_min"] for r in records] == [r["sampled_min"] for r in cde]


def test_verify_cde_only_schema(capsys, star3_file):
    code, out, _ = run(
        capsys, "verify", star3_file, "--theorem", "cde", "--samples", "100"
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["records"][0]["cd_bound"] is None
    assert doc["records"][0]["seed"] == 0


def test_verify_csv_format(capsys, petersen_file):
    code, out, _ = run(
        capsys, "verify", petersen_file, "--theorem", "cd", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["vertex", "girth", "cd_bound"]
    assert len(rows) == 11


def test_verify_strict_global_girth_flag(capsys, tmp_path, petersen_file):
    # triangle with a pendant tail: per-vertex gating verifies the tail,
    # exit 0; the gate is fixed at girth 5, so the options that moved it
    # are gone
    mixed = tmp_path / "mixed.edges"
    mixed.write_text("0 1\n1 2\n0 2\n2 3\n3 4\n")
    code, _, _ = run(capsys, "verify", str(mixed), "--theorem", "cd")
    assert code == 0
    for option in (["--min-girth", "5"], ["--strict-global-girth"]):
        code, out, err = run(capsys, "verify", petersen_file, *option)
        assert code == 64 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("usage error: ")


def test_verify_reverified_violation_exit1_with_witness(
    capsys, petersen_file, cd_bound_raised_at_vertex_3
):
    code, out, _ = run(capsys, "verify", petersen_file, "--theorem", "cd")
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert [r["vertex"] for r in doc["records"] if "witness" in r] == [3]
    minimizer = cd_curvature(petersen(), 3).function
    assert doc["records"][3]["witness"] == minimizer.values.tolist()


@pytest.mark.parametrize(
    "name, graph, budget",
    [("star40", star(40), 10.0), ("hub100", tree_hub(100), 40.0)],
    ids=["star40", "hub100"],
)
def test_verify_high_degree_within_budget(capsys, tmp_path, name, graph, budget):
    # both theorems at every vertex of a degree-40 star and a degree-100 hub
    # (3 leaves per neighbor); on a 2-core VM the hub takes ~7 s with moves
    # scored by delta and ~93 s when every proposal is built as a full row
    f = tmp_path / f"{name}.edges"
    f.write_text(serialize_edge_list(graph))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(f), "--theorem", "both", "--samples", "100")
    elapsed = time.perf_counter() - start
    assert code == 0 and err == ""
    records = json.loads(out)["records"]
    assert len(records) == graph.vertex_count
    assert all(r["verdict"] == "pass" for r in records)
    assert elapsed < budget, f"{name}: {elapsed:.1f} s over the {budget:.0f} s budget"


def test_verify_high_degree_non_tree_within_budget(capsys, tmp_path):
    # the degree-100 hub with each pair of consecutive neighbours joined:
    # triangle pairs at the centre and shared distance-2 vertices at every
    # neighbour, so every CDE move there also scores coupling terms; about
    # 3 s on a 2-core VM
    hub = tree_hub(100)
    g = Graph.from_edges(hub.edges + [(y, y + 1) for y in range(1, 100)])
    f = tmp_path / "hub100-triangles.edges"
    f.write_text(serialize_edge_list(g))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(f), "--theorem", "both", "--samples", "100")
    elapsed = time.perf_counter() - start
    assert code == 0 and err == ""
    records = json.loads(out)["records"]
    assert len(records) == g.vertex_count
    # the centre and its neighbours lie on triangles; the leaves pass
    assert [r["verdict"] for r in records] == ["precondition_not_met"] * 101 + ["pass"] * 300
    assert elapsed < 30.0, f"{elapsed:.1f} s over the 30 s budget"


def test_verify_verbose_logs_tight_margins(capsys, tmp_path):
    # README: margins in (-1e-8, 0) are logged as tight; -v sends those lines
    # to stderr and leaves stdout byte-identical
    f = tmp_path / "g.edges"
    f.write_text(serialize_edge_list(girth5_corpus()[2]))
    code, quiet, quiet_err = run(capsys, "verify", str(f), "--theorem", "cd")
    code_v, loud, loud_err = run(capsys, "verify", str(f), "--theorem", "cd", "-v")
    assert code == code_v == 0
    assert loud == quiet
    assert quiet_err == ""
    tight = [
        r["vertex"]
        for r in json.loads(quiet)["records"]
        if r["verdict"] == "pass" and -1e-8 < r["cd_margin"] < 0.0
    ]
    assert tight
    for x in tight:
        assert f"vertex {x}: tight cd margin" in loud_err
    assert len(loud_err.splitlines()) == len(tight)


@pytest.mark.parametrize("dim", ["0.5", "1.9", "2", "3", "inf"])
def test_verify_dim_is_usage_error(capsys, tmp_path, dim):
    # verify checks the bounds at n = 2 only and takes no --dim; the file
    # does not exist, so exit 64 (not 2) shows the option is refused before
    # the graph is read
    missing = str(tmp_path / "missing.edges")
    code, out, err = run(capsys, "verify", missing, "--dim", dim)
    assert code == 64
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error:") and "--dim" in err


def test_curvature_commands_accept_dim_below_two(capsys, petersen_file):
    code, _, _ = run(capsys, "curvature-cd", petersen_file, "--dim", "1.9")
    assert code == 0
    code, _, _ = run(capsys, "curvature-cde", petersen_file, "--dim", "0.5", "--samples", "50")
    assert code == 0
    # down to DIM_FLOOR; RuntimeWarnings are errors here, so an overflow
    # would fail the run
    for key, argv in (
        ("curvature", ("curvature-cd",)),
        ("sampled_min", ("curvature-cde", "--samples", "50")),
    ):
        code, out, _ = run(capsys, *argv, petersen_file, "--dim", "1e-300")
        assert code == 0
        assert all(np.isfinite(r[key]) for r in json.loads(out)["records"])


def test_verify_fail_exit_code_via_stub(capsys, petersen_file, monkeypatch):
    # a genuine violation needs a counterexample graph; exercise the exit
    # path by stubbing the verification result
    import curvkit.cli as cli_mod
    from curvkit.verify import CurvatureReport, VertexReport

    fake = CurvatureReport(
        records=(
            VertexReport(
                vertex=0, girth=5, cd_bound=0.0,
                cd_computed=-1.0, cd_margin=-1.0, cde_bound=None,
                cde_sampled_min=None, cde_margin=None, verdict="fail",
                seed=None, witness=None,
            ),
        )
    )
    monkeypatch.setattr(cli_mod, "verify_theorems", lambda *a, **k: fake)
    code, out, _ = run(capsys, "verify", petersen_file)
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["summary"]["fail"] == 1


def test_out_of_memory_exit_code(capsys, petersen_file, monkeypatch):
    # exit 1 is kept for a re-verified violation; stubbed so nothing
    # allocates for real
    import curvkit.cli as cli_mod

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.49 GiB for an array")

    monkeypatch.setattr(cli_mod, "verify_theorems", exhausted)
    code, out, err = run(capsys, "verify", petersen_file)
    assert code == 5
    assert out == ""
    assert err.splitlines() == ["error: out of memory: Unable to allocate 1.49 GiB for an array"]


def test_documented_exit_codes_are_the_cli_constants():
    # the README's "Exit codes:" paragraph and the cli docstring name
    # exactly the codes main can return
    import curvkit.cli as cli_mod

    codes = {v for k, v in vars(cli_mod).items() if k.startswith("EXIT_")}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    paragraph = readme[readme.index("Exit codes:") :].split("\n\n")[0]
    assert {int(c) for c in re.findall(r"`(\d+)`", paragraph)} == codes
    doc = " ".join(cli_mod.__doc__[cli_mod.__doc__.index("Exit codes:") :].split())
    assert {int(c) for c in re.findall(r"(?:codes:|,) (\d+) ", doc)} == codes


@pytest.mark.parametrize("command", ["verify", "curvature-cde"])
@pytest.mark.parametrize("samples", [str(2**59), str(2**62)])
def test_unaddressable_sample_count_is_out_of_memory(capsys, petersen_file, command, samples):
    # Petersen draws 4 uniforms per sample: 2^61 float64s overflow the byte
    # count, 2^64 the dimension; both are refused before anything allocates
    code, out, err = run(capsys, command, petersen_file, "--samples", samples)
    assert code == 5
    assert out == ""
    assert err.startswith("error: out of memory")


def test_commands_do_not_import_numpy_ma(petersen_file):
    # numpy.ma (imported by np.unique, among others) costs about a megabyte
    # of resident memory; the four commands run in one fresh interpreter.
    # Beyond the standard library they load numpy and curvkit alone: numpy
    # is the only runtime dependency
    script = f"""
import contextlib, io, sys
before = set(sys.modules)
from curvkit.cli import main
path = {petersen_file!r}
for argv in (["girth", path, "--per-vertex"], ["curvature-cd", path],
             ["curvature-cde", path, "--samples", "200"], ["verify", path, "--samples", "200"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(sorted(loaded - sys.stdlib_module_names - {{"numpy", "curvkit"}}))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n[]\n"


# ---- the report writer ------------------------------------------------------

def _typed(value):
    """value with every leaf as (type, repr), so 2 and 2.0, 0.0 and -0.0
    compare unequal."""
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return type(value), repr(value)


@pytest.mark.parametrize(
    "value",
    [1.0, -0.0, 5e-324, 0.1 + 0.2, 1e308, None, {"a": {}, "b": [[], {}]}, [None, -0.0, {"x": []}]],
)
def test_dumps_round_trips_values_and_types(value):
    assert _typed(json.loads(dumps(value))) == _typed(value)


def test_dumps_layout():
    doc = {"g": "inf", "r": [{"v": 0, "m": -0.0, "w": None}], "e": {}, "l": []}
    assert dumps(doc) == (
        '{\n  "g": "inf",\n  "r": [\n    {\n      "v": 0,\n      "m": -0.0,\n'
        '      "w": null\n    }\n  ],\n  "e": {},\n  "l": []\n}\n'
    )


@pytest.mark.parametrize(
    "value",
    [
        float("inf"), float("nan"), [1.0, -float("inf")],
        # in a record list, a witness, a nested dict and a nested list
        [{"a": 1.0, "b": float("nan")}, {"a": 2.0, "b": 0.0}],
        {"records": [{"a": 1.0}, {"a": 1.0, "witness": [0.0, float("inf")]}]},
        {"k": {"x": -float("inf")}, "l": []},
        [1.0, [float("nan")]],
    ],
)
def test_dumps_rejects_non_finite_floats(value):
    with pytest.raises(ValueError):
        dumps(value)


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps({"f": np.arange(2.0)})


def _standard(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _failing_report():
    """A verify report of the Petersen graph's first four vertices: two
    failing records, each with its witness, among passing ones."""
    from curvkit import VertexFunction
    from curvkit.verify import CurvatureReport, VertexReport

    def record(x, verdict, witness):
        return VertexReport(
            vertex=x, girth=inf if x == 2 else 5, cd_bound=-1 / 3, cd_computed=0.1 + 0.2,
            cd_margin=-0.0, cde_bound=None, cde_sampled_min=None, cde_margin=None,
            verdict=verdict, seed=None, witness=witness,
        )

    witness = VertexFunction(np.arange(10) / 7)
    return CurvatureReport(records=(
        record(0, "pass", None), record(1, "fail", witness), record(2, "pass", None),
        record(3, "fail", witness),
    ))


@pytest.mark.parametrize(
    "argv, failing",
    [
        (("girth",), False),
        (("girth", "--per-vertex"), False),
        (("curvature-cd",), False),
        (("curvature-cd", "--vertex", "3"), False),
        (("curvature-cde", "--samples", "200"), False),
        (("verify", "--theorem", "cd"), False),
        (("verify", "--samples", "200"), False),
        (("verify",), True),
    ],
    ids=["girth", "girth-per-vertex", "curvature-cd", "curvature-cd-one", "curvature-cde",
         "verify-cd", "verify", "verify-witness"],
)
def test_reports_are_the_standard_encoders_bytes(capsys, petersen_file, monkeypatch, argv, failing):
    # every kind of document the CLI writes, byte for byte what
    # json.dumps(indent=2) writes, witness records included
    import curvkit.cli as cli_mod

    if failing:
        monkeypatch.setattr(cli_mod, "verify_theorems", lambda *a, **k: _failing_report())
    code, out, _ = run(capsys, argv[0], petersen_file, *argv[1:], "--format", "json")
    assert code == (1 if failing else 0)
    doc = json.loads(out)
    assert out == _standard(doc)
    if failing:
        assert [r["vertex"] for r in doc["records"] if "witness" in r] == [1, 3]


@pytest.mark.parametrize(
    "value",
    [
        {"a": {}, "b": [[], {}], "c": [{}], "d": [{"x": 1}, {}]},
        [{"a": 1, "b": "},\n      {"}, {"a": [1, {"b": []}], "c": {"d": None}}, {"e": -0.0}],
        [{"v": 0, "w": [0.5, 1.0]}, {"v": 1}, {"v": 2, "w": []}],
        {1: [2], None: {True: 3.5}, 2.5: ({"q": ((1,),)},), "s\u00e9": ["\n"]},
        [[1, 2], [[3]], {"k": [{"l": [4]}]}],
        "", [], {}, 0, True, None,
    ],
)
def test_dumps_is_the_standard_encoders_bytes(value):
    assert dumps(value) == _standard(value)


# ---- CSV against JSON -----------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _assert_csv_matches(out: str, records: list[dict]) -> None:
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(records[0])
    assert rows[1:] == [[_cell(v) for v in r.values()] for r in records]


@pytest.mark.parametrize(
    "argv, key",
    [
        (("girth",), None),
        (("girth", "--per-vertex"), "per_vertex"),
        (("curvature-cd",), "records"),
        (("curvature-cde", "--samples", "200"), "records"),
        (("verify", "--samples", "200"), "records"),
    ],
    ids=["girth", "girth-per-vertex", "curvature-cd", "curvature-cde", "verify"],
)
@pytest.mark.parametrize("graph_file", ["petersen_file", "tree_file"])
def test_csv_is_the_json_records(capsys, request, argv, key, graph_file):
    path = request.getfixturevalue(graph_file)
    sub, *options = argv
    code, out, _ = run(capsys, sub, path, *options, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    records = [doc] if key is None else doc[key]
    code, out, _ = run(capsys, sub, path, *options, "--format", "csv")
    assert code == 0
    _assert_csv_matches(out, records)
    if sub == "girth":
        code, out, _ = run(capsys, sub, path, *options)
        assert code == 0
        lines = [line.split(" ") for line in out.splitlines()]
        assert lines == [[_cell(v) for v in r.values()] for r in records]


def test_verify_csv_leaves_out_the_witness(capsys, petersen_file, monkeypatch):
    import curvkit.cli as cli_mod
    from curvkit import VertexFunction
    from curvkit.verify import CurvatureReport, VertexReport

    fake = CurvatureReport(
        records=(
            VertexReport(
                vertex=0, girth=5, cd_bound=0.0,
                cd_computed=-1.0, cd_margin=-1.0, cde_bound=None,
                cde_sampled_min=None, cde_margin=None, verdict="fail",
                seed=None, witness=VertexFunction(np.arange(10.0) / 7),
            ),
        )
    )
    monkeypatch.setattr(cli_mod, "verify_theorems", lambda *a, **k: fake)
    code, out, _ = run(capsys, "verify", petersen_file, "--format", "json")
    assert code == 1
    records = json.loads(out)["records"]
    assert records[0]["witness"] == list(np.arange(10.0) / 7)
    code, out, _ = run(capsys, "verify", petersen_file, "--format", "csv")
    assert code == 1
    assert "witness" not in out.splitlines()[0].split(",")
    _assert_csv_matches(out, [{k: v for k, v in r.items() if k != "witness"} for r in records])


# ---- gen -------------------------------------------------------------------

def test_gen_cycle_six_lines(capsys):
    code, out, _ = run(capsys, "gen", "cycle", "6")
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_gen_petersen_fifteen_lines(capsys, tmp_path):
    target = tmp_path / "p.edges"
    code, out, _ = run(capsys, "gen", "petersen", "-o", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    assert len(text.strip().splitlines()) == 15
    assert parse_edge_list(text) == petersen()


def test_gen_random_girth_reproducible(capsys):
    code1, out1, _ = run(
        capsys, "gen", "random-girth", "20", "25", "--min-girth", "5", "--seed", "7"
    )
    code2, out2, _ = run(
        capsys, "gen", "random-girth", "20", "25", "--min-girth", "5", "--seed", "7"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    g = parse_edge_list(out1)
    assert g.vertex_count == 20 and g.edge_count == 25


def test_gen_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "tree", "9", "--seed", "3")
    assert code == 0
    g = parse_edge_list(out)
    assert serialize_edge_list(g) == out


def test_gen_bad_params_exit64(capsys):
    code, _, err = run(capsys, "gen", "cycle", "2")
    assert code == 64
    code, _, _ = run(capsys, "gen", "cycle")
    assert code == 64
    code, _, _ = run(capsys, "gen", "random-girth", "10")
    assert code == 64


@pytest.mark.parametrize("command", ["verify", "curvature-cde", "gen"])
def test_seed_outside_64_bits_is_usage_error(capsys, star3_file, command):
    # the random streams read a seed modulo 2^64, so -1 would draw what
    # 2^64 - 1 draws and 2^64 what 0 draws, under another recorded seed
    if command == "gen":
        head = ("gen", "random-girth", "10", "12")
    else:
        head = (command, star3_file, "--samples", "50")
    for seed in ("-1", str(2**64)):
        code, out, err = run(capsys, *head, "--seed", seed)
        assert code == 64 and out == ""
        assert err.startswith("usage error:") and "--seed" in err
    drawn = {}
    for seed in (0, 2**64 - 1):
        code, out, _ = run(capsys, *head, "--seed", str(seed))
        assert code == 0
        drawn[seed] = out
        if command != "gen":
            assert {rec["seed"] for rec in json.loads(out)["records"]} == {seed}
    if command == "gen":
        assert drawn[0] != drawn[2**64 - 1]


# ---- error handling ---------------------------------------------------------

def test_missing_file_exit2(capsys):
    code, _, err = run(capsys, "girth", "/nonexistent/file.edges")
    assert code == 2 and err


def test_malformed_file_exit2(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\nnot an edge\n")
    code, _, err = run(capsys, "girth", str(bad))
    assert code == 2 and "line 2" in err


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_line_separator_inside_a_line_exit2(capsys, tmp_path, sep):
    # only "\n" ends a line: "0 1<sep>1 2" is one malformed line, not two edges
    bad = tmp_path / "sep.edges"
    bad.write_bytes(f"0 1{sep}1 2\n".encode())
    for sub in ("girth", "verify"):
        code, out, err = run(capsys, sub, str(bad))
        assert code == 2 and out == "" and "line 1" in err


def test_self_loop_file_exit2(capsys, tmp_path):
    bad = tmp_path / "loop.edges"
    bad.write_text("0 0\n")
    for sub in ("girth", "curvature-cd", "verify"):
        code, _, _ = run(capsys, sub, str(bad))
        assert code == 2


def test_disconnected_file_exit2(capsys, tmp_path):
    bad = tmp_path / "disc.edges"
    bad.write_text("0 1\n2 3\n")
    code, _, err = run(capsys, "girth", str(bad))
    assert code == 2 and "disconnected" in err


def test_unknown_subcommand_exit64(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 64


def test_no_subcommand_exit64(capsys):
    code, _, _ = run(capsys)
    assert code == 64


def test_bad_theorem_choice_exit64(capsys, petersen_file):
    code, _, _ = run(capsys, "verify", petersen_file, "--theorem", "bogus")
    assert code == 64


def test_vertex_out_of_range_exit2(capsys, star3_file):
    # the library rejects the vertex before the first result, so no record
    # is written
    for command in ("curvature-cd", "curvature-cde"):
        code, out, err = run(capsys, command, star3_file, "--vertex", "99")
        assert (code, out) == (2, "")
        assert err == "input error: vertex 99 out of range 0..3\n"
