"""Digest the output of a fixed set of curvkit command runs, one line each.

    PYTHONPATH=src python3 tools/report_digests.py

Each line is ``<label> <exit code> <sha256 of stdout + NUL + stderr>``.
Every run goes in process through ``curvkit.cli.main``, and ``curvkit`` is
imported from ``PYTHONPATH``, so one copy of this script digests any tree:
run it once with each tree's ``src/`` and compare the lines, and two trees
agree exactly where their reports, log lines and exit codes are
byte-identical. No digests are kept in the repository, because the CD bits
depend on the numpy and LAPACK build.

The 183 runs:

* the benchmark's workload cases (``perfbench/workloads.py``) at seed 1,
  each with its own ``verify`` options;
* ``verify --theorem both --samples 1000 --seed 1`` on every graph of
  ``girth5_corpus()`` and ``small_mixed_corpus()`` (``tests/conftest.py``);
* ``curvature-cde --samples 1000 --seed 1`` on every graph of
  ``small_mixed_corpus()`` and on three graphs of ``girth5_corpus()``
  (Petersen, a random girth-5 graph and a tree), at the default
  ``--dim 2`` and again at ``--dim 0.5`` and ``--dim 3.5``, so the descent
  runs at other dimensions, over the coupling terms of triangles and
  4-cycles, and over the tree 2-balls whose signatures are searched once;
* ``verify --theorem cd -v`` on the README's generated ``g.edges``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path

from curvkit import cli, serialize_edge_list

ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path):
    """The module at path, imported under its file name."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = sys.modules[path.stem] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and digest of one command run in process; each run shows
    its warnings afresh, as a new interpreter would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        code = cli.main(argv)
    data = out.getvalue().encode() + b"\0" + err.getvalue().encode()
    return code, hashlib.sha256(data).hexdigest()


def runs():
    """(label, command line) of every run, its edge-list file written to the
    working directory first."""
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    corpora = _load(ROOT / "tests" / "conftest.py")

    def written(name: str, graph) -> str:
        Path(name).write_text(serialize_edge_list(graph))
        return name

    for cases in workloads.WORKLOADS.values():
        for case in cases(1):
            yield case.label, ["verify", written(f"{case.label}.edges", case.graph), *case.options]
    both = ["--theorem", "both", "--samples", "1000", "--seed", "1"]
    girth5 = {f"girth5-{i}": written(f"girth5-{i}.edges", g)
              for i, g in enumerate(corpora.girth5_corpus())}
    for label, file in girth5.items():
        yield label, ["verify", file, *both]
    mixed = {f"mixed-{i}": written(f"mixed-{i}.edges", g)
             for i, g in enumerate(corpora.small_mixed_corpus())}
    for label, file in mixed.items():
        yield label, ["verify", file, *both]
    cde = ["--samples", "1000", "--seed", "1"]
    # Petersen, a random girth-5 graph and a tree
    cde_files = {**mixed, **{i: girth5[i] for i in ("girth5-0", "girth5-1", "girth5-21")}}
    for label, file in cde_files.items():
        yield f"{label}-cde", ["curvature-cde", file, *cde]
    for dim in ("0.5", "3.5"):
        for label, file in cde_files.items():
            yield f"{label}-cde-dim{dim}", ["curvature-cde", file, *cde, "--dim", dim]
    gen = ["gen", "random-girth", "30", "36", "--min-girth", "5", "--seed", "7", "-o", "g.edges"]
    if cli.main(gen) != 0:
        raise SystemExit("could not write the README's g.edges")
    yield "readme-g", ["verify", "g.edges", "--theorem", "cd", "-v"]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for label, argv in runs():
            code, digest = _run(argv)
            print(label, code, digest, flush=True)


if __name__ == "__main__":
    main()
