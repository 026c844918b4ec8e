"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line on the real
stdout (bypassing capture, so the lines always show) and asserts the
criterion at its stated tolerance, including the runtime budgets.
"""

from __future__ import annotations

import sys
import time
from math import inf

import numpy as np

from conftest import random_functions
from curvkit import (
    approx_equal,
    cd_bound_girth5,
    cd_curvature,
    cd_witness_value,
    cde_estimate,
    cde_ratio,
    cycle,
    gamma,
    gamma2,
    gamma2_local,
    gamma_iterate,
    gamma_local,
    graph_girth,
    laplacian,
    parse_edge_list,
    petersen,
    random_tree,
    random_with_girth,
    serialize_edge_list,
    star,
    vertex_girth,
)
from curvkit.cde import _batch_ratios, _structured_rows
from curvkit.cli import main
from curvkit.localforms import LocalEvaluator
from curvkit.rng import derive_stream
from oracles import brute_force_vertex_girth, direct_gamma, direct_gamma2, rayleigh_cd_minimum


def _announce(num: int, ok: bool, description: str, elapsed: float | None = None,
              budget: float | None = None) -> None:
    stamp = ""
    if budget is not None:
        stamp = f"  [{elapsed:.1f}s / {budget:.0f}s]"
    print(
        f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {description}{stamp}",
        file=sys.__stdout__,
        flush=True,
    )
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_gamma_identity(corpus_operators):
    start = time.perf_counter()
    ok = True
    for g, seed in corpus_operators:
        for f in random_functions(g, 10, seed=1000 + seed):
            for x in range(g.vertex_count):
                if not approx_equal(gamma(g, f, f, x), gamma_local(g, f, x), rel=1e-10):
                    ok = False
    elapsed = time.perf_counter() - start
    _announce(1, ok and elapsed < 10.0,
              "gamma == gamma_local at 1e-10 on 100 graphs x 10 functions",
              elapsed, 10.0)


def test_criterion_02_gamma2_identity(corpus_operators):
    start = time.perf_counter()
    ok = True
    for g, seed in corpus_operators:
        for f in random_functions(g, 10, seed=2000 + seed):
            for x in range(g.vertex_count):
                if not approx_equal(gamma2(g, f, x), gamma2_local(g, f, x), rel=1e-10):
                    ok = False
    elapsed = time.perf_counter() - start
    _announce(2, ok and elapsed < 30.0,
              "gamma2 == gamma2_local at 1e-10 on the same corpus",
              elapsed, 30.0)


def test_criterion_03_gamma_iteration(corpus_operators):
    # gamma and gamma2 are gamma_iterate at i = 1, 2; the reference is the
    # direct definitional formulas of the oracles
    ok = True
    for g, seed in corpus_operators:
        f, h = random_functions(g, 2, seed=3000 + seed)
        for x in range(g.vertex_count):
            if not approx_equal(gamma_iterate(g, f, h, x, 1), direct_gamma(g, f, h, x),
                                rel=1e-12):
                ok = False
            if not approx_equal(gamma_iterate(g, f, f, x, 2), direct_gamma2(g, f, x),
                                rel=1e-12):
                ok = False
    _announce(3, ok,
              "gamma_iterate matches the direct G (i=1) and G_2 (i=2) formulas at 1e-12")


def test_criterion_04_exact_cd_values():
    star_k = cd_curvature(star(3), 0, 2.0).curvature_K
    ok = abs(star_k - 1.0) <= 1e-8
    for x in range(6):
        ok = ok and abs(cd_curvature(cycle(6), x, 2.0).curvature_K) <= 1e-8
    _announce(4, ok, "tightness: star3 center K=1.0, every C6 vertex K=0.0 (1e-8)")


def test_criterion_05_cd_theorem_corpus(corpus_girth5):
    start = time.perf_counter()
    ok = True
    for g in corpus_girth5:
        for x in range(g.vertex_count):
            computed = cd_curvature(g, x, 2.0).curvature_K
            if computed < cd_bound_girth5(g, x) - 1e-8:
                ok = False
    elapsed = time.perf_counter() - start
    _announce(5, ok and elapsed < 60.0,
              "cd_computed >= degree bound - 1e-8 on petersen + 20 girth-5 + 10 trees",
              elapsed, 60.0)


def test_criterion_06_witness_reproduction(corpus_girth5):
    ok = True
    for g in corpus_girth5:
        for x in range(g.vertex_count):
            for i, y in enumerate(g.adjacency[x]):
                k = g.degree(y)
                if abs(cd_witness_value(g, x, i) - (-(k - 2.0) / k)) > 1e-12:
                    ok = False
    _announce(6, ok, "CD ratio of the witness construction equals -(k-2)/k to 1e-12 on the corpus")


def test_criterion_07_eigen_vs_oracle():
    start = time.perf_counter()
    graphs = [petersen(), star(3), cycle(6),
              random_tree(8, 0), random_tree(9, 1), random_tree(10, 2),
              random_with_girth(15, 21, 5, 0), random_with_girth(17, 23, 5, 4),
              random_with_girth(19, 25, 5, 8), random_with_girth(21, 27, 5, 12)]
    assert len(graphs) == 10
    worst = 0.0
    for g in graphs:
        for x in range(g.vertex_count):
            k = cd_curvature(g, x, 2.0).curvature_K
            oracle = rayleigh_cd_minimum(g, x, 2.0, restarts=10000, seed=7)
            worst = max(worst, abs(k - oracle))
    elapsed = time.perf_counter() - start
    _announce(7, worst <= 1e-6,
              f"eigen route vs 1e4-restart Rayleigh search (worst |diff| {worst:.2e})")


def test_criterion_08_cde_falsification(corpus_girth5):
    start = time.perf_counter()
    ok = True
    for g in corpus_girth5:
        for x in range(g.vertex_count):
            bound = -g.degree(x) / 2.0 - 1.0
            est = cde_estimate(g, x, 2.0, samples=10000, seed=0)
            if est.sampled_min < bound - 1e-8:
                # a candidate below the bound must survive definitional
                # re-verification to count as a violation
                if cde_ratio(g, x, 2.0, est.function) < bound - 1e-8:
                    ok = False
    # structured family f(z) = f(y)^2 is part of every scan
    spot = [(corpus_girth5[0], 0), (corpus_girth5[1], 3), (corpus_girth5[-1], 1)]
    for g, x in spot:
        ev = LocalEvaluator(g, x)
        rows = _structured_rows(ev, derive_stream(0, x))
        structured_min = float(np.min(_batch_ratios(ev, rows, 2.0)))
        est = cde_estimate(g, x, 2.0, samples=10000, seed=0)
        if not (len(rows) and est.sampled_min <= structured_min):
            ok = False
    elapsed = time.perf_counter() - start
    _announce(8, ok and elapsed < 300.0,
              "no cde violation below -d/2-1-1e-8 at 1e4 samples/vertex",
              elapsed, 300.0)


def test_criterion_09_girth_oracle(corpus_small):
    ok = True
    checked = 0
    for g in corpus_small:
        if g.vertex_count > 12:
            continue
        checked += 1
        for x in range(g.vertex_count):
            if vertex_girth(g, x) != brute_force_vertex_girth(g, x):
                ok = False
    for seed in range(5):
        tree = random_tree(10, seed)
        if graph_girth(tree) != inf:
            ok = False
    if graph_girth(petersen()) != 5:
        ok = False
    _announce(9, ok and checked >= 10,
              f"vertex_girth == brute-force enumeration on {checked} graphs <= 12 vertices")


def test_criterion_10_invariance_suite(corpus_small):
    ok = True
    rng = np.random.default_rng(99)
    for g in corpus_small[:10]:
        f = rng.normal(size=g.vertex_count)
        for x in range(g.vertex_count):
            shifted = f + 3.75
            ok = ok and approx_equal(gamma(g, f, f, x), gamma(g, shifted, shifted, x),
                                     rel=1e-12)
            ok = ok and approx_equal(gamma2(g, f, x), gamma2(g, shifted, x), rel=1e-12)
            ok = ok and approx_equal(laplacian(g, f, x), laplacian(g, shifted, x),
                                     rel=1e-12)
            c = -1.75
            ok = ok and approx_equal(gamma(g, c * f, c * f, x),
                                     c * c * gamma(g, f, f, x), rel=1e-10)
            ok = ok and approx_equal(gamma2(g, c * f, x), c * c * gamma2(g, f, x),
                                     rel=1e-10)
    # cde ratio scale invariance for c > 0
    for g in (star(3), petersen(), cycle(6)):
        x = 0
        vals = np.exp(0.4 * rng.normal(size=g.vertex_count))
        vals[x] = 1.0
        for y in g.adjacency[x]:
            vals[y] = 0.4
        base = cde_ratio(g, x, 2.0, vals)
        for c in (0.1, 2.0, 25.0):
            ok = ok and approx_equal(cde_ratio(g, x, 2.0, c * vals), base, rel=1e-9)
    # locality: distance-3 perturbations change nothing
    from curvkit import path

    g = path(7)
    f = rng.normal(size=7)
    pos = np.exp(f / 4)
    for far in (3, 4, 5, 6):
        bumped = f.copy()
        bumped[far] += 9.0
        ok = ok and laplacian(g, bumped, 0) == laplacian(g, f, 0)
        ok = ok and gamma(g, bumped, bumped, 0) == gamma(g, f, f, 0)
        ok = ok and gamma2(g, bumped, 0) == gamma2(g, f, 0)
        pos_b = pos.copy()
        pos_b[far] *= 3.0
        k0 = cd_curvature(g, 0, 2.0).curvature_K
        ok = ok and cd_curvature(g, 0, 2.0).curvature_K == k0
    _announce(10, ok, "invariance suite: add-constant, scaling, cde scale, locality")


def test_criterion_11_cli_determinism_round_trip(tmp_path, capsys):
    ok = True
    # generator -> serialize -> parse is the identity
    graphs = [petersen(), cycle(9), star(5), random_tree(14, 2),
              random_with_girth(18, 23, 5, 3)]
    for g in graphs:
        if parse_edge_list(serialize_edge_list(g)) != g:
            ok = False
    # CLI: verify on petersen exits 0 with byte-identical JSON
    pfile = tmp_path / "petersen.edges"
    pfile.write_text(serialize_edge_list(petersen()))
    code1 = main(["verify", str(pfile), "--seed", "0"])
    out1 = capsys.readouterr().out
    code2 = main(["verify", str(pfile), "--seed", "0"])
    out2 = capsys.readouterr().out
    ok = ok and code1 == 0 and code2 == 0 and out1 == out2 and len(out1) > 0
    # CLI gen round trip
    code3 = main(["gen", "random-girth", "20", "25", "--min-girth", "5", "--seed", "7"])
    gen_out = capsys.readouterr().out
    ok = ok and code3 == 0
    ok = ok and serialize_edge_list(parse_edge_list(gen_out)) == gen_out
    _announce(11, ok, "gen/serialize/parse round trip; verify JSON byte-identical, exit 0")
