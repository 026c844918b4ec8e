"""Benchmark of ``curvkit verify``, measured from outside the package.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another

A workload run is one fresh interpreter. It times set-up (fresh interpreters
importing ``curvkit.cli``), writes the workload's graphs as edge-list files,
then calls ``curvkit.cli.main(["verify", <file>, ...])`` on every file in
turn, pass after pass, for about ``--seconds``. ``curvkit`` is imported from
``src/``, not from an installed copy. Every invocation goes through the
correctness gate (``gate.py``).

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``. With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics, computed from spans recorded by
wrappers around the calls into each module (``tracer.py``).

Every metric is printed by name and unit; the last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every invocation passed the gate.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import gate
import machine
from tracer import ROOT_SPAN, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 11
MIN_UNTRACED_PASSES = 2   # a median, and a second report to compare bytes with
CHILD_TIMEOUT_S = 900
# the benchmark times one single-threaded interpreter per workload
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def measure_setup() -> list[float]:
    """Wall seconds of fresh interpreters that start and import curvkit.cli."""
    command = [sys.executable, "-c", "import curvkit.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))   # thread limits already set
    subprocess.run(command, env=env, cwd=ROOT, check=True, timeout=120)  # writes bytecode
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def run_pass(cli, cases, files, ledger, tracer=None) -> tuple[float, float, int]:
    """One verify call per file: (wall s, process cpu s, report bytes)."""
    outcomes = []
    cpu_start = time.process_time()
    start = time.perf_counter()
    for case, path in zip(cases, files):
        argv = ["verify", str(path), *case.options]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    with tracer.span(ROOT_SPAN, vertices=case.graph.vertex_count):
                        code = cli.main(argv)
            except Exception:   # fails this invocation, not the whole run
                code = None
                traceback.print_exc()
        outcomes.append((case.label, code, out.getvalue().encode(), err.getvalue()))
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    for outcome in outcomes:
        ledger.record(*outcome)
    return wall, cpu, sum(len(report) for _, _, report, _ in outcomes)


def measure(cli, cases, files, ledger, seconds: float, trace: bool) -> dict:
    """Repeat passes (untraced, or untraced + traced pairs) for ~seconds.

    Stops at the pass boundary nearest to `seconds`, after at least two
    untraced passes, or one pair when tracing.
    """
    untraced: list[tuple[float, float]] = []
    traced: list[dict[str, float]] = []
    traced_walls: list[float] = []
    tracer = Tracer() if trace else None
    missing: list[str] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        wall, cpu, report_bytes = run_pass(cli, cases, files, ledger)
        untraced.append((wall, cpu))
        if tracer is not None:
            tracer.spans = []
            with tracer.installed_wrappers():
                wall, _, _ = run_pass(cli, cases, files, ledger, tracer)
            layers, missing = layer_metrics(tracer.spans, tracer.installed)
            layers["report.bytes"] = report_bytes
            traced.append(layers)
            traced_walls.append(wall)
        rounds += 1
        elapsed = time.perf_counter() - start
        enough = rounds >= (1 if trace else MIN_UNTRACED_PASSES)
        if enough and elapsed >= seconds - 0.5 * elapsed / rounds:
            break
    return {
        "pass_s": [wall for wall, _ in untraced],
        "cpu_s": [cpu for _, cpu in untraced],
        "traced": traced,
        "traced_pass_s": traced_walls,
        "missing": missing,
        "missing_names": tracer.missing if tracer else [],
    }


def run_workload(args, spec: dict) -> int:
    """One workload in this interpreter; prints its metrics and result line."""
    if not (SRC / "curvkit" / "__init__.py").is_file():
        print(f"error: no curvkit sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    gauges_before = machine.gauges()
    setup_times = measure_setup()

    import curvkit.cli as cli
    from curvkit import serialize_edge_list

    from workloads import WORKLOADS

    cases = WORKLOADS[args.workload](args.seed)
    ledger = gate.Ledger(gate.validator(SRC / "curvkit" / "report.schema.json"))
    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        files = []
        for case in cases:
            path = workdir / f"{case.label}.edges"
            path.write_text(serialize_edge_list(case.graph))
            files.append(path)
        result = measure(cli, cases, files, ledger, args.seconds, args.trace == 1)
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = machine.environment(gauges_before, machine.gauges())

    excesses = ledger.cde_excesses()
    if args.trace:
        values = {
            name: statistics.median(samples)
            for name, samples in _by_metric(result["traced"]).items()
        }
        values["proc.cpu_s"] = statistics.median(result["cpu_s"])
        values["trace.overhead_frac"] = (
            statistics.median(result["traced_pass_s"]) / statistics.median(result["pass_s"])
            - 1.0
        )
        values["cde.excess_mean"] = statistics.fmean(excesses) if excesses else 0.0
        declared = spec["per_layer"]
    else:
        values = {
            "verify_s": statistics.median(result["pass_s"]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        declared = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }

    print(f"workload {args.workload}  seed {args.seed}  files {len(cases)}  "
          f"passes {len(result['pass_s'])}  traced passes {len(result['traced'])}")
    print("untraced pass_s " + " ".join(f"{t:.4f}" for t in result["pass_s"]))
    print("untraced cpu_s " + " ".join(f"{t:.4f}" for t in result["cpu_s"]))
    if args.trace:
        print("traced pass_s " + " ".join(f"{t:.4f}" for t in result["traced_pass_s"]))
    print("setup launches_s " + " ".join(f"{t:.4f}" for t in setup_times))
    for name, metric in metrics.items():
        print(f"{name:<24} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_frac':<24} {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed}/{ledger.attempted} invocations)")
    if excesses:
        print(f"{'cde_excess_mean':<24} {statistics.fmean(excesses):.6g} "
              f"(over {len(excesses)} gated vertices)")
    if result["missing"]:
        print(f"missing metrics: {', '.join(result['missing'])} "
              f"(not found: {', '.join(result['missing_names']) or 'span attributes'})")
    print("env " + json.dumps(env))
    for label, problems, stderr in ledger.failures[:5]:
        print(f"gate failure {label}: {'; '.join(problems)}", file=sys.stderr)
        if stderr:
            print(stderr.rstrip(), file=sys.stderr)

    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _by_metric(passes: list[dict[str, float]]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for layers in passes:
        for name, value in layers.items():
            out.setdefault(name, []).append(value)
    return out


def run_all(args, spec: dict) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
