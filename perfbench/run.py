"""gpdist benchmark: drives ``gpdist.cli.main`` in process on seeded
scenarios and checks every table it writes.

Usage, from the repository root::

    python3 perfbench/run.py --workload joint_run --seed 1 --seconds 20 --trace 0

One process runs the passes serially in a closed loop: each pass starts
after the previous one ends.  A pass starts with the scenario YAML on disk
and ends when the CLI has written its tables.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a separate traced
run.  The last line of standard output is one JSON object; the lines before
it are a readable report.  The exit code is 0 when every pass succeeded and
every table matched its independent reference, 1 when one did not, and 2
when the benchmark cannot run at all (for example without ``src/gpdist``).
"""

from __future__ import annotations

import os

# Set before numpy loads: every matrix here is at most 32 x 32, where BLAS
# threads add scheduling noise and no speed.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import yaml

import checks
import scenarios
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
N_STEPS = 4096
LINDBLAD_STEPS = 16384
MIN_TIMED_PASSES = 3
SETUP_REPEATS = 9

END_TO_END = {"wall_s": "s", "peak_mem_mb": "MB", "gp_err_rad": "rad",
              "setup_s": "s"}
TRACE_OVERHEAD = "trace.overhead_s"


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    return "MB" if name.endswith("_mb") else "count"


# Why each workload exists is recorded in BENCHMARK.json; the builders only
# fix sizes.  Arguments: seeded generator, grid steps.
WORKLOADS = {
    "joint_compare": lambda rng, n: [
        ("compare", scenarios.custom_joint(rng, 16, "theta", 3, n, []))],
    "joint_run": lambda rng, n: [
        ("run", scenarios.custom_joint(
            rng, 4, "omega", 8, n,
            ["moments", "atoms", "decomposition_check"]))],
    "twolevel": lambda rng, n: [
        ("run", scenarios.custom_lindblad_se(rng, n * LINDBLAD_STEPS // N_STEPS)),
        ("run", scenarios.phase_damping(rng, 8, n))],
}


@dataclass
class Step:
    """One CLI invocation of a pass, with its files and references."""

    command: str
    scenario: dict
    yaml_path: Path
    out_dir: Path
    refs: list


def prepare(workload: str, seed: int, work: Path, n_steps: int) -> list[Step]:
    rng = np.random.default_rng(seed)
    steps = []
    for i, (command, scn) in enumerate(WORKLOADS[workload](rng, n_steps)):
        d = work / f"step{i}"
        d.mkdir(parents=True)
        path = d / "scenario.yaml"
        path.write_text(yaml.safe_dump(scn))
        steps.append(Step(command, scn, path, d / "out",
                          checks.gp_references(scn)))
    return steps


@dataclass
class PassResult:
    seconds: float
    ok: bool
    gp_err_rad: float
    problems: list[str]


def execute(steps: list[Step]) -> tuple[float, list, str]:
    """One pass over the steps: (wall seconds, exit codes, CLI output)."""
    import gpdist.cli as cli

    for step in steps:
        shutil.rmtree(step.out_dir, ignore_errors=True)
    log = io.StringIO()
    codes = []
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for step in steps:
            try:
                codes.append(cli.main([step.command, str(step.yaml_path),
                                       "--out", str(step.out_dir)]))
            except Exception:  # a crash is a failed pass, not a dead benchmark
                traceback.print_exc()
                codes.append(None)
    return time.perf_counter() - t0, codes, log.getvalue()


def check(steps: list[Step], seconds: float, codes: list, log: str) -> PassResult:
    """Exit codes and written tables of one executed pass."""
    problems, gp_err = [], 0.0
    for step, code in zip(steps, codes):
        if code != 0:
            problems.append(f"{step.command} {step.scenario['model']}: exit "
                            f"code {code}: {log.strip()[-500:]}")
            continue
        res = checks.check_outputs(step.command, step.scenario, step.refs,
                                   step.out_dir)
        problems += [f"{step.scenario['model']}: {p}" for p in res.problems]
        gp_err = max(gp_err, res.gp_err_rad)
    return PassResult(seconds, not problems, gp_err, problems)


def run_pass(steps: list[Step]) -> PassResult:
    """One timed pass, then its output checks (untimed)."""
    return check(steps, *execute(steps))


SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.perf_counter(); import gpdist.cli; "
              "print(time.perf_counter() - t)")


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of ``import gpdist.cli`` in a fresh interpreter.

    One extra import runs first and is dropped: it may compile bytecode,
    which users pay only once.
    """
    times = []
    for _ in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times[1:])


def memory_pass(steps: list[Step]) -> tuple[PassResult, float, float]:
    """Untimed pass under tracemalloc: (result, pass peak MB, largest
    ``build_AB`` span peak MB).  The output checks run after tracing stops."""
    with tracing.build_ab_peak() as state:
        tracemalloc.start()
        try:
            executed = execute(steps)
            peak = max(state["pass_peak"], tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return check(steps, *executed), peak / 1e6, state["span_mb"]


def high_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples above it."""
    p = int(100 * (1 - 10 / n)) if n > 10 else 0
    return p if p > 0 else None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    if threads > nproc:
        raise RuntimeError(f"BLAS threads {threads} exceed nproc {nproc}")
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def _timed_loop(seconds: float, body):
    """Call ``body`` until ``seconds`` have passed and it has run at least
    MIN_TIMED_PASSES times."""
    t0, n = time.perf_counter(), 0
    while n < MIN_TIMED_PASSES or time.perf_counter() - t0 < seconds:
        body()
        n += 1


def measure(workload: str, seed: int, seconds: float, trace: bool,
            n_steps: int = N_STEPS) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and report lines."""
    report = [f"machine: {json.dumps(machine())}"]
    setup_s = None if trace else measure_setup()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        steps = prepare(workload, seed, work, n_steps)
        # The memory pass also warms caches before anything is timed.
        mem, peak_mb, build_ab_mb = memory_pass(steps)
        results = [mem]
        if trace:
            tracer, plain, traced, layers = tracing.Tracer(), [], [], []

            def body():
                results.append(run_pass(steps))
                plain.append(results[-1].seconds)
                with tracer.installed():
                    results.append(run_pass(steps))
                traced.append(results[-1].seconds)
                layers.append(tracer.take_pass())
            _timed_loop(seconds, body)
        else:
            _timed_loop(seconds, lambda: results.append(run_pass(steps)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r.ok for r in results)
    for r in results:
        report += [f"check failed: {p}" for p in r.problems]
    report.append(f"{workload} seed {seed}: failed_ratio {failed / len(results):g} "
                  f"({failed} of {len(results)} passes)")
    if trace:
        metrics = _layer_metrics(layers, tracer.absent, build_ab_mb, report)
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics[TRACE_OVERHEAD] = overhead
        report.append(f"traced wall {statistics.median(traced):.4f} s, "
                      f"untraced {statistics.median(plain):.4f} s, "
                      f"tracing overhead {overhead:.4f} s")
    else:
        times = [r.seconds for r in results[1:]]
        metrics = {"wall_s": statistics.median(times), "peak_mem_mb": peak_mb,
                   "gp_err_rad": max(r.gp_err_rad for r in results),
                   "setup_s": setup_s}
        report.append(f"wall_s samples {len(times)}, highest percentile with "
                      f"ten samples beyond it: {high_percentile(len(times))}")
    out = {"correct": failed == 0, "attempted": len(results), "failed": failed,
           "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}
    report += [f"  {k:<44} {m['value']:.6g} {m['unit']}"
               for k, m in out["metrics"].items()]
    return out, report


def _layer_metrics(layers: list[dict], absent: list[str], build_ab_mb: float,
                   report: list[str]) -> dict:
    """Median per-pass value of every per-layer metric; absent ones are 0
    and named in the report."""
    metrics = {}
    for name in tracing.metric_names():
        if name == tracing.BUILD_AB_PEAK:
            metrics[name] = build_ab_mb
        else:
            metrics[name] = statistics.median(p.get(name, 0.0) for p in layers)
    gone = [n for n in tracing.metric_names()
            if n.rsplit(".", 1)[0] in absent or n in absent]
    if gone:
        report.append(f"absent (package no longer has them): {', '.join(gone)}")
    per_layer = {}
    for name, value in metrics.items():
        if name.endswith(".self_s"):
            layer = name.split(".", 1)[0]
            per_layer[layer] = per_layer.get(layer, 0.0) + value
    total = sum(per_layer.values()) or 1.0
    report.append("self time by layer: " + ", ".join(
        f"{k} {v:.3f} s ({100 * v / total:.0f}%)"
        for k, v in sorted(per_layer.items(), key=lambda kv: -kv[1])))
    inclusive = {n: statistics.median(p.get(f"{n}.total_s", 0.0) for p in layers)
                 for n in tracing.TRACED if n != "cli.main"}
    report.append("total time with callees: " + ", ".join(
        f"{k} {v:.3f} s ({100 * v / total:.0f}%)"
        for k, v in sorted(inclusive.items(), key=lambda kv: -kv[1]) if v > 0))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gpdist" / "cli.py").is_file():
        print(f"error: no gpdist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out, report = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print("\n".join(report))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
