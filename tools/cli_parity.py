"""Byte-for-byte parity of the gpdist CLI between two source trees.

Usage, from the repository root::

    python3 tools/cli_parity.py OLD_TREE NEW_TREE [scenario.yaml ...]

Each tree is a checkout that holds ``src/gpdist``.  The scenarios are the
given YAML files and the benchmark's own: seeds 1-3 (``--seeds``) of every
workload in ``perfbench/run.py``, built by ``perfbench/scenarios.py`` and
written as the benchmark writes them.  Each scenario runs under ``run`` and
``compare``, writing csv and json, with ``--seed 3``: one ``python -m
gpdist.cli`` process per tree, in a fresh temporary directory, with ``--out
out``.  The exit code, standard output, standard error and every file
written must be the same bytes.  Each difference is printed as one line
naming the scenario, the command and what differs; the exit code is 0
when there is none and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("run", "compare")
FORMATS = ("csv", "json")
CLI_SEED = "3"


def perfbench_scenarios(seeds: list[int]):
    """(label, YAML bytes) of every scenario the benchmark runs at these
    seeds, dumped as ``perfbench/run.py`` dumps them."""
    if not seeds:
        return
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    import yaml

    import run as perfbench

    for workload, build in perfbench.WORKLOADS.items():
        for seed in seeds:
            steps = build(np.random.default_rng(seed), perfbench.N_STEPS)
            for i, (_, scenario) in enumerate(steps):
                yield (f"perfbench {workload} seed {seed} step {i}",
                       yaml.safe_dump(scenario).encode())


def outcome(tree: Path, scenario: bytes, command: str, fmt: str) -> dict:
    """Exit code, stdout, stderr and each written file of one CLI run."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "scenario.yaml").write_bytes(scenario)
        proc = subprocess.run(
            [sys.executable, "-m", "gpdist.cli", command, "scenario.yaml",
             "--out", "out", "--format", fmt, "--seed", CLI_SEED],
            cwd=tmp, capture_output=True,
            env={**os.environ, "PYTHONPATH": str(tree / "src"),
                 "PYTHONDONTWRITEBYTECODE": "1"})
        out = Path(tmp, "out")
        files = {f"file {p.relative_to(tmp).as_posix()}": p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, **files}


def differences(a: dict, b: dict):
    for key in sorted(a.keys() | b.keys()):
        if key not in b:
            yield f"{key} only in the first tree"
        elif key not in a:
            yield f"{key} only in the second tree"
        elif a[key] != b[key]:
            yield (f"{key} {a[key]} != {b[key]}" if key == "exit code"
                   else f"{key} differs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare the gpdist CLI's outputs between two trees.")
    parser.add_argument("trees", nargs=2, type=Path, metavar="TREE")
    parser.add_argument("scenarios", nargs="*", type=Path,
                        help="YAML scenario files")
    parser.add_argument("--seeds", nargs="*", type=int, default=[1, 2, 3],
                        help="benchmark seeds; none leaves the benchmark's "
                             "scenarios out")
    parser.add_argument("--commands", nargs="+", choices=COMMANDS,
                        default=COMMANDS)
    args = parser.parse_args(argv)
    for tree in args.trees:
        if not (tree / "src" / "gpdist" / "cli.py").is_file():
            parser.error(f"{tree}: no src/gpdist/cli.py")
    for path in args.scenarios:
        if not path.is_file():
            parser.error(f"{path}: no such file")

    cases = [(str(path), path.read_bytes()) for path in args.scenarios]
    cases += perfbench_scenarios(args.seeds)
    runs = found = 0
    for label, scenario in cases:
        for command in args.commands:
            for fmt in FORMATS:
                runs += 1
                for diff in differences(
                        *(outcome(tree.resolve(), scenario, command, fmt)
                          for tree in args.trees)):
                    found += 1
                    print(f"{label}: {command} --format {fmt}: {diff}",
                          flush=True)
    print(f"{runs} runs per tree, {found} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
