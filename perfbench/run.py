"""Benchmark of the boundary-distill CLI: three workloads, end-to-end and
per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload matrix --seed 0 --seconds 40 --trace 0

With --trace 0 every CLI command runs in a fresh interpreter, as a user
runs it, and the run reports wall_s, setup_s, peak_rss_mb and acc_final.
With --trace 1 the same commands run in one process through `cli.main`
with wrappers around each layer's entry points (see tracer.py), and the
run reports per-layer times and counts. The last line of standard output
is one JSON object: correct, attempted, failed and metrics. A result file
with the environment, the cell counts and every sample goes to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import STRATEGIES, WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
STARTS_PER_ROUND = 2  # timed cold starts before each round; setup_s is their median
MIN_STARTS = 5  # topped up after the last round
IMPORT_STARTS = 3  # -X importtime starts per traced run
HARD_LIMIT_S = 170  # every run ends before this, whatever --seconds says


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One BLAS thread: the workloads are serial and the host has two shared
    # cores, so BLAS worker threads would only add scheduling noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Runs child processes against one deadline and logs their output."""

    def __init__(self, log: Path, deadline: float):
        self.env = child_env()
        self.log = log
        self.deadline = deadline

    def run(self, args: list[str]) -> tuple[float, int, str]:
        """(wall seconds, exit code, stderr) of one child process."""
        with open(self.log, "a") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(args, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.PIPE, text=True)
            try:
                _, err = proc.communicate(timeout=max(self.deadline - start, 1.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
            wall = time.perf_counter() - start
            log.write(err)
        return wall, proc.returncode, err

    def cli(self, argv: list[str]) -> tuple[float, int]:
        wall, code, _ = self.run([sys.executable, "-m", "boundary_distill.cli", *argv])
        return wall, code


def tree_digest(root: Path) -> dict[str, str]:
    """Content fingerprint of every file under root (relative path -> sha256)."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def setup_start(runner: Runner, argv: list[str]) -> float:
    """Wall time of one cold start of the workload's first command with --dry-run."""
    wall, code = runner.cli(argv)
    if code != 0:
        raise RuntimeError(f"dry run exited with {code}")
    return wall


def untraced(wl, runner: Runner, start: float, seconds: float) -> dict:
    out = WORK / wl.name / "out"
    dry_run = wl.dry_run(out)
    runner.cli(dry_run)  # untimed: compiles bytecode, which users do not pay on every run
    # Set-up starts are spread between the rounds, so that their median
    # covers the whole run rather than one stretch of host speed.
    setup, rounds, problems, first = [], [], [], None
    while True:
        setup += [setup_start(runner, dry_run) for _ in range(STARTS_PER_ROUND)]
        shutil.rmtree(out, ignore_errors=True)
        walls = []
        for argv in wl.commands(out):
            wall, code = runner.cli(argv)
            walls.append(wall)
            if code not in (0, 1):  # 1 means some cells failed; check() counts them
                problems.append(f"{argv[0]} exited with {code}")
        rounds.append(sum(walls))
        if first is None:
            found, failed_per_round, acc, claims = wl.check(out)
            problems += found
            first = tree_digest(out)
        elif tree_digest(out) != first:  # every round must reproduce the first
            problems.append(f"round {len(rounds)} outputs differ from round 1")
        next_round = rounds[-1] + STARTS_PER_ROUND * statistics.median(setup)
        if problems or time.perf_counter() - start + next_round > seconds:
            break
    while len(setup) < MIN_STARTS:
        setup.append(setup_start(runner, dry_run))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "problems": problems,
        "attempted": wl.cells() * len(rounds),
        "failed": failed_per_round * len(rounds),
        "claims": claims,
        "samples": {"round_wall_s": rounds, "setup_s": setup},
        "metrics": {
            "wall_s": (statistics.median(rounds), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "acc_final": (acc, "share"),
        },
    }


IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_times(runner: Runner) -> tuple[float, float]:
    """Median over fresh interpreters of the import time of the package
    (its cumulative time) and of the part spent in SciPy modules (the sum
    of their self times), from `python -X importtime`."""
    package, scipy = [], []
    for _ in range(IMPORT_STARTS):
        _, code, err = runner.run([sys.executable, "-X", "importtime", "-c",
                                   "import boundary_distill"])
        if code != 0:
            raise RuntimeError(f"importing boundary_distill exited with {code}")
        lines = [m.groups() for m in map(IMPORT_LINE.match, err.splitlines()) if m]
        package.append(next(int(c) for _, c, name in lines if name == "boundary_distill") * 1e-6)
        scipy.append(sum(int(own) for own, _, name in lines
                         if name == "scipy" or name.startswith("scipy.")) * 1e-6)
    return statistics.median(package), statistics.median(scipy)


# Per-layer metrics read straight off the traced rounds. Counts come from
# one round; times are medians over rounds: self times, except the protocol
# stage totals, where a stage change shows.
COUNTS = (
    "cli.cells", "data.build_calls", "data.standardize_calls", "protocol.base_train_calls",
    "protocol.sgd_steps", "network.forward_calls", "network.backward_calls",
    "network.unpack_calls", "distill.loss_calls", "seeding.streams", "consolidation.events",
    "metrics.accuracy_calls", "reporting.grid_calls",
)
SELF_TIMES = {  # metric -> span
    "data.build_s": "data.build",
    "data.standardize_s": "data.standardize",
    "data.load_csv_s": "data.load_csv",
    "data.split_s": "data.split",
    "network.forward_s": "network.forward",
    "network.backward_s": "network.backward",
    "network.loss_and_grad_s": "network.loss_and_grad",
    "network.sgd_step_s": "network.sgd_step",
    "distill.loss_s": "distill.loss",
    "distill.perturb_s": "distill.perturb",
    "seeding.s": "seeding",
    "consolidation.s": "consolidation",
    "metrics.accuracy_s": "metrics.accuracy",
    "reporting.grid_s": "reporting.grid",
    "reporting.record_s": "reporting.record",
    "reporting.report_s": "reporting.report",
}
TOTAL_TIMES = {
    "protocol.base_train_s": "protocol.base_train",
    **{f"protocol.phase_s.{s}": f"protocol.phase.{s}" for s in STRATEGIES},
}


def layer_metrics(rounds: list[dict]) -> dict[str, tuple[float, str]]:
    counts = rounds[0]["counts"]

    def median_over_rounds(kind: str, span: str) -> float:
        return statistics.median(r[kind].get(span, 0.0) for r in rounds)

    m: dict[str, tuple[float, str]] = {name: (counts.get(name, 0), "count") for name in COUNTS}
    m.update({name: (median_over_rounds("self_s", span), "s")
              for name, span in SELF_TIMES.items()})
    m.update({name: (median_over_rounds("total_s", span), "s")
              for name, span in TOTAL_TIMES.items()})
    m["cli.cell_s"] = (statistics.median(s for r in rounds for s in r["cell_s"]), "s")
    base_calls = counts.get("protocol.base_train_calls", 0)
    m["protocol.base_reuse"] = (rounds[0]["base_seeds"] / base_calls if base_calls else 1.0,
                                "ratio")
    steps = counts.get("protocol.sgd_steps", 0)
    phase_s = statistics.median(sum(v for k, v in r["total_s"].items()
                                    if k.startswith("protocol.phase.")) for r in rounds)
    m["protocol.us_per_step"] = (1e6 * phase_s / steps if steps else 0.0, "us")
    m["reporting.write_bytes"] = (rounds[0]["write_bytes"], "bytes")
    return m


def traced(wl, runner: Runner, start: float, seconds: float) -> dict:
    import_s, scipy_s = import_times(runner)
    out = WORK / wl.name / "out"
    spec_path = WORK / wl.name / "trace_spec.json"
    result_path = WORK / wl.name / "trace_rounds.json"
    spec_path.write_text(json.dumps({
        "commands": wl.commands(out),
        "out": str(out),
        "seconds": max(seconds - (time.perf_counter() - start), 1.0),
        "log": str(runner.log),
        "result": str(result_path),
    }))
    _, code, err = runner.run([sys.executable, str(HERE / "tracer.py"), str(spec_path)])
    if code != 0:
        raise RuntimeError(f"traced run exited with {code}: {err[-2000:]}")
    rounds = json.loads(result_path.read_text())
    problems, failed, _, claims = wl.check(out)
    failed *= len(rounds)
    if any(c not in (0, 1) for r in rounds for c in r["codes"]):
        problems.append(f"CLI exit codes {[r['codes'] for r in rounds]}")
    keys = ("counts", "base_seeds", "write_bytes")
    if any(tuple(r[k] for k in keys) != tuple(rounds[0][k] for k in keys) for r in rounds):
        problems.append("per-layer counts differ between traced rounds")
    metrics = {"setup.import_s": (import_s, "s"), "setup.scipy_import_s": (scipy_s, "s")}
    metrics.update(layer_metrics(rounds))
    return {
        "problems": problems,
        "attempted": wl.cells() * len(rounds),
        "failed": failed,
        "claims": claims,
        "samples": {"round_wall_s": [r["wall_s"] for r in rounds]},
        "metrics": metrics,
    }


def environment() -> dict:
    import numpy as np  # noqa: PLC0415

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    if not (SRC / "boundary_distill" / "cli.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work / "cli.log", start + HARD_LIMIT_S)
    wl = WORKLOADS[args.workload](args.seed, work / "inputs")
    measure = traced if args.trace else untraced
    result = measure(wl, runner, start, args.seconds)

    correct = not result["problems"]
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for claim, holds in result["claims"].items():
        print(f"claim {claim}: {'holds' if holds else 'does not hold'}", file=sys.stderr)
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cli_seeds": list(wl.seeds),
        "environment": environment(),
        "cells": {"attempted": result["attempted"], "failed": result["failed"]},
        "problems": result["problems"],
        "claims": result["claims"],
        "samples": result["samples"],
        **summary,
    }
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
