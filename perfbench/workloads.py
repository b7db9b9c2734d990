"""The benchmark's workloads: their inputs, CLI commands and output checks.

A workload turns the benchmark seed into inputs (a config file, and CSV
files for `csv-wide`), names the CLI commands one round runs, and checks
the files a round wrote. Each run repeats whole rounds of the same
commands, so every round attempts the same cells.
"""

from __future__ import annotations

import csv
import statistics
from pathlib import Path

import numpy as np

import checks

STRATEGIES = ("boundary_distill", "fine_tune", "vanilla_distill", "full_data")
# Shipped defaults the checks depend on (src/boundary_distill/config.py).
NUM_PHASES = 10
SYNTH_CLASSES = 4
SYNTH_BASE_PER_CLASS = 500
SYNTH_TEST_PER_CLASS = 100
GRID_RESOLUTION = 50
GRID_DELTA = (0.02, 0.2, 1.0, 2.0, 4.0, 10.0)


def _seeds(seed: int, count: int) -> tuple[int, ...]:
    """CLI seeds of a workload: `count` consecutive seeds from seed * count,
    so different benchmark seeds never share a CLI seed."""
    return tuple(range(seed * count, seed * count + count))


class Workload:
    """Inputs, commands and checks of one workload; subclasses fill in."""

    name = ""
    num_seeds = 0

    def __init__(self, seed: int, inputs: Path):
        self.seeds = _seeds(seed, self.num_seeds)
        inputs.mkdir(parents=True, exist_ok=True)
        self.config = inputs / "bench.cfg"
        self.config.write_text(self.config_text())

    def config_text(self) -> str:
        """Config file of the workload: the shipped defaults plus these lines."""
        return f"seeds = {','.join(map(str, self.seeds))}\n"

    def commands(self, out: Path) -> list[list[str]]:
        """CLI argument lists of one round, run in order."""
        raise NotImplementedError

    def cells(self) -> int:
        """CLI work items one round attempts."""
        raise NotImplementedError

    def check(self, out: Path) -> tuple[list[str], int, float, dict[str, bool]]:
        """(problems, failed cells, acc_final, claims) for one round's outputs."""
        raise NotImplementedError

    def dry_run(self, out: Path) -> list[str]:
        return [*self.commands(out)[0], "--dry-run"]


def _failed_run_cells(out: Path) -> int:
    """Failed cells as `run` counted them in its manifest."""
    manifest = out / "manifest.txt"
    if not manifest.exists():
        return -1
    entries = dict(line.split("=", 1) for line in manifest.read_text().splitlines() if "=" in line)
    return int(entries.get("failed", -1))


def _or_all(failed: int, cells: int) -> int:
    """A failed count from the manifest, or every cell when it is unreadable."""
    return failed if failed > 0 else cells


class Matrix(Workload):
    """`run --strategy all` on the synthetic drift benchmark, then `report`.

    Two seeds of the reference configuration: every cell does the same work
    as a cell of the headline five-seed command.
    """

    name = "matrix"
    num_seeds = 2

    def commands(self, out: Path) -> list[list[str]]:
        return [["run", "--config", str(self.config), "--strategy", "all", "--out", str(out)],
                ["report", str(out)]]

    def cells(self) -> int:
        return len(STRATEGIES) * len(self.seeds)

    def check(self, out: Path):
        failed = _failed_run_cells(out)
        if failed:
            return [f"run manifest reports failed={failed}"], _or_all(failed, self.cells()), 0.0, {}
        n_test = SYNTH_CLASSES * SYNTH_TEST_PER_CLASS * (NUM_PHASES + 1)
        n_base = SYNTH_CLASSES * SYNTH_BASE_PER_CLASS
        problems = checks.check_records(out, STRATEGIES, self.seeds, NUM_PHASES, n_test, n_base)
        problems += checks.check_grids(out, STRATEGIES, self.seeds, NUM_PHASES,
                                       GRID_RESOLUTION, SYNTH_CLASSES)
        problems += checks.check_report(out, STRATEGIES, self.seeds)
        if problems:
            return problems, 0, 0.0, {}
        acc = statistics.median(checks.final_accuracies(out, "boundary_distill", self.seeds))
        return [], 0, acc, checks.claims_matrix(out, self.seeds)


class Sweep(Workload):
    """`sweep --knob delta` over the shipped noise-scale grid: phase 1 only."""

    name = "sweep"
    num_seeds = 3

    def commands(self, out: Path) -> list[list[str]]:
        return [["sweep", "--config", str(self.config), "--knob", "delta", "--out", str(out)]]

    def cells(self) -> int:
        return len(GRID_DELTA) * len(self.seeds)

    def check(self, out: Path):
        problems = checks.check_sweep(out, "delta", GRID_DELTA, self.seeds)
        if problems:
            rows = out / "sweep_delta.csv"
            done = len(checks.read_rows(rows)) if rows.exists() else 0
            return problems, self.cells() - done, 0.0, {}
        acc = statistics.median(float(r["acc_teacher"])
                                for r in checks.read_rows(out / "sweep_delta.csv"))
        return [], 0, acc, checks.claims_sweep(out, GRID_DELTA)


class CsvWide(Workload):
    """The CSV route with the shipped default strategies on a generated
    32-feature, 10-class Gaussian mixture and a 128-unit hidden layer."""

    name = "csv-wide"
    num_seeds = 2
    strategies = ("boundary_distill", "fine_tune")
    num_classes = 10
    num_features = 32
    train_rows = 4000
    test_rows = 1000
    # Class means sit on random orthonormal directions at this distance from
    # the origin, so every pair of unit-variance clusters is radius * sqrt(2)
    # apart whatever the seed. At 2.75 final accuracy stays near 0.83, well
    # below 1.0; classes drawn with independent random means vary in
    # difficulty from seed to seed.
    radius = 2.75

    def __init__(self, seed: int, inputs: Path):
        self.train = inputs / "train.csv"
        self.test = inputs / "test.csv"
        inputs.mkdir(parents=True, exist_ok=True)
        self._write_data(seed)
        super().__init__(seed, inputs)

    def _write_data(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2406])
        directions, _ = np.linalg.qr(rng.standard_normal((self.num_features, self.num_classes)))
        means = self.radius * directions.T
        for path, rows in ((self.train, self.train_rows), (self.test, self.test_rows)):
            labels = rng.permutation(np.arange(rows) % self.num_classes)
            features = means[labels] + rng.standard_normal((rows, self.num_features))
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow([*(f"f{i}" for i in range(self.num_features)), "label"])
                for row, label in zip(features, labels):
                    writer.writerow([*(repr(float(v)) for v in row), int(label)])

    def config_text(self) -> str:
        return (
            "data.source = csv\n"
            f"csv.train_path = {self.train}\n"
            f"csv.test_path = {self.test}\n"
            "model.hidden = 128\n"
            f"strategies = {','.join(self.strategies)}\n"
            + super().config_text()
        )

    def commands(self, out: Path) -> list[list[str]]:
        return [["run", "--config", str(self.config), "--out", str(out)]]

    def cells(self) -> int:
        return len(self.strategies) * len(self.seeds)

    def check(self, out: Path):
        failed = _failed_run_cells(out)
        if failed:
            return [f"run manifest reports failed={failed}"], _or_all(failed, self.cells()), 0.0, {}
        # base_fraction 0.5 of the training rows (split_benchmark rounds).
        n_base = round(0.5 * self.train_rows)
        problems = checks.check_records(out, self.strategies, self.seeds, NUM_PHASES,
                                        self.test_rows, n_base)
        if (out / "grids").exists():
            problems.append("grids written for a 32-feature benchmark")
        if not problems:
            problems = checks.check_above_chance(out, self.strategies, self.seeds,
                                                 self.num_classes)
        if problems:
            return problems, 0, 0.0, {}
        acc = statistics.median(checks.final_accuracies(out, "boundary_distill", self.seeds))
        return [], 0, acc, {}


WORKLOADS = {w.name: w for w in (Matrix, Sweep, CsvWide)}
