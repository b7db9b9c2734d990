"""Self-tests of the benchmark's output checks.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Runs the CLI once on a tiny configuration (synthetic `run --strategy all`
with grids, `report`, and `sweep --knob delta`), shows that every checker
passes the real outputs, then corrupts a copy of them one way at a time
and shows that the matching checker rejects each copy. A checker that
accepted a corrupted copy would be passing vacuously. Exits 1 if any case
fails.
"""

from __future__ import annotations

import csv
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import ROOT, child_env  # noqa: E402
from workloads import STRATEGIES  # noqa: E402

SEEDS = (0, 1)
PHASES = 2
CLASSES = 4
BASE_PER_CLASS, TEST_PER_CLASS = 50, 10
RESOLUTION = 5
DELTAS = (0.2, 2.0, 10.0)
TINY_CONFIG = f"""\
data.num_phases = {PHASES}
synthetic.base_per_class = {BASE_PER_CLASS}
synthetic.phase_per_class = 10
synthetic.test_per_class = {TEST_PER_CLASS}
train.epochs_per_phase = 10
train.fine_tune_epochs = 2
grid.resolution = {RESOLUTION}
grid.delta = {','.join(map(str, DELTAS))}
seeds = {','.join(map(str, SEEDS))}
"""
N_TEST = CLASSES * TEST_PER_CLASS * (PHASES + 1)
N_BASE = CLASSES * BASE_PER_CLASS


def edit_csv(path: Path, edit) -> None:
    """Rewrite a CSV file with edit(rows) applied to its list of row dicts."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def set_column(column: str, value, rows_to_edit=slice(None)):
    def edit(rows):
        for row in rows[rows_to_edit]:
            row[column] = value(row) if callable(value) else value
        return rows
    return edit


def record(out: Path, strategy: str = "boundary_distill", seed: int = 0) -> Path:
    return checks.record_path(out, strategy, seed)


def grid(out: Path) -> Path:
    return out / "grids" / f"fine_tune_seed1_phase{PHASES:02d}.csv"


def shift_phase0_base(rows: list[dict]) -> list[dict]:
    """Move phase 0's acc_base down one sample and keep forgetting consistent,
    so only the cross-strategy phase-0 comparison can notice."""
    rows[0]["acc_base"] = repr(float(rows[0]["acc_base"]) - 1.0 / N_BASE)
    forgetting = repr(float(rows[-1]["acc_base"]) - float(rows[0]["acc_base"]))
    return set_column("forgetting", forgetting)(rows)


def records_check(out: Path) -> list[str]:
    return checks.check_records(out, STRATEGIES, SEEDS, PHASES, N_TEST, N_BASE)


def grids_check(out: Path) -> list[str]:
    return checks.check_grids(out, STRATEGIES, SEEDS, PHASES, RESOLUTION, CLASSES)


def report_check(out: Path) -> list[str]:
    return checks.check_report(out, STRATEGIES, SEEDS)


def chance_check(out: Path) -> list[str]:
    return checks.check_above_chance(out, STRATEGIES, SEEDS, CLASSES)


def sweep_check(out: Path) -> list[str]:
    return checks.check_sweep(out, "delta", DELTAS, SEEDS)


CHECKERS = (records_check, grids_check, report_check, chance_check, sweep_check)

# name -> (corruption of a copy of the outputs, checker that must reject it,
#          text its problem report must contain)
CORRUPTIONS = {
    "pp breaks the identity": (
        lambda out: edit_csv(record(out), set_column("pp", lambda r: repr(float(r["pp"]) + 0.01))),
        records_check, "!= final - initial acc_test"),
    "forgetting breaks the identity": (
        lambda out: edit_csv(record(out, "full_data"), set_column("forgetting", "0.125")),
        records_check, "!= final - initial acc_base"),
    "accuracy is not a count over the split": (
        lambda out: edit_csv(record(out, "vanilla_distill", 1), set_column(
            "acc_test", lambda r: repr(float(r["acc_test"]) + 1e-4), slice(1, 2))),
        records_check, "is not a count"),
    "record misses its last phase row": (
        lambda out: edit_csv(record(out), lambda rows: rows[:-1]),
        records_check, "expected 0.."),
    "record file missing": (
        lambda out: record(out, "fine_tune", 1).unlink(),
        records_check, "missing ["),
    "phase-0 rows differ across strategies": (
        lambda out: edit_csv(record(out, "fine_tune"), shift_phase0_base),
        records_check, "phase-0 rows differ"),
    "grid misses rows": (
        lambda out: edit_csv(grid(out), lambda rows: rows[:-RESOLUTION]),
        grids_check, "rows, expected"),
    "grid class out of range": (
        lambda out: edit_csv(grid(out), set_column("class", str(CLASSES), slice(0, 1))),
        grids_check, "outside 0.."),
    "grid prob below 1/K": (
        lambda out: edit_csv(grid(out), set_column("prob", repr(0.5 / CLASSES), slice(3, 4))),
        grids_check, "prob range"),
    "report median is off": (
        lambda out: edit_csv(out / "report" / "summary.csv", set_column(
            "pp_median_pct", lambda r: f"{float(r['pp_median_pct']) + 0.01:+.2f}")),
        report_check, "recomputed"),
    "report pp differs from the record": (
        lambda out: edit_csv(out / "report" / "summary.csv", set_column("pp", "0.5", slice(2, 3))),
        report_check, "differ from the record"),
    "final accuracy at chance": (
        lambda out: edit_csv(record(out, "fine_tune", 0), set_column(
            "acc_test", repr(1.0 / CLASSES), slice(-1, None))),
        chance_check, "not above chance"),
    "sweep summary median is off": (
        lambda out: edit_csv(out / "sweep_delta_summary.csv", set_column(
            "acc_student_median", lambda r: repr(float(r["acc_student_median"]) + 0.001),
            slice(1, 2))),
        sweep_check, "!= recomputed"),
    "sweep detail row missing": (
        lambda out: edit_csv(out / "sweep_delta.csv", lambda rows: rows[:-1]),
        sweep_check, "not one per (value, seed)"),
    "sweep detail row duplicated": (
        lambda out: edit_csv(out / "sweep_delta.csv", lambda rows: rows[:-1] + rows[:1]),
        sweep_check, "not one per (value, seed)"),
}


def run_cli(argv: list[str]) -> None:
    subprocess.run([sys.executable, "-m", "boundary_distill.cli", *argv], cwd=ROOT,
                   env=child_env(), check=True, capture_output=True, text=True, timeout=300)


def fresh_copy(pristine: Path) -> Path:
    copy = pristine.with_name("copy")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(pristine, copy)
    return copy


def main() -> int:
    work = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pristine = work / "pristine"
    config = work / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    run_cli(["run", "--config", str(config), "--strategy", "all", "--out", str(pristine)])
    run_cli(["report", str(pristine)])
    run_cli(["sweep", "--config", str(config), "--knob", "delta", "--out", str(pristine)])

    failures = 0
    problems = [p for checker in CHECKERS for p in checker(pristine)]
    print(f"{'PASS' if not problems else 'FAIL'}: real outputs pass every check")
    for problem in problems:
        print(f"  {problem}")
    failures += bool(problems)

    for name, (corrupt, checker, expect) in CORRUPTIONS.items():
        copy = fresh_copy(pristine)
        corrupt(copy)
        found = [p for p in checker(copy) if expect in p]
        print(f"{'PASS' if found else 'FAIL'}: {checker.__name__} rejects a copy where {name}"
              + (f" ({found[0]})" if found else ""))
        failures += not found

    copy = fresh_copy(pristine)
    edit_csv(copy / "sweep_delta_summary.csv", set_column(
        "acc_student_median", lambda r: "1.0" if float(r["value"]) == max(DELTAS) else "0.5"))
    flipped = list(checks.claims_sweep(copy, DELTAS).values())
    print(f"{'PASS' if flipped == [False] else 'FAIL'}: the sweep-shape claim fails when the "
          "largest delta has the best median")
    failures += flipped != [False]

    shutil.rmtree(work)
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
