"""Checks of the CLI's output files.

Every checker reads files the program wrote and returns a list of
problems; an empty list means the outputs pass. The checks hold for any
seed: they test identities the method must satisfy or values recomputed
here from the program's own outputs. The paper's directional claims are
seed-dependent at this scale, so `claims_*` functions only report them.
"""

from __future__ import annotations

import csv
import statistics
from pathlib import Path

TOL = 1e-12  # pp and forgetting are telescoped sums of k/n fractions


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _is_count_fraction(acc: float, n: int) -> bool:
    """True when acc is k/n for an integer 0 <= k <= n."""
    k = acc * n
    return 0.0 <= acc <= 1.0 and abs(k - round(k)) < 1e-6


def record_path(out: Path, strategy: str, seed: int) -> Path:
    return out / "records" / f"record_{strategy}_seed{seed}.csv"


def check_records(
    out: Path,
    strategies: tuple[str, ...],
    seeds: tuple[int, ...],
    num_phases: int,
    n_test: int,
    n_base: int,
) -> list[str]:
    """One record per (strategy, seed) with num_phases + 1 rows; pp and
    forgetting recomputed from the rows; every accuracy a count over its
    split; phase 0 identical across strategies (the base model does not
    depend on the strategy)."""
    problems = []
    expected = {record_path(out, s, seed).name for s in strategies for seed in seeds}
    found = {p.name for p in (out / "records").glob("record_*.csv")}
    if found != expected:
        problems.append(f"record files: missing {sorted(expected - found)}, "
                        f"unexpected {sorted(found - expected)}")
    phase0: dict[int, dict[str, tuple[str, str]]] = {}
    for strategy in strategies:
        for seed in seeds:
            path = record_path(out, strategy, seed)
            if not path.exists():
                continue
            rows = read_rows(path)
            name = path.name
            phases = [int(r["phase"]) for r in rows]
            if phases != list(range(num_phases + 1)):
                problems.append(f"{name}: phases {phases}, expected 0..{num_phases}")
                continue
            if any(r["strategy"] != strategy or int(r["seed"]) != seed for r in rows):
                problems.append(f"{name}: strategy/seed columns do not match the file")
            if len({(r["pp"], r["forgetting"]) for r in rows}) != 1:
                problems.append(f"{name}: pp/forgetting differ between rows")
            acc_test = [float(r["acc_test"]) for r in rows]
            acc_base = [float(r["acc_base"]) for r in rows]
            pp, forgetting = float(rows[0]["pp"]), float(rows[0]["forgetting"])
            if abs(pp - (acc_test[-1] - acc_test[0])) > TOL:
                problems.append(f"{name}: pp {pp!r} != final - initial acc_test "
                                f"{acc_test[-1] - acc_test[0]!r}")
            if abs(forgetting - (acc_base[-1] - acc_base[0])) > TOL:
                problems.append(f"{name}: forgetting {forgetting!r} != final - initial "
                                f"acc_base {acc_base[-1] - acc_base[0]!r}")
            for column, accs, n in (("acc_test", acc_test, n_test), ("acc_base", acc_base, n_base)):
                bad = [t for t, a in enumerate(accs) if not _is_count_fraction(a, n)]
                if bad:
                    problems.append(f"{name}: {column} is not a count over {n} "
                                    f"samples in phases {bad}")
            phase0.setdefault(seed, {})[strategy] = (rows[0]["acc_test"], rows[0]["acc_base"])
    for seed, by_strategy in sorted(phase0.items()):
        if len(set(by_strategy.values())) > 1:
            problems.append(f"seed {seed}: phase-0 rows differ across strategies {by_strategy}")
    return problems


def final_accuracies(out: Path, strategy: str, seeds: tuple[int, ...]) -> list[float]:
    """Final-phase test accuracy of each seed's record (the outgoing model;
    for boundary_distill that is the teacher)."""
    return [float(read_rows(record_path(out, strategy, seed))[-1]["acc_test"]) for seed in seeds]


def check_above_chance(
    out: Path, strategies: tuple[str, ...], seeds: tuple[int, ...], num_classes: int
) -> list[str]:
    problems = []
    for strategy in strategies:
        for seed, acc in zip(seeds, final_accuracies(out, strategy, seeds)):
            if not acc > 1.0 / num_classes:
                problems.append(f"{strategy} seed {seed}: final accuracy {acc} "
                                f"is not above chance 1/{num_classes}")
    return problems


def check_grids(
    out: Path,
    strategies: tuple[str, ...],
    seeds: tuple[int, ...],
    num_phases: int,
    resolution: int,
    num_classes: int,
) -> list[str]:
    """One grid per (strategy, seed, phase) with resolution**2 rows,
    classes in range and the winning probability in [1/K, 1]."""
    problems = []
    grids = out / "grids"
    expected = {f"{s}_seed{seed}_phase{t:02d}.csv"
                for s in strategies for seed in seeds for t in range(num_phases + 1)}
    found = {p.name for p in grids.glob("*.csv")}
    if found != expected:
        problems.append(f"grid files: {len(expected - found)} missing, "
                        f"{len(found - expected)} unexpected")
    for name in sorted(expected & found):
        rows = read_rows(grids / name)
        if len(rows) != resolution**2:
            problems.append(f"{name}: {len(rows)} rows, expected {resolution**2}")
        classes = {int(r["class"]) for r in rows}
        if not classes <= set(range(num_classes)):
            problems.append(f"{name}: classes {sorted(classes)} outside 0..{num_classes - 1}")
        probs = [float(r["prob"]) for r in rows]
        if probs and not (1.0 / num_classes - TOL <= min(probs) and max(probs) <= 1.0 + TOL):
            problems.append(f"{name}: prob range [{min(probs)}, {max(probs)}] "
                            f"outside [1/{num_classes}, 1]")
    return problems


def check_report(out: Path, strategies: tuple[str, ...], seeds: tuple[int, ...]) -> list[str]:
    """report/summary.csv carries each record's pp/forgetting exactly and
    the per-strategy medians recomputed here from the record files."""
    problems = []
    path = out / "report" / "summary.csv"
    if not path.exists():
        return [f"{path.name}: missing"]
    rows = read_rows(path)
    keys = sorted((r["strategy"], int(r["seed"])) for r in rows)
    if keys != sorted((s, seed) for s in strategies for seed in seeds):
        problems.append(f"summary.csv: rows {keys} do not match the records")
        return problems
    for strategy in strategies:
        records = {seed: read_rows(record_path(out, strategy, seed))[0] for seed in seeds}
        group = [r for r in rows if r["strategy"] == strategy]
        for row in group:
            rec = records[int(row["seed"])]
            if (float(row["pp"]), float(row["forgetting"])) != (float(rec["pp"]),
                                                               float(rec["forgetting"])):
                problems.append(f"summary.csv: {strategy} seed {row['seed']} pp/forgetting "
                                "differ from the record")
        for column, field in (("pp_median_pct", "pp"), ("f_median_pct", "forgetting")):
            median = statistics.median(float(r[field]) for r in records.values())
            want = f"{100.0 * median:+.2f}"
            got = {r[column] for r in group}
            if got != {want}:
                problems.append(f"summary.csv: {strategy} {column} {sorted(got)}, "
                                f"recomputed {want}")
    return problems


def check_sweep(
    out: Path, knob: str, values: tuple[float, ...], seeds: tuple[int, ...]
) -> list[str]:
    """One detail row per (value, seed); summary medians recomputed from
    the detail rows."""
    problems = []
    detail_path = out / f"sweep_{knob}.csv"
    summary_path = out / f"sweep_{knob}_summary.csv"
    for path in (detail_path, summary_path):
        if not path.exists():
            return [f"{path.name}: missing"]
    detail = read_rows(detail_path)
    keys = sorted((float(r["value"]), int(r["seed"])) for r in detail)
    if keys != sorted((v, s) for v in values for s in seeds):
        problems.append(f"{detail_path.name}: rows {keys} are not one per (value, seed)")
    for r in detail:
        for column in ("acc_student", "acc_teacher"):
            if not 0.0 <= float(r[column]) <= 1.0:
                problems.append(f"{detail_path.name}: {column} {r[column]} outside [0, 1]")
    summary = read_rows(summary_path)
    if sorted(float(r["value"]) for r in summary) != sorted(values):
        problems.append(f"{summary_path.name}: values {[r['value'] for r in summary]} "
                        f"!= {list(values)}")
    for row in summary:
        group = [r for r in detail if float(r["value"]) == float(row["value"])]
        if int(row["n_seeds"]) != len(group):
            problems.append(f"{summary_path.name}: value {row['value']} n_seeds "
                            f"{row['n_seeds']} != {len(group)} detail rows")
        for column in ("acc_student", "acc_teacher"):
            median = statistics.median(float(r[column]) for r in group) if group else None
            if median is None or float(row[f"{column}_median"]) != median:
                problems.append(f"{summary_path.name}: value {row['value']} "
                                f"{column}_median {row[f'{column}_median']} != recomputed {median}")
    return problems


def sweep_medians(out: Path, knob: str, column: str) -> dict[float, float]:
    return {float(r["value"]): float(r[f"{column}_median"])
            for r in read_rows(out / f"sweep_{knob}_summary.csv")}


def claims_matrix(out: Path, seeds: tuple[int, ...]) -> dict[str, bool]:
    """The paper's orderings on this round's seeds: median final accuracy
    full_data >= boundary_distill >= fine_tune, and less forgetting for
    boundary_distill than for fine_tune."""
    final = {s: statistics.median(final_accuracies(out, s, seeds))
             for s in ("full_data", "boundary_distill", "fine_tune")}
    forgetting = {s: statistics.median(float(read_rows(record_path(out, s, seed))[0]["forgetting"])
                                       for seed in seeds)
                  for s in ("boundary_distill", "fine_tune")}
    return {
        "final_full_data>=boundary_distill": final["full_data"] >= final["boundary_distill"],
        "final_boundary_distill>=fine_tune": final["boundary_distill"] >= final["fine_tune"],
        "|forgetting|_boundary_distill<fine_tune":
            abs(forgetting["boundary_distill"]) < abs(forgetting["fine_tune"]),
    }


def claims_sweep(out: Path, values: tuple[float, ...]) -> dict[str, bool]:
    """The noise-scale sweep shape: the largest delta gives a lower student
    median than the best interior delta."""
    medians = sweep_medians(out, "delta", "acc_student")
    largest = max(values)
    best_interior = max(medians[v] for v in values if v != largest)
    return {"student_median_largest_delta<best_interior": medians[largest] < best_interior}
