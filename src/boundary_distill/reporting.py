"""Report files: boundary grids, per-phase series, summaries, manifests.

Every float is written with repr() so parsing a report reproduces the
in-memory values bit for bit. Accuracy-like columns additionally get a
rendered percent twin (readable, lossy) next to the exact fraction.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import write_atomic
from .metrics import MetricsRecord, PhaseAccuracy
from .network import NetworkSpec, forward


@dataclass(frozen=True)
class BoundaryGrid:
    """Dense class/confidence evaluation of a 2-d model over a rectangle.

    classes[i, j] and probs[i, j] correspond to y index i (rows) and
    x index j (columns); cell centers come from inclusive linspace over
    the ranges, resolution points per axis.
    """

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    resolution: int
    classes: np.ndarray
    probs: np.ndarray


def export_boundary_grid(
    model: np.ndarray,
    spec: NetworkSpec,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    resolution: int,
    path: str | Path | None = None,
) -> BoundaryGrid:
    """Evaluate the model on a resolution x resolution grid of cell centers.

    Only defined for 2-d inputs; for higher-dimensional models, project or
    slice down to two dimensions before exporting. When `path` is given
    the grid is also written as CSV with columns x,y,class,prob (rows in
    y-major order).
    """
    if spec.input_dim != 2:
        raise ValueError(
            f"boundary grids are only defined for 2-d inputs (spec has "
            f"{spec.input_dim}); project the model onto two dimensions first"
        )
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    xs = np.linspace(x_range[0], x_range[1], resolution)
    ys = np.linspace(y_range[0], y_range[1], resolution)
    xx, yy = np.meshgrid(xs, ys)
    points = np.column_stack([xx.ravel(), yy.ravel()])
    probs, _ = forward(model, spec, points)
    classes = np.argmax(probs, axis=1)
    confidence = probs[np.arange(points.shape[0]), classes]
    grid = BoundaryGrid(
        x_range=(float(x_range[0]), float(x_range[1])),
        y_range=(float(y_range[0]), float(y_range[1])),
        resolution=resolution,
        classes=classes.reshape(resolution, resolution),
        probs=confidence.reshape(resolution, resolution),
    )
    if path is not None:
        # The same bytes as csv.writer gives (repr'd floats need no quoting),
        # with each axis coordinate formatted once.
        x_text = [repr(v) for v in xs.tolist()]
        y_text = [repr(v) for v in ys.tolist()]
        cells = zip(classes.tolist(), confidence.tolist())
        lines = ["x,y,class,prob"]
        lines += [f"{x_text[k % resolution]},{y_text[k // resolution]},{cls},{prob!r}"
                  for k, (cls, prob) in enumerate(cells)]
        write_atomic(path, "\r\n".join(lines) + "\r\n")
    return grid


def t_confidence_interval(values: "list[float] | np.ndarray", confidence: float = 0.95) -> tuple[float, float]:
    """(mean, halfwidth) of the Student-t interval over independent runs."""
    # imported here so that only `report` pays for loading SciPy; stdtrit
    # is the function scipy.stats.t.ppf calls, without loading scipy.stats
    from scipy.special import stdtrit
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        raise ValueError(f"need at least two values for an interval, got {v.size}")
    mean = float(v.mean())
    sem = float(v.std(ddof=1) / np.sqrt(v.size))
    quantile = float(stdtrit(v.size - 1, 0.5 + confidence / 2.0))
    return mean, quantile * sem


def export_report(records: list[MetricsRecord], out_dir: str | Path) -> dict[str, Path]:
    """Write the three report files and return their paths.

    per_phase.csv: one row per (record, phase) with exact fractions and
    rendered percents. summary.csv: one row per record with its promotion
    and forgetting, plus per-strategy median/mean/95% CI columns repeated
    on each row of the strategy's group. manifest.txt: key=value lines
    identifying the report deterministically (no timestamps).
    """
    if not records:
        raise ValueError("no records to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    per_phase_path = out / "per_phase.csv"
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(
        ["strategy", "seed", "phase", "acc_test", "acc_base", "acc_test_pct", "acc_base_pct"]
    )
    for rec in records:
        for p in rec.per_phase:
            writer.writerow(
                [
                    rec.strategy,
                    rec.seed,
                    p.phase,
                    repr(p.acc_test),
                    repr(p.acc_base),
                    f"{100.0 * p.acc_test:.2f}",
                    f"{100.0 * p.acc_base:.2f}",
                ]
            )
    write_atomic(per_phase_path, text.getvalue())

    by_strategy: dict[str, list[MetricsRecord]] = {}
    for rec in records:
        by_strategy.setdefault(rec.strategy, []).append(rec)
    group_stats: dict[str, dict[str, float]] = {}
    for strategy, group in by_strategy.items():
        pps = [r.pp for r in group]
        fs = [r.forgetting for r in group]
        entry = {
            "pp_median": float(np.median(pps)),
            "f_median": float(np.median(fs)),
        }
        if len(group) >= 2:
            entry["pp_mean"], entry["pp_ci95"] = t_confidence_interval(pps)
            entry["f_mean"], entry["f_ci95"] = t_confidence_interval(fs)
        else:
            entry["pp_mean"], entry["pp_ci95"] = float(pps[0]), float("nan")
            entry["f_mean"], entry["f_ci95"] = float(fs[0]), float("nan")
        group_stats[strategy] = entry

    summary_path = out / "summary.csv"
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(
        [
            "strategy", "seed", "pp", "forgetting", "config_digest",
            "pp_pct", "forgetting_pct",
            "pp_median_pct", "pp_mean_pct", "pp_ci95_pct",
            "f_median_pct", "f_mean_pct", "f_ci95_pct",
        ]
    )
    for rec in records:
        g = group_stats[rec.strategy]
        writer.writerow(
            [
                rec.strategy,
                rec.seed,
                repr(rec.pp),
                repr(rec.forgetting),
                rec.config_digest,
                f"{100.0 * rec.pp:+.2f}",
                f"{100.0 * rec.forgetting:+.2f}",
                f"{100.0 * g['pp_median']:+.2f}",
                f"{100.0 * g['pp_mean']:+.2f}",
                f"{100.0 * g['pp_ci95']:.2f}",
                f"{100.0 * g['f_median']:+.2f}",
                f"{100.0 * g['f_mean']:+.2f}",
                f"{100.0 * g['f_ci95']:.2f}",
            ]
        )
    write_atomic(summary_path, text.getvalue())

    manifest_path = out / "manifest.txt"
    digests = sorted({rec.config_digest for rec in records})
    lines = [
        f"records={len(records)}",
        f"strategies={','.join(sorted(by_strategy))}",
        f"seeds={','.join(str(s) for s in sorted({r.seed for r in records}))}",
        f"config_digests={','.join(digests)}",
    ]
    write_atomic(manifest_path, "\n".join(lines) + "\n")

    return {"per_phase": per_phase_path, "summary": summary_path, "manifest": manifest_path}


def read_record_csv(path: str | Path) -> MetricsRecord:
    """Parse one canonical per-run record file."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path}: empty record file")
    first = rows[0]
    per_phase = tuple(
        PhaseAccuracy(phase=int(r["phase"]), acc_test=float(r["acc_test"]),
                      acc_base=float(r["acc_base"]))
        for r in rows
    )
    return MetricsRecord(
        strategy=first["strategy"],
        seed=int(first["seed"]),
        per_phase=per_phase,
        pp=float(first["pp"]),
        forgetting=float(first["forgetting"]),
        config_digest=first["config_digest"],
    )


def write_manifest(path: str | Path, entries: dict[str, object]) -> None:
    """Flat key=value manifest (deterministic ordering by key)."""
    lines = [f"{k}={entries[k]}" for k in sorted(entries)]
    write_atomic(path, "\n".join(lines) + "\n")
