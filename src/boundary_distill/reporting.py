"""Report files: run records, boundary grids, per-phase series, summaries, manifests.

Every float is written with repr() so parsing a report reproduces the
in-memory values bit for bit. Accuracy-like columns additionally get a
rendered percent twin (readable, lossy) next to the exact fraction.
"""

from __future__ import annotations

import csv
import functools
import io
from pathlib import Path

import numpy as np

from .data import write_atomic
from .metrics import MetricsRecord, PhaseAccuracy
from .network import NetworkSpec, forward


def export_boundary_grid(
    model: np.ndarray,
    spec: NetworkSpec,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    resolution: int,
    path: str | Path,
) -> None:
    """Write the model's class and top-1 probability at the cell centers
    of a resolution x resolution grid (inclusive linspace over each range)
    to `path` as CSV with columns x,y,class,prob, rows in y-major order.

    Only defined for 2-d inputs; for higher-dimensional models, project or
    slice down to two dimensions before exporting.
    """
    if spec.input_dim != 2:
        raise ValueError(
            f"boundary grids are only defined for 2-d inputs (spec has "
            f"{spec.input_dim}); project the model onto two dimensions first"
        )
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    x_range = (float(x_range[0]), float(x_range[1]))
    y_range = (float(y_range[0]), float(y_range[1]))
    points, prefixes = _grid_layout(x_range, y_range, resolution)
    probs = forward(model, spec, points)
    classes = np.argmax(probs, axis=1)
    confidence = probs[np.arange(points.shape[0]), classes]
    # the same bytes as csv.writer gives (repr'd floats need no quoting)
    cells = zip(prefixes, classes.tolist(), confidence.tolist())
    write_atomic(path, "x,y,class,prob\r\n" + "".join([f"{xy}{cls},{prob!r}\r\n"
                                                        for xy, cls, prob in cells]))


@functools.lru_cache(maxsize=1)
def _grid_layout(
    x_range: tuple[float, float], y_range: tuple[float, float], resolution: int
) -> tuple[np.ndarray, list[str]]:
    """The cell centers (resolution**2, 2) of a grid, y-major, and the
    `x,y,` text that starts each of their CSV lines, built once for the
    grids over the same ranges that follow one another (a run exports one
    seed's phase grids together)."""
    xs = np.linspace(x_range[0], x_range[1], resolution)
    ys = np.linspace(y_range[0], y_range[1], resolution)
    xx, yy = np.meshgrid(xs, ys)
    points = np.column_stack([xx.ravel(), yy.ravel()])
    points.setflags(write=False)
    x_text = [repr(v) for v in xs.tolist()]
    return points, [f"{x},{y}," for y in (repr(v) for v in ys.tolist()) for x in x_text]


# The 97.5 % Student-t quantiles for df = 1..100, exactly as
# t_confidence_interval computes them, so that a report over at most 101
# values loads no SciPy. Generated with SciPy 1.17.1 by
# tuple(float(scipy.special.stdtrit(df, 0.5 + 0.95 / 2.0)) for df in range(1, 101))
_T_QUANTILES_95 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296, 1.9954689314298435,
    1.9949454151072374, 1.994437111771186, 1.9939433678456255, 1.9934635666618719,
    1.992997125889855, 1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285, 1.990063421254446,
    1.9896863234569029, 1.989318557136572, 1.9889597801751624, 1.9886096669757083,
    1.9882679074772216, 1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177, 1.98608631695113,
    1.9858018143458227, 1.985523441866604, 1.9852510035054978, 1.984984311522457,
    1.9847231860139845, 1.9844674545084815, 1.9842169515864174, 1.9839715185235518,
)


def median(values: "list[float]") -> float:
    """np.median of the values, bit for bit, without the masked-array
    package that np.median imports. Any NaN gives NaN; otherwise the middle
    one or two sorted values are added to 0.0 in ascending order and divided
    by their count, as np.mean of the partitioned middle does (so the
    median of [-0.0, -0.0] is 0.0, where (a + b) / 2 gives -0.0)."""
    v = [float(x) for x in values]
    if not v:
        raise ValueError("need at least one value for a median")
    for x in v:
        if x != x:
            return x
    v.sort()
    mid = len(v) // 2
    if len(v) % 2:
        return 0.0 + v[mid]
    return (0.0 + v[mid - 1] + v[mid]) / 2


def t_confidence_interval(values: "list[float] | np.ndarray") -> tuple[float, float]:
    """(mean, halfwidth) of the 95 % Student-t interval over independent runs."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        raise ValueError(f"need at least two values for an interval, got {v.size}")
    mean = float(v.mean())
    sem = float(v.std(ddof=1) / np.sqrt(v.size))
    df = v.size - 1
    if df <= len(_T_QUANTILES_95):
        quantile = _T_QUANTILES_95[df - 1]
    else:
        # imported here so that only such intervals pay for loading SciPy;
        # stdtrit is the function scipy.stats.t.ppf calls, without scipy.stats
        from scipy.special import stdtrit
        quantile = float(stdtrit(df, 0.5 + 0.95 / 2.0))
    return mean, quantile * sem


def export_report(records: list[MetricsRecord], out_dir: str | Path) -> dict[str, Path]:
    """Write the three report files and return their paths.

    per_phase.csv: one row per (record, phase) with exact fractions and
    rendered percents. summary.csv: one row per record with its promotion
    and forgetting, plus per-strategy median/mean/95% CI columns repeated
    on each row of the strategy's group. manifest.txt: key=value lines
    identifying the report deterministically (no timestamps).

    Raises ValueError, before writing anything, when the records of one
    strategy carry more than one config_digest: they come from different
    experiments, which a median or mean must not mix.
    """
    if not records:
        raise ValueError("no records to report")
    by_strategy: dict[str, list[MetricsRecord]] = {}
    for rec in records:
        by_strategy.setdefault(rec.strategy, []).append(rec)
    for strategy, group in by_strategy.items():
        digests = sorted({rec.config_digest for rec in group})
        if len(digests) > 1:
            raise ValueError(f"the {strategy} records come from {len(digests)} experiments, "
                             f"config_digest {', '.join(digests)}; report each on its own")
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

    group_stats: dict[str, dict[str, float]] = {}
    for strategy, group in by_strategy.items():
        entry = group_stats[strategy] = {}
        for name, values in (("pp", [r.pp for r in group]), ("f", [r.forgetting for r in group])):
            entry[f"{name}_median"] = median(values)
            entry[f"{name}_mean"], entry[f"{name}_ci95"] = (
                t_confidence_interval(values) if len(group) >= 2
                else (float(values[0]), float("nan")))

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


# the columns of a record file, which holds one row per phase
RECORD_COLUMNS = ("strategy", "seed", "phase", "acc_test", "acc_base", "pp", "forgetting",
                  "config_digest")


def write_record_csv(record: MetricsRecord, out_dir: Path) -> Path:
    """One CSV per run: the canonical, byte-reproducible record format."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = _record_path(out_dir, record.strategy, record.seed)
    write_atomic(path, "".join([",".join(RECORD_COLUMNS) + "\n"] + [
        f"{record.strategy},{record.seed},{p.phase},{p.acc_test!r},{p.acc_base!r},"
        f"{record.pp!r},{record.forgetting!r},{record.config_digest}\n" for p in record.per_phase]))
    return path


def _record_path(out_dir: Path, strategy: str, seed: int) -> Path:
    return out_dir / f"record_{strategy.replace('(partial)', '_partial')}_seed{seed}.csv"


def clear_records(out_dir: Path, strategy: str, seed: int) -> None:
    """Remove the record and partial record that an earlier run of
    (strategy, seed) left in out_dir."""
    for path in (_record_path(out_dir, strategy, seed),
                 _record_path(out_dir, strategy + "(partial)", seed)):
        path.unlink(missing_ok=True)


def read_records(results_dir: Path) -> list[MetricsRecord]:
    """The records under results_dir/records (where run writes them), else
    those in results_dir itself, in file name order."""
    if not results_dir.exists():
        raise FileNotFoundError(f"{results_dir} does not exist")
    paths = sorted((results_dir / "records").glob("record_*.csv")) or sorted(
        results_dir.glob("record_*.csv"))
    if not paths:
        raise FileNotFoundError(f"no record_*.csv files under {results_dir}")
    return [read_record_csv(path) for path in paths]


def read_record_csv(path: str | Path) -> MetricsRecord:
    """Parse one canonical per-run record file."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: empty record file")
    missing = [c for c in RECORD_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
    first = rows[0]
    try:  # a short row holds None, a bad value fails to parse
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
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_manifest(path: str | Path, entries: dict[str, object]) -> None:
    """Flat key=value manifest (deterministic ordering by key)."""
    lines = [f"{k}={entries[k]}" for k in sorted(entries)]
    write_atomic(path, "\n".join(lines) + "\n")
