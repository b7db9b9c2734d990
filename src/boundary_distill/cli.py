"""Command-line interface: split / run / sweep / report.

Thin argparse layer over the protocol module. Output directory resolution:
--out flag, then the config's out_dir, then $BD_OUT_DIR, then ./runs.
Exit codes: 0 when everything requested completed, 1 when any run failed
or a worker process died, 2 for configuration/usage errors (before any write).
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, check_unique, dump_config, load_config
from .data import save_csv, write_atomic
from .protocol import STRATEGIES, SeedSetup, _boundary_distill_stack, run_seed_stack, setup_seed
from .reporting import (
    export_boundary_grid,
    export_report,
    read_record_csv,
    write_manifest,
)

# sweep knob -> the ExperimentConfig field it sets
SWEEP_KNOBS = {"delta": "noise_delta", "lambda": "distill_weight"}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boundary-distill",
        description="Instance-incremental learning experiments: boundary-aware "
        "distillation with teacher consolidation, plus baselines.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_split = sub.add_parser("split", help="materialize benchmark splits as CSV files")
    _common_flags(p_split)
    p_split.set_defaults(handler=cmd_split)

    p_run = sub.add_parser("run", help="run the strategy x seed matrix")
    _common_flags(p_run)
    p_run.add_argument(
        "--strategy",
        action="append",
        help=f"strategy to run (repeatable); one of {STRATEGIES} or 'all'",
    )
    p_run.set_defaults(handler=cmd_run)

    p_sweep = sub.add_parser("sweep", help="phase-1 sensitivity sweep over one knob")
    _common_flags(p_sweep)
    p_sweep.add_argument("--knob", choices=SWEEP_KNOBS, required=True,
                         help="which knob to sweep: noise scale or loss weight")
    p_sweep.add_argument("--values", help="comma-separated values (default: config grid)")
    p_sweep.set_defaults(handler=cmd_sweep)
    p_run.add_argument("--parallel", type=int, default=1, metavar="N",
                       help="split the seeds into up to N contiguous groups, one process "
                       "each (at most one per seed and per core); a group trains its "
                       "seeds as one stack")
    p_sweep.add_argument("--parallel", type=int, default=1, metavar="N",
                         help="run up to N seeds in parallel processes (at most one per "
                         "seed and per core)")

    p_report = sub.add_parser("report", help="aggregate run records into summary files")
    p_report.add_argument("results_dir", help="directory holding record CSVs")
    p_report.set_defaults(handler=cmd_report)

    return parser


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", action="append", type=int,
                        help="seed override (repeatable; replaces the config list)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the resolved configuration and plan, then exit")


def _load(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    changes: dict[str, object] = {}
    if getattr(args, "seed", None):
        changes["seeds"] = tuple(args.seed)
    if getattr(args, "out", None):
        changes["out_dir"] = args.out
    if getattr(args, "strategy", None):
        names = [n for s in args.strategy for n in (STRATEGIES if s == "all" else (s,))]
        changes["strategies"] = tuple(dict.fromkeys(names))
    return replace(config, **changes)


def _out_dir(config: ExperimentConfig) -> Path:
    return Path(config.out_dir or os.environ.get("BD_OUT_DIR") or "runs")


# --- split ------------------------------------------------------------------


def cmd_split(args: argparse.Namespace) -> int:
    config = _load(args)
    seed = config.seeds[0]
    out = _out_dir(config) / "splits"
    if args.dry_run:
        print(dump_config(config), end="")
        print(f"# plan: write base/phase/test CSVs for seed {seed} under {out}")
        return 0
    bench = config.build_benchmark(seed)
    out.mkdir(parents=True, exist_ok=True)
    save_csv(bench.base, str(out / "base.csv"))
    for t, phase in enumerate(bench.phases, start=1):
        save_csv(phase, str(out / f"phase_{t:02d}.csv"))
    save_csv(bench.test, str(out / "test.csv"))
    write_manifest(
        out / "split_manifest.txt",
        {
            "seed": seed,
            "source": config.data_source,
            "num_classes": bench.num_classes,
            "num_phases": bench.num_phases,
            "base_size": len(bench.base),
            "phase_sizes": ",".join(str(len(p)) for p in bench.phases),
            "test_size": len(bench.test),
            "version": __version__,
        },
    )
    print(f"wrote {2 + bench.num_phases} split files to {out}")
    return 0


# --- run --------------------------------------------------------------------


def _run_cell(config: ExperimentConfig, seeds: tuple[int, ...], out_str: str) -> list[dict]:
    """Every configured strategy on a group of seeds: one setup per seed,
    then each strategy's phase walks as one stack of the group's seeds.

    Executed possibly in a worker process. Returns one outcome per
    (strategy, seed); a failing strategy fails only its own (strategy, seed).
    """
    setups, outcomes = _group_setups(config, seeds, out_str)
    for strategy in config.strategies:
        outcomes += _run_strategy(config, setups, strategy, Path(out_str))
    return outcomes


def _group_setups(config: ExperimentConfig, seeds: tuple[int, ...],
                  out_str: str) -> tuple[list[SeedSetup], list[dict]]:
    """The setup of each seed, and the outcomes of the seeds whose setup
    failed. The benchmarks are built from one shallow copy of the config,
    which parses the CSV files once for the group and frees them on return."""
    group_config = copy.copy(config)
    setups, failed = [], []
    for seed in seeds:
        try:
            bench = group_config.build_benchmark(seed)
            setups.append(setup_seed(bench, config.run_config("boundary_distill", seed)))
        except Exception as exc:  # noqa: BLE001 - cell failures must not kill the matrix
            failed += _run_cell_failed(exc, config, (seed,), out_str)
    return setups, failed


def _run_cell_failed(exc: Exception, config: ExperimentConfig, seeds: tuple[int, ...],
                     _out: str) -> list[dict]:
    """Outcomes of a run cell (or one seed of it) that failed as a whole."""
    return [_failure(exc, strategy=s, seed=seed) for s in config.strategies for seed in seeds]


def _run_strategy(config: ExperimentConfig, setups: list[SeedSetup], strategy: str,
                  out: Path) -> list[dict]:
    """One strategy's phase walks (records and grids) from the setups of a
    group of seeds, as one stack; one outcome per seed."""
    seeds = [setup.base_config.seed for setup in setups]
    try:
        run_cfgs = [config.run_config(strategy, seed) for seed in seeds]
        walks = run_seed_stack(setups, run_cfgs, out / "records")
    except Exception as exc:  # noqa: BLE001 - cell failures must not kill the matrix
        walks = [exc] * len(setups)
    return [_grids_and_outcome(config, setup, strategy, walk, out)
            for setup, walk in zip(setups, walks)]


def _grids_and_outcome(config: ExperimentConfig, setup: SeedSetup, strategy: str,
                       walk: tuple | Exception, out: Path) -> dict:
    """The outcome of one seed's phase walk, after exporting its grids."""
    seed = setup.base_config.seed
    if isinstance(walk, Exception):
        return _failure(walk, strategy=strategy, seed=seed)
    try:
        results, record = walk
        if setup.bench.base.dim == 2:
            feats = setup.bench.test.features
            pad = 0.1 * (feats.max(axis=0) - feats.min(axis=0))
            lo, hi = feats.min(axis=0) - pad, feats.max(axis=0) + pad
            grid_dir = out / "grids"
            grid_dir.mkdir(parents=True, exist_ok=True)
            for res in results:
                export_boundary_grid(
                    res.model,
                    setup.net_spec,
                    (float(lo[0]), float(hi[0])),
                    (float(lo[1]), float(hi[1])),
                    config.grid_resolution,
                    path=grid_dir / f"{strategy}_seed{seed}_phase{res.phase_index:02d}.csv",
                )
        return {
            "strategy": strategy,
            "seed": seed,
            "status": "ok",
            "pp": record.pp,
            "forgetting": record.forgetting,
        }
    except Exception as exc:  # noqa: BLE001 - cell failures must not kill the matrix
        return _failure(exc, strategy=strategy, seed=seed)


def _failure(exc: Exception, **cell) -> dict:
    """Outcome of a failed (strategy or value, seed)."""
    return {**cell, "status": "failed", "error": f"{type(exc).__name__}: {exc}",
            "trace": "".join(traceback.format_exception(exc))}


def cmd_run(args: argparse.Namespace) -> int:
    config = _load(args)
    workers = _pool_size(args.parallel, len(config.seeds), os.cpu_count() or 1)
    groups = _seed_groups(config.seeds, workers)
    out = _out_dir(config)
    cells = [(s, seed) for s in config.strategies for seed in config.seeds]
    if args.dry_run:
        print(dump_config(config), end="")
        print(f"# plan: {len(cells)} run(s) -> {out}")
        for strategy, seed in cells:
            print(f"#   {strategy} seed={seed}")
        return 0

    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / "config.resolved", dump_config(config))

    # with no strategies there is nothing to set a seed up for
    argtuples = [(config, group, str(out)) for group in groups if config.strategies]
    by_cell = {(o["strategy"], o["seed"]): o
               for group in _map_cells(_run_cell, argtuples, workers, _run_cell_failed)
               for o in group}
    outcomes = [by_cell[cell] for cell in cells]

    failed = [o for o in outcomes if o["status"] != "ok"]
    for o in outcomes:
        if o["status"] == "ok":
            print(f"{o['strategy']} seed={o['seed']}: "
                  f"pp={100 * o['pp']:+.2f}pp forgetting={100 * o['forgetting']:+.2f}pp")
        else:
            print(f"{o['strategy']} seed={o['seed']}: FAILED ({o['error']})", file=sys.stderr)
            print(o["trace"], file=sys.stderr)

    write_manifest(
        out / "manifest.txt",
        {
            "version": __version__,
            "numpy": np.__version__,
            "config": "config.resolved",
            "cells": ",".join(f"{s}:{seed}" for s, seed in cells),
            "completed": len(outcomes) - len(failed),
            "failed": len(failed),
            "status": "ok" if not failed else "failed",
        },
    )
    return 0 if not failed else 1


def _pool_size(requested: int, cells: int, cpus: int) -> int:
    """Worker processes for --parallel: never more than cells or cores."""
    if requested < 1:
        raise ConfigError(f"--parallel must be >= 1, got {requested}")
    return min(requested, cells, cpus)


def _seed_groups(seeds: tuple[int, ...], count: int) -> list[tuple[int, ...]]:
    """The seeds split into `count` contiguous groups, larger groups first."""
    size, extra = divmod(len(seeds), count) if count else (0, 0)
    return [tuple(seeds[g * size + min(g, extra) : (g + 1) * size + min(g + 1, extra)])
            for g in range(count)]


def _map_cells(worker, argtuples: list[tuple], workers: int, failed) -> list[list[dict]]:
    """Run the cells and return each cell's outcomes, in cell order; a
    cell whose worker process died gets `failed(exc, *args)` instead."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(worker, *a) for a in argtuples]
            per_seed = []
            for future, args in zip(futures, argtuples):
                try:
                    per_seed.append(future.result())
                except BrokenProcessPool as exc:
                    per_seed.append(failed(exc, *args))
    else:
        per_seed = [worker(*a) for a in argtuples]
    return per_seed


# --- sweep ------------------------------------------------------------------


def _sweep_cell(
    config: ExperimentConfig, knob: str, values: tuple[float, ...], seed: int
) -> list[dict]:
    """Phase-1-only sensitivity runs of every value on one seed, all from
    one shared setup: the values with distill weight > 0 train as one
    stack, any weight-0 values as another. Returns one outcome per value,
    in value order; a failing value fails only its own (value, seed)."""
    try:
        bench = config.build_benchmark(seed)
        setup = setup_seed(bench, config.run_config("boundary_distill", seed))
        ctx = setup.context(1)
    except Exception as exc:  # noqa: BLE001
        return _sweep_cell_failed(exc, config, knob, values, seed)
    outcomes = {}
    stacks = {True: {}, False: {}}  # weight > 0 -> {value: its run config}
    for value in values:
        try:
            swept = replace(config, **{SWEEP_KNOBS[knob]: value})
            run_cfg = swept.run_config("boundary_distill", seed)
            stacks[run_cfg.distill_weight > 0][value] = run_cfg
        except Exception as exc:  # noqa: BLE001
            outcomes[value] = _failure(exc, knob=knob, value=value, seed=seed)
    for stack in stacks.values():
        try:
            results = _boundary_distill_stack(setup.base_model, setup.bench.phases[0],
                                              list(stack.values()), ctx) if stack else []
        except Exception as exc:  # noqa: BLE001
            results = [exc] * len(stack)
        for value, res in zip(stack, results):
            if isinstance(res, Exception):
                outcomes[value] = _failure(res, knob=knob, value=value, seed=seed)
            else:
                outcomes[value] = {
                    "status": "ok",
                    "knob": knob,
                    "value": value,
                    "seed": seed,
                    "acc_student": res.student_acc_test,
                    "acc_teacher": res.acc_test,
                }
    return [outcomes[value] for value in values]


def _sweep_cell_failed(exc: Exception, _config, knob: str, values: tuple, seed: int) -> list[dict]:
    """Outcomes of a sweep cell that failed as a whole."""
    return [_failure(exc, knob=knob, value=value, seed=seed) for value in values]


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load(args)
    out = _out_dir(config)
    if args.values:
        values = tuple(float(v) for v in args.values.split(",") if v.strip())
    else:
        values = getattr(config, f"grid_{args.knob}")
    if not values:
        raise ConfigError("no sweep values given")
    check_unique("--values", values)
    for value in values:  # each value must pass its knob's checks
        replace(config, **{SWEEP_KNOBS[args.knob]: value})
    workers = _pool_size(args.parallel, len(config.seeds), os.cpu_count() or 1)
    if args.dry_run:
        print(dump_config(config), end="")
        print(f"# plan: sweep {args.knob} over {list(values)} x seeds {list(config.seeds)} -> {out}")
        return 0

    out.mkdir(parents=True, exist_ok=True)
    per_seed = _map_cells(_sweep_cell, [(config, args.knob, values, seed) for seed in config.seeds],
                          workers, _sweep_cell_failed)
    outcomes = [outcome for group in zip(*per_seed) for outcome in group]  # value-major
    failed = [o for o in outcomes if o["status"] != "ok"]
    for o in failed:
        print(f"sweep {args.knob}={o['value']} seed={o['seed']}: FAILED ({o['error']})",
              file=sys.stderr)
        print(o["trace"], file=sys.stderr)

    ok = [o for o in outcomes if o["status"] == "ok"]
    detail_path = out / f"sweep_{args.knob}.csv"
    lines = ["knob,value,seed,acc_student,acc_teacher"]
    for o in ok:
        lines.append(
            f"{o['knob']},{o['value']!r},{o['seed']},{o['acc_student']!r},{o['acc_teacher']!r}"
        )
    write_atomic(detail_path, "\n".join(lines) + "\n")

    summary_path = out / f"sweep_{args.knob}_summary.csv"
    lines = ["knob,value,n_seeds,acc_student_median,acc_teacher_median,acc_student_median_pct"]
    for value in values:
        group = [o for o in ok if o["value"] == value]
        if not group:
            continue
        med_s = float(np.median([o["acc_student"] for o in group]))
        med_t = float(np.median([o["acc_teacher"] for o in group]))
        lines.append(f"{args.knob},{value!r},{len(group)},{med_s!r},{med_t!r},{100 * med_s:.2f}")
    write_atomic(summary_path, "\n".join(lines) + "\n")

    print(f"wrote {detail_path} and {summary_path}")
    return 0 if not failed else 1


# --- report -----------------------------------------------------------------


def cmd_report(args: argparse.Namespace) -> int:
    results_dir = Path(args.results_dir)
    if not results_dir.exists():
        raise FileNotFoundError(f"{results_dir} does not exist")
    candidates = sorted((results_dir / "records").glob("record_*.csv")) or sorted(
        results_dir.glob("record_*.csv")
    )
    if not candidates:
        raise FileNotFoundError(f"no record_*.csv files under {results_dir}")
    records = [read_record_csv(p) for p in candidates]
    paths = export_report(records, results_dir / "report")
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
