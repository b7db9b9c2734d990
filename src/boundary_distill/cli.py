"""Command-line interface: split / run / sweep / report.

Thin argparse layer over the protocol module. Output directory resolution:
--out flag, then the config's out_dir, then $BD_OUT_DIR, then ./runs.
Exit codes: 0 when everything requested completed, 1 when any run failed
or a worker process died, 2 for configuration/usage errors (before any write).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import os
import pickle
import signal
import sys
import traceback
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, check_unique, dump_config, load_config
from .data import save_csv, write_atomic
from .protocol import (
    STRATEGIES,
    SeedSetup,
    _boundary_distill_lanes,
    clear_records,
    run_seed_stack,
    setup_seeds,
)
from .reporting import (
    export_boundary_grid,
    export_report,
    median,
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
    p_sweep = sub.add_parser("sweep", help="phase-1 sensitivity sweep over one knob")
    for command in (p_run, p_sweep):
        _common_flags(command)
        command.add_argument("--parallel", type=int, default=1, metavar="N",
                             help="split the seeds into up to N contiguous groups, each in a "
                             "child process forked for it (at most one per seed and per usable "
                             "core); a group trains its seeds as one stack. When a second "
                             "usable core exists, a run of one group uses it too: full_data "
                             "beside the other strategies, else two groups of its seeds, in "
                             "two child processes; children never outnumber usable cores, and "
                             "a child that dies fails only its own cells")
    p_run.add_argument(
        "--strategy",
        action="append",
        help=f"strategy to run (repeatable); one of {STRATEGIES} or 'all'",
    )
    p_run.set_defaults(handler=cmd_run)
    p_sweep.add_argument("--knob", choices=SWEEP_KNOBS, required=True,
                         help="which knob to sweep: noise scale or loss weight")
    p_sweep.add_argument("--values", help="comma-separated values (default: config grid)")
    p_sweep.set_defaults(handler=cmd_sweep)

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
    config = replace(config, **changes)
    if not config.seeds:  # a valid ExperimentConfig value, but nothing to run
        raise ConfigError("no seeds given")
    return config


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
    write_manifest(out / "split_manifest.txt", {
        "seed": seed, "source": config.data_source, "num_classes": bench.num_classes,
        "num_phases": bench.num_phases, "base_size": len(bench.base),
        "phase_sizes": ",".join(str(len(p)) for p in bench.phases),
        "test_size": len(bench.test), "version": __version__})
    print(f"wrote {2 + bench.num_phases} split files to {out}")
    return 0


# --- run --------------------------------------------------------------------


def _run_cell(config: ExperimentConfig, seeds: tuple[int, ...], out_str: str) -> list[dict]:
    """Every configured strategy on a group of seeds: one setup per seed,
    then each strategy's phase walks as one stack of the group's seeds.
    A group of every seed of the run (no other worker process exists) may
    use a second usable core (see _spare_core): its seeds as two groups,
    two cells in two child processes that each build their own setups,
    or its strategies as two blocks in two child processes, from the
    setups and phase-0 grids built here; _map_cells forks the children.

    Executed in the CLI process or in a child of _map_cells. Returns one
    outcome per (strategy, seed); a failing strategy fails only its own
    (strategy, seed); a dead child fails only its own cell's.
    """
    split = _spare_core(config) if seeds == config.seeds else ""
    if split == "seeds":
        argtuples = [(config, group, out_str) for group in _seed_groups(seeds, 2)]
        return [o for group in _map_cells(_run_cell, argtuples, _run_cell_failed)
                for o in group]
    setups, outcomes = [], []
    for seed, setup in zip(seeds, _group_setups(config, seeds)):
        if isinstance(setup, Exception):
            outcomes += _run_cell_failed(setup, config, (seed,), out_str)
        else:
            setups.append(setup)
    if split != "oracle" or not setups:
        return outcomes + _run_block(config, setups, out_str, {}, config.strategies)
    blocks = [tuple(s for s in config.strategies if s != "full_data"), ("full_data",)]
    phase0_grids = _phase0_grids(config, setups, Path(out_str))
    try:
        argtuples = [(config, setups, out_str, phase0_grids, block) for block in blocks]
        for block_outcomes in _map_cells(_run_block, argtuples, _run_block_failed):
            outcomes += block_outcomes
    finally:
        for path in phase0_grids.values():
            path.unlink(missing_ok=True)
    return outcomes


def _spare_core(config: ExperimentConfig) -> str:
    """How a run whose seeds form one group uses a second usable core.
    "oracle": the full_data stack (the oracle) costs about as much as the
    other strategies together and shares nothing with them after setup,
    so it runs beside them as a block of its own; two seed groups were
    slower there. "seeds": otherwise, with two seeds or more, the seeds
    run as two contiguous groups, as --parallel 2 runs them. "": one
    process, on one usable core (where two processes taking turns were
    slower than one) or for one seed without that split."""
    if _usable_cores() < 2:
        return ""
    if "full_data" in config.strategies and len(config.strategies) > 1:
        return "oracle"
    return "seeds" if len(config.seeds) > 1 else ""


def _group_setups(config: ExperimentConfig,
                  seeds: tuple[int, ...]) -> list[SeedSetup | Exception]:
    """The setup of each seed of a group, or the exception that failed it.
    The benchmarks are built from one shallow copy of the config, which
    parses the CSV files once for the group and frees them on return; the
    base models train as one stack (see setup_seeds)."""
    group_config = copy.copy(config)
    setups: dict[int, SeedSetup | Exception] = {}
    benches = {}
    for seed in seeds:
        try:
            benches[seed] = group_config.build_benchmark(seed)
        except Exception as exc:  # noqa: BLE001 - fails only this seed
            setups[seed] = exc
    try:
        built = setup_seeds(list(benches.values()),
                            [config.run_config("boundary_distill", seed) for seed in benches])
    except Exception as exc:  # noqa: BLE001 - fails every seed of the group
        built = [exc] * len(benches)
    setups.update(zip(benches, built))
    return [setups[seed] for seed in seeds]


def _run_cell_failed(exc: Exception, config: ExperimentConfig, seeds: tuple[int, ...],
                     out_str: str) -> list[dict]:
    """Outcomes of a run cell (or one seed of it) that failed as a whole."""
    return _cells_failed(exc, config.strategies, seeds, Path(out_str))


def _run_block(config: ExperimentConfig, setups: list[SeedSetup], out_str: str,
               phase0_grids: dict[int, Path], strategies: tuple[str, ...]) -> list[dict]:
    """The phase walks of a block of strategies from a group's setups, one
    stack per strategy (see _run_strategy). Executed possibly in a worker
    process."""
    return [outcome for strategy in strategies
            for outcome in _run_strategy(config, setups, strategy, Path(out_str), phase0_grids)]


def _run_block_failed(exc: Exception, _config, setups: list[SeedSetup], out_str: str,
                      _phase0_grids, strategies: tuple[str, ...]) -> list[dict]:
    """Outcomes of a block that a dead worker process failed (its own or
    the other block's)."""
    seeds = tuple(setup.base_config.seed for setup in setups)
    return _cells_failed(exc, strategies, seeds, Path(out_str))


def _cells_failed(exc: Exception, strategies: tuple[str, ...], seeds: tuple[int, ...],
                  out: Path) -> list[dict]:
    """Outcomes of (strategy, seed) cells that failed before their records
    were written, after removing the records an earlier run of each left,
    so that report cannot list them."""
    for strategy in strategies:
        for seed in seeds:
            clear_records(out / "records", strategy, seed)
    return [_failure(exc, strategy=s, seed=seed) for s in strategies for seed in seeds]


def _run_strategy(config: ExperimentConfig, setups: list[SeedSetup], strategy: str,
                  out: Path, phase0_grids: dict[int, Path]) -> list[dict]:
    """One strategy's phase walks (records and grids) from the setups of a
    group of seeds, as one stack; one outcome per seed. phase0_grids holds
    the phase-0 grid file of each seed once a strategy has written it."""
    seeds = [setup.base_config.seed for setup in setups]
    try:
        run_cfgs = [config.run_config(strategy, seed) for seed in seeds]
        walks = run_seed_stack(setups, run_cfgs, out / "records")
    except Exception as exc:  # noqa: BLE001 - cell failures must not kill the matrix
        return _cells_failed(exc, (strategy,), tuple(seeds), out)
    return [_grids_and_outcome(config, setup, strategy, walk, out, phase0_grids)
            for setup, walk in zip(setups, walks)]


def _phase0_grids(config: ExperimentConfig, setups: list[SeedSetup],
                  out: Path) -> dict[int, Path]:
    """The phase-0 grid of each seed with 2-d inputs, written once to a
    hidden file in out for the blocks to copy; the caller removes them. A
    seed whose export fails is left out, so that its blocks export it
    again and fail its cells as a one-block run does."""
    paths = {}
    for setup in setups:
        if setup.bench.base.dim != 2:
            continue
        seed = setup.base_config.seed
        path = out / f".base_seed{seed}_phase00.csv"
        try:
            _export_grid(config, setup, setup.base_model, path)
        except Exception:  # noqa: BLE001 - see above
            continue
        paths[seed] = path
    return paths


def _grids_and_outcome(config: ExperimentConfig, setup: SeedSetup, strategy: str,
                       walk: tuple | Exception, out: Path, phase0_grids: dict[int, Path]) -> dict:
    """The outcome of one seed's phase walk, after exporting its grids. The
    phase-0 grid is the base model's, the same for every strategy, so it is
    computed once, by _phase0_grids or for the first strategy, and its
    bytes copied for the others from that file (phase0_grids[seed]), which
    holds no text in memory."""
    seed = setup.base_config.seed
    if isinstance(walk, Exception):
        return _failure(walk, strategy=strategy, seed=seed)
    try:
        results, record = walk
        if setup.bench.base.dim == 2:
            grid_dir = out / "grids"
            grid_dir.mkdir(parents=True, exist_ok=True)
            for res in results:
                path = grid_dir / f"{strategy}_seed{seed}_phase{res.phase_index:02d}.csv"
                if res.phase_index == 0 and seed in phase0_grids:
                    write_atomic(path, phase0_grids[seed].read_bytes().decode())
                    continue
                _export_grid(config, setup, res.model, path)
                if res.phase_index == 0:
                    phase0_grids[seed] = path
        return {"strategy": strategy, "seed": seed, "status": "ok", "pp": record.pp,
                "forgetting": record.forgetting}
    except Exception as exc:  # noqa: BLE001 - cell failures must not kill the matrix
        return _failure(exc, strategy=strategy, seed=seed)


def _export_grid(config: ExperimentConfig, setup: SeedSetup, model: np.ndarray,
                 path: Path) -> None:
    """The boundary grid of one of a seed's models, over its test split's
    range padded by a tenth on each side."""
    feats = setup.bench.test.features
    pad = 0.1 * (feats.max(axis=0) - feats.min(axis=0))
    lo, hi = feats.min(axis=0) - pad, feats.max(axis=0) + pad
    export_boundary_grid(model, setup.net_spec, (float(lo[0]), float(hi[0])),
                         (float(lo[1]), float(hi[1])), config.grid_resolution, path=path)


def _failure(exc: Exception, **cell) -> dict:
    """Outcome of a failed (strategy or value, seed)."""
    return {**cell, "status": "failed", "error": f"{type(exc).__name__}: {exc}",
            "trace": "".join(traceback.format_exception(exc))}


def cmd_run(args: argparse.Namespace) -> int:
    config = _load(args)
    workers = _pool_size(args.parallel, len(config.seeds), _usable_cores())
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
               for group in _map_cells(_run_cell, argtuples, _run_cell_failed)
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


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one (so a run pinned with taskset counts its pinned
    cores), else the machine's core count. One where the platform cannot
    fork, since worker processes take their cells through a fork (see
    _map_cells)."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def _map_cells(worker, argtuples: list[tuple], failed) -> list[list[dict]]:
    """Run the cells and return each cell's outcomes, in cell order. One
    cell runs in this process. Two or more run at once, each in a child
    process forked from this one (every caller passes as many cells as it
    wants processes), which reads its cell from this process's memory and
    sends back only its outcomes and warnings, pickled, through a pipe of
    its own. A cell whose child died (a non-zero exit, a signal, or no
    outcomes) gets `failed(exc, *args)` once that child is reaped; the
    other cells run on. An exception that a worker raises is raised here.
    No child outlives this call: if this process raises while children
    run, each gets SIGTERM and is reaped first. The children's warnings
    are shown here, in cell order (see _warn_again)."""
    if len(argtuples) < 2:
        return [worker(*args) for args in argtuples]
    running, pipes = [], []  # the children not yet reaped, and each cell's read end
    try:
        for args in argtuples:
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            pid = os.fork()
            if pid == 0:
                _run_child(worker, args, pipes, write_end)
            os.close(write_end)
            running.append(pid)
        per_cell, caught = [], []
        for pid, pipe, args in zip(list(running), pipes, argtuples):
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.remove(pid)
            if code or not data:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                per_cell.append(failed(ChildProcessError(
                    f"worker process {how} before returning its outcomes"), *args))
                continue
            result = pickle.loads(data)
            if isinstance(result, BaseException):
                raise result
            per_cell.append(result[0])
            caught += result[1]
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in running:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGTERM)
        for pid in running:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    _warn_again(caught)
    return per_cell


def _run_child(worker, args: tuple, pipes: list, write_end: int) -> None:
    """A forked child of _map_cells: runs one cell, recording the (message,
    category, file, line) of each warning it raises instead of showing it,
    writes the pickled (outcomes, warnings), or the exception the worker
    raised, to write_end, and leaves through os._exit, never returning.

    It first frees one untouched 4 MB block. glibc's malloc raises its mmap
    threshold to the size of a freed mapped block, and its trim threshold
    to twice that, so the stacks' temporaries of up to 4 MB are then reused
    from the heap instead of being mapped, faulted in and unmapped at every
    step: without it, the oracle's worker of a 20-seed run took about a
    million page faults and 2 s of system time."""
    code = 1
    try:
        for pipe in pipes:  # so that a child whose parent is gone gets EPIPE, not a full pipe
            pipe.close()
        bytes(4 << 20)  # calloc'd, so its pages are never touched
        try:
            with warnings.catch_warnings(record=True) as caught:
                outcomes = worker(*args)
            result = outcomes, [(str(w.message), w.category, w.filename, w.lineno)
                                for w in caught]
        except BaseException as exc:  # noqa: BLE001 - raised again in the parent
            exc.__notes__ = [*getattr(exc, "__notes__", ()), "in a worker process:\n"
                             + "".join(traceback.format_exception(exc)).rstrip()]
            result = exc
        try:
            data = pickle.dumps(result)
        except Exception as exc:  # noqa: BLE001 - an unpicklable result is raised as that
            data = pickle.dumps(exc)
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _warn_again(caught: list[tuple]) -> None:
    """Show warnings that worker processes recorded, in order, through this
    process's filters and the registry of the module that raised each one,
    so that each (message, category, file, line) shows once, as in one
    process."""
    modules = {m.__file__: vars(m) for m in list(sys.modules.values())
               if getattr(m, "__file__", None)}
    for message, category, filename, lineno in caught:
        module = modules.setdefault(filename, {})
        # named as warn_explicit names a file by default: module=None drops the warning
        warnings.warn_explicit(message, category, filename, lineno,
                               module=module.get("__name__") or filename.removesuffix(".py"),
                               registry=module.setdefault("__warningregistry__", {}))


# --- sweep ------------------------------------------------------------------


def _sweep_cell(
    config: ExperimentConfig, knob: str, values: tuple[float, ...], *seeds: int
) -> list[dict]:
    """Phase-1-only sensitivity runs of every value on a group of seeds,
    each seed's values from its own setup (see _group_setups). Returns one
    outcome per (seed, value), seed-major and in value order; a seed whose
    setup failed fails only its own values."""
    outcomes = []
    for seed, setup in zip(seeds, _group_setups(config, seeds)):
        if isinstance(setup, Exception):
            outcomes += _sweep_cell_failed(setup, config, knob, values, seed)
        else:
            outcomes += _sweep_seed(config, knob, values, setup)
    return outcomes


def _sweep_seed(config: ExperimentConfig, knob: str, values: tuple[float, ...],
                setup: SeedSetup) -> list[dict]:
    """Every value on one seed's setup: the values with distill weight > 0
    train as one stack, any weight-0 values as another. Returns one outcome
    per value, in value order; a failing value fails only its own (value,
    seed)."""
    seed = setup.base_config.seed
    ctx = setup.context(1)
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
            results = _boundary_distill_lanes([setup.base_model], [setup.bench.phases[0]],
                                              list(stack.values()), [ctx]) if stack else []
        except Exception as exc:  # noqa: BLE001
            results = [exc] * len(stack)
        for value, res in zip(stack, results):
            if isinstance(res, Exception):
                outcomes[value] = _failure(res, knob=knob, value=value, seed=seed)
            else:
                outcomes[value] = {"status": "ok", "knob": knob, "value": value, "seed": seed,
                                   "acc_student": res.student_acc_test, "acc_teacher": res.acc_test}
    return [outcomes[value] for value in values]


def _sweep_cell_failed(exc: Exception, _config, knob: str, values: tuple,
                       *seeds: int) -> list[dict]:
    """Outcomes of a sweep cell (or one seed of it) that failed as a whole."""
    return [_failure(exc, knob=knob, value=value, seed=seed)
            for seed in seeds for value in values]


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
    workers = _pool_size(args.parallel, len(config.seeds), _usable_cores())
    if args.dry_run:
        print(dump_config(config), end="")
        print(f"# plan: sweep {args.knob} over {list(values)} x seeds {list(config.seeds)} -> {out}")
        return 0

    out.mkdir(parents=True, exist_ok=True)
    argtuples = [(config, args.knob, values, *group)
                 for group in _seed_groups(config.seeds, workers)]
    per_group = _map_cells(_sweep_cell, argtuples, _sweep_cell_failed)
    seed_major = [outcome for group in per_group for outcome in group]
    outcomes = [o for v in range(len(values)) for o in seed_major[v::len(values)]]  # value-major
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
        med_s = median([o["acc_student"] for o in group])
        med_t = median([o["acc_teacher"] for o in group])
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
