"""Command-line interface: argument handling, exit codes, artifacts."""

import contextlib
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import boundary_distill
from boundary_distill import cli, protocol
from boundary_distill import config as config_module
from boundary_distill.config import ExperimentConfig, dump_config, load_config
from boundary_distill.data import Dataset, save_csv
from boundary_distill.reporting import read_record_csv
from boundary_distill.seeding import derive_seed

TINY = """\
# small end-to-end exercise config
data.num_phases = 2
synthetic.base_per_class = 50
synthetic.phase_per_class = 10
synthetic.test_per_class = 10
train.epochs_per_phase = 3
train.fine_tune_epochs = 2
train.batch_size = 16
seeds = 0
strategies = fine_tune
grid.resolution = 12
"""


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fails a test that leaves a child process of this one unreaped,
    running or exited: no command may leave one."""
    yield
    with contextlib.suppress(ChildProcessError):  # no child at all
        pid, _ = os.waitpid(-1, os.WNOHANG)
        pytest.fail("a child process was left " + (f"unreaped ({pid})" if pid else "running"))


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


def test_dry_run_exits_zero_and_touches_nothing(tiny_config, tmp_path, capsys):
    out = tmp_path / "never"
    rc = cli.main(
        ["run", "--config", str(tiny_config), "--out", str(out), "--dry-run"]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "# plan: 1 run(s)" in printed
    assert "fine_tune seed=0" in printed
    # the resolved config is echoed in reusable key=value form
    assert "train.epochs_per_phase = 3" in printed
    assert not out.exists()


def test_split_dry_run(tiny_config, tmp_path, capsys):
    out = tmp_path / "never"
    rc = cli.main(
        ["split", "--config", str(tiny_config), "--out", str(out), "--dry-run"]
    )
    assert rc == 0
    assert "# plan:" in capsys.readouterr().out
    assert not out.exists()


def test_split_writes_all_files(tiny_config, tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["split", "--config", str(tiny_config), "--out", str(out)])
    assert rc == 0
    splits = out / "splits"
    names = sorted(p.name for p in splits.iterdir())
    assert names == [
        "base.csv",
        "phase_01.csv",
        "phase_02.csv",
        "split_manifest.txt",
        "test.csv",
    ]
    manifest = (splits / "split_manifest.txt").read_text()
    assert "base_size=200" in manifest
    assert "phase_sizes=40,40" in manifest


def test_split_is_deterministic(tiny_config, tmp_path):
    for name in ("a", "b"):
        assert cli.main(
            ["split", "--config", str(tiny_config), "--out", str(tmp_path / name)]
        ) == 0
    for fname in ("base.csv", "phase_01.csv", "phase_02.csv", "test.csv"):
        left = (tmp_path / "a" / "splits" / fname).read_bytes()
        right = (tmp_path / "b" / "splits" / fname).read_bytes()
        assert left == right, fname


def test_seed_flag_changes_split(tiny_config, tmp_path):
    assert cli.main(
        ["split", "--config", str(tiny_config), "--out", str(tmp_path / "a")]
    ) == 0
    assert cli.main(
        ["split", "--config", str(tiny_config), "--out", str(tmp_path / "b"),
         "--seed", "7"]
    ) == 0
    left = (tmp_path / "a" / "splits" / "base.csv").read_bytes()
    right = (tmp_path / "b" / "splits" / "base.csv").read_bytes()
    assert left != right


def test_run_produces_records_grids_manifest(tiny_config, tmp_path, capsys):
    # boundary_distill's teacher consolidates, at epochs 2 and 3 of each phase
    tiny_config.write_text(TINY + "consolidate.freeze_epochs = 1\nconsolidate.period_epochs = 1\n")
    out = tmp_path / "o"
    rc = cli.main(["run", "--config", str(tiny_config), "--out", str(out),
                   "--strategy", "fine_tune", "--strategy", "boundary_distill"])
    assert rc == 0
    record_path = out / "records" / "record_fine_tune_seed0.csv"
    record = read_record_csv(record_path)
    assert record.strategy == "fine_tune"
    assert [p.phase for p in record.per_phase] == [0, 1, 2]
    manifest = (out / "manifest.txt").read_text()
    assert "status=ok" in manifest
    assert "completed=2" in manifest
    assert "fine_tune seed=0: pp=" in capsys.readouterr().out
    # the resolved config re-parses to the file config plus the flag overrides
    resolved = load_config(out / "config.resolved")
    assert resolved == replace(load_config(tiny_config), out_dir=str(out),
                               strategies=("fine_tune", "boundary_distill"))
    assert cli.main(["report", str(out)]) == 0
    # every file that run and report write, and nothing else
    assert sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()) == [
        "config.resolved",
        *(f"grids/{s}_seed0_phase{t:02d}.csv" for s in ("boundary_distill", "fine_tune")
          for t in (0, 1, 2)),
        "manifest.txt",
        "records/record_boundary_distill_seed0.csv",
        "records/record_fine_tune_seed0.csv",
        "report/manifest.txt",
        "report/per_phase.csv",
        "report/summary.csv",
    ]


def test_run_parallel_matches_serial(tiny_config, tmp_path):
    cfg2 = tmp_path / "two_seeds.cfg"
    cfg2.write_text(TINY.replace("seeds = 0", "seeds = 0,1"))
    assert cli.main(["run", "--config", str(cfg2), "--out", str(tmp_path / "s")]) == 0
    assert cli.main(
        ["run", "--config", str(cfg2), "--out", str(tmp_path / "p"), "--parallel", "2"]
    ) == 0
    for seed in (0, 1):
        fname = f"record_fine_tune_seed{seed}.csv"
        serial = (tmp_path / "s" / "records" / fname).read_bytes()
        parallel = (tmp_path / "p" / "records" / fname).read_bytes()
        assert serial == parallel


def test_sweep_parallel_matches_serial(tiny_config, tmp_path, monkeypatch):
    # 3 seeds and --parallel 2: the groups (0, 1) and (2,), one per worker
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    cfg3 = tmp_path / "three_seeds.cfg"
    cfg3.write_text(TINY.replace("seeds = 0", "seeds = 0,1,2"))
    for out, extra in (("s", []), ("p", ["--parallel", "2"])):
        assert cli.main(["sweep", "--config", str(cfg3), "--knob", "delta", "--values",
                         "0.5,2.0", "--out", str(tmp_path / out), *extra]) == 0
    for fname in ("sweep_delta.csv", "sweep_delta_summary.csv"):
        assert (tmp_path / "s" / fname).read_bytes() == (tmp_path / "p" / fname).read_bytes()
    assert len((tmp_path / "s" / "sweep_delta.csv").read_text().splitlines()) == 7


def test_run_failure_exits_one(tiny_config, tmp_path, monkeypatch, capsys):
    def boom(*_args, **_kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "run_seed_stack", boom)
    rc = cli.main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().err
    manifest = (tmp_path / "o" / "manifest.txt").read_text()
    assert "status=failed" in manifest


def test_diverged_base_training_fails_without_records(tmp_path, capsys):
    config = tmp_path / "diverging.cfg"
    config.write_text(TINY + "train.lr_base = 1e300\n")
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["run", "--config", str(config), "--strategy", "all", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "boundary_distill seed=0: FAILED (FloatingPointError: base training, phase 0, epoch" in err
    assert not list(out.rglob("record_*.csv"))
    assert "failed=4" in (out / "manifest.txt").read_text()


def test_failed_setup_clears_the_earlier_records(tmp_path, capsys):
    # a rerun whose base training diverges never reaches protocol._finish;
    # the records of the first run must not outlive it for report to list
    config = tmp_path / "all.cfg"
    config.write_text(TINY.replace("strategies = fine_tune", "strategies = " + ",".join(
        protocol.STRATEGIES)))
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    (out / "records" / "record_fine_tune_partial_seed0.csv").write_text("left over\n")
    config.write_text(config.read_text() + "train.lr_base = 1e308\n")
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 1
    assert not list((out / "records").iterdir())
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 2
    assert "no record_*.csv files" in capsys.readouterr().err


def _failed_lines(err: str, seed: int) -> list[str]:
    return [line for line in err.splitlines() if f"seed={seed}: FAILED" in line]


def _files_but_seed_one(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and "seed1" not in p.name and p.name != "config.resolved"}


@pytest.mark.parametrize("command", [["run", "--strategy", "all"],
                                     ["sweep", "--knob", "delta", "--values", "0.5,2.0"]],
                         ids=["run", "sweep"])
def test_diverging_base_training_fails_only_its_seed(command, tmp_path, monkeypatch, capsys):
    # seed 1 starts from 1e300 times its initialization, so its base training
    # diverges in epoch 1, inside the stack of the group (0, 1, 2)
    config = tmp_path / "three_seeds.cfg"
    config.write_text(TINY.replace("seeds = 0", "seeds = 0,1,2"))
    argv = [*command, "--config", str(config)]
    assert cli.main([*argv, "--out", str(tmp_path / "clean")]) == 0
    capsys.readouterr()
    real = protocol.init_network
    poisoned = derive_seed(1, "init")
    monkeypatch.setattr(protocol, "init_network", lambda spec, seed: real(spec, seed) * (
        1e300 if seed == poisoned else 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main([*argv, "--out", str(tmp_path / "group")]) == 1
        err = capsys.readouterr().err
        assert cli.main([*argv, "--seed", "1", "--out", str(tmp_path / "alone")]) == 1
        alone = capsys.readouterr().err
    assert _failed_lines(err, 1) == _failed_lines(alone, 1)
    assert "FAILED (FloatingPointError: base training, phase 0, epoch 1: " in err
    assert not _failed_lines(err, 0) and not _failed_lines(err, 2)
    # the other seeds' files, and their rows of the sweep CSV, do not change
    group = _files_but_seed_one(tmp_path / "group")
    clean = _files_but_seed_one(tmp_path / "clean")
    if command[0] == "run":
        assert "failed=4" in group.pop("manifest.txt").decode()
        clean.pop("manifest.txt")
        assert group == clean
    else:
        kept = [row for row in clean["sweep_delta.csv"].decode().splitlines()
                if row.split(",")[2] != "1"]
        assert group["sweep_delta.csv"].decode().splitlines() == kept
        assert len(kept) == 5


@pytest.fixture()
def two_seed_config(tmp_path):
    path = tmp_path / "two_seeds.cfg"
    path.write_text(TINY.replace("seeds = 0", "seeds = 0,1"))
    return path


@pytest.fixture()
def base_trainings(monkeypatch):
    """Seeds of the configs passed to cli.setup_seeds (one per base model
    trained)."""
    calls = []
    real = cli.setup_seeds

    def counted(benches, configs):
        calls.extend(config.seed for config in configs)
        return real(benches, configs)

    monkeypatch.setattr(cli, "setup_seeds", counted)
    return calls


def test_run_trains_one_base_model_per_seed(two_seed_config, tmp_path, base_trainings):
    rc = cli.main(["run", "--config", str(two_seed_config), "--strategy", "all",
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    assert sorted(base_trainings) == [0, 1]
    assert len(list((tmp_path / "o" / "records").glob("record_*.csv"))) == 8


def test_phase0_grid_is_computed_once_per_seed(two_seed_config, tmp_path, monkeypatch):
    # every strategy's phase 0 is the seed's base model: its grid is
    # computed once and its bytes written for all four. The exports are
    # logged to a file, so that those of worker processes count too.
    log = tmp_path / "exports.txt"
    real = cli.export_boundary_grid

    def counted(model, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(kwargs["path"].name + "\n")
        return real(model, *args, **kwargs)

    monkeypatch.setattr(cli, "export_boundary_grid", counted)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(two_seed_config), "--strategy", "all",
                     "--out", str(out)]) == 0
    computed = log.read_text().splitlines()
    for seed in (0, 1):
        # 4 strategies x 2 phases, plus one phase-0 grid
        assert len([name for name in computed if f"_seed{seed}_" in name]) == 4 * 2 + 1
        phase0 = {(out / "grids" / f"{s}_seed{seed}_phase00.csv").read_bytes()
                  for s in protocol.STRATEGIES}
        assert len(phase0) == 1
    assert len(list((out / "grids").iterdir())) == 2 * 4 * 3


def test_sweep_trains_one_base_model_per_seed(two_seed_config, tmp_path, base_trainings):
    rc = cli.main(["sweep", "--config", str(two_seed_config), "--knob", "delta",
                   "--values", "0.5,2.0", "--out", str(tmp_path / "o")])
    assert rc == 0
    assert sorted(base_trainings) == [0, 1]
    detail = (tmp_path / "o" / "sweep_delta.csv").read_text().splitlines()[1:]
    # rows stay value-major
    assert [row.split(",")[1:3] for row in detail] == [
        ["0.5", "0"], ["0.5", "1"], ["2.0", "0"], ["2.0", "1"]
    ]


def test_failing_strategy_fails_only_its_own_cell(tiny_config, tmp_path, monkeypatch, capsys):
    def boom(*_args, **_kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(protocol, "_boundary_distill_lanes", boom)
    out = tmp_path / "o"
    rc = cli.main(["run", "--config", str(tiny_config), "--out", str(out),
                   "--strategy", "boundary_distill", "--strategy", "fine_tune"])
    assert rc == 1
    assert "boundary_distill seed=0: FAILED (RuntimeError: synthetic failure)" in (
        capsys.readouterr().err
    )
    assert read_record_csv(out / "records" / "record_fine_tune_seed0.csv").strategy == "fine_tune"
    assert not (out / "records" / "record_boundary_distill_seed0.csv").exists()
    # its phase-0 grid, written before the walks, goes with it
    assert sorted(p.name for p in (out / "grids").iterdir()) == [
        f"fine_tune_seed0_phase{t:02d}.csv" for t in (0, 1, 2)]
    manifest = (out / "manifest.txt").read_text()
    assert "completed=1" in manifest and "failed=1" in manifest


@pytest.mark.parametrize("cores", [1, 2])
def test_a_phase0_grid_that_cannot_be_exported_fails_its_seed(cores, two_seed_config, tmp_path,
                                                              monkeypatch, capsys):
    # one usable core: the cell's process exports it; two: the CLI process,
    # before the oracle split forks. Seed 1's strategies fail before any
    # walk and keep no record or grid of the earlier run; seed 0 completes
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    out = tmp_path / "o"
    argv = ["run", "--config", str(two_seed_config), "--strategy", "all", "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    real = cli._export_grid

    def refuses_seed_one(config, setup, model, path):
        if path.name.endswith("_seed1_phase00.csv"):
            raise OSError("disk full")
        return real(config, setup, model, path)

    monkeypatch.setattr(cli, "_export_grid", refuses_seed_one)
    assert cli.main(argv) == 1
    printed = capsys.readouterr()
    assert [line for line in printed.err.splitlines() if ": FAILED (" in line] == [
        f"{s} seed=1: FAILED (OSError: disk full)" for s in protocol.STRATEGIES]
    assert printed.out.count("pp=") == 4
    assert not [p.name for p in out.rglob("*") if "seed1" in p.name]
    assert sorted(p.name for p in (out / "records").glob("record_*.csv")) == sorted(
        f"record_{s}_seed0.csv" for s in protocol.STRATEGIES)
    assert len(list((out / "grids").iterdir())) == 4 * 3
    manifest = (out / "manifest.txt").read_text()
    assert "completed=4" in manifest and "failed=4" in manifest


@pytest.mark.parametrize("failure", ["walk", "export"])
def test_a_failed_walk_or_grid_export_keeps_no_grids(failure, two_seed_config, tmp_path,
                                                     monkeypatch, capsys):
    # a rerun into the output of a clean run, in which seed 1's walk fails,
    # or its phase-2 grid cannot be written: none of its grids remain, and
    # after a failed export none of its records either
    out = tmp_path / "o"
    argv = ["run", "--config", str(two_seed_config), "--out", str(out)]
    assert cli.main(argv) == 0
    kept = {p.name: p.read_bytes() for p in (out / "grids").glob("*_seed0_*")}
    capsys.readouterr()
    real_stack, real_export = cli.run_seed_stack, cli._export_grid

    def walk_fails(setups, configs, out_dir):
        return [RuntimeError("no walk") if config.seed == 1 else walk
                for config, walk in zip(configs, real_stack(setups, configs, out_dir))]

    def export_fails(config, setup, model, path):
        if path.name == "fine_tune_seed1_phase02.csv":
            raise RuntimeError("no export")
        return real_export(config, setup, model, path)

    if failure == "walk":
        monkeypatch.setattr(cli, "run_seed_stack", walk_fails)
    else:
        monkeypatch.setattr(cli, "_export_grid", export_fails)
    assert cli.main(argv) == 1
    assert _failed_lines(capsys.readouterr().err, 1) == [
        f"fine_tune seed=1: FAILED (RuntimeError: no {failure})"]
    assert {p.name: p.read_bytes() for p in (out / "grids").iterdir()} == kept
    records = sorted(p.name for p in (out / "records").iterdir())
    assert ("record_fine_tune_seed1.csv" in records) == (failure == "walk")
    assert "record_fine_tune_seed0.csv" in records


def test_pool_size_is_clamped_to_cells_and_cores():
    assert cli._pool_size(1, 5, 8) == 1
    assert cli._pool_size(4, 5, 8) == 4
    assert cli._pool_size(64, 5, 8) == 5
    assert cli._pool_size(64, 5, 2) == 2
    assert cli._pool_size(3, 0, 2) == 0
    for bad in (0, -1):
        with pytest.raises(cli.ConfigError, match="--parallel"):
            cli._pool_size(bad, 5, 8)


def test_parallel_below_one_exits_two(tiny_config, tmp_path, capsys):
    for command in (["run"], ["sweep", "--knob", "delta"]):
        rc = cli.main([*command, "--config", str(tiny_config), "--out", str(tmp_path / "o"),
                       "--parallel", "0"])
        assert rc == 2
        assert "--parallel must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# the error of the cells of a child process that died with os._exit(3)
DIED = "ChildProcessError: worker process exited with code 3 before returning its outcomes"


def test_dying_worker_fails_its_cells(two_seed_config, tmp_path, monkeypatch, capsys):
    real = cli.setup_seeds

    def dies_on_seed_one(benches, configs):
        if any(config.seed == 1 for config in configs):
            os._exit(3)
        return real(benches, configs)

    # forked children inherit the patched module attribute; two reported
    # cores put the cells in two children, never in this process
    monkeypatch.setattr(cli, "setup_seeds", dies_on_seed_one)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    rc = cli.main(["run", "--config", str(two_seed_config), "--out", str(run_out),
                   "--parallel", "2"])
    assert rc == 1
    assert f"fine_tune seed=1: FAILED ({DIED})" in capsys.readouterr().err
    manifest = (run_out / "manifest.txt").read_text()
    assert "status=failed" in manifest and "failed=0" not in manifest

    rc = cli.main(["sweep", "--config", str(two_seed_config), "--knob", "delta",
                   "--values", "0.5,2.0", "--out", str(sweep_out), "--parallel", "2"])
    assert rc == 1
    assert f"sweep delta=2.0 seed=1: FAILED ({DIED})" in capsys.readouterr().err
    detail = (sweep_out / "sweep_delta.csv").read_text().splitlines()
    assert detail[0] == "knob,value,seed,acc_student,acc_teacher"
    assert not [row for row in detail[1:] if row.split(",")[2] == "1"]
    assert (sweep_out / "sweep_delta_summary.csv").exists()


def test_parallel_splits_seeds_into_contiguous_groups():
    assert cli._seed_groups((0, 1, 2), 2) == [(0, 1), (2,)]
    assert cli._seed_groups((0, 1, 2, 3, 4), 1) == [(0, 1, 2, 3, 4)]
    assert cli._seed_groups((0, 1, 2, 3, 4), 3) == [(0, 1), (2, 3), (4,)]
    assert cli._seed_groups((5, 7), 2) == [(5,), (7,)]
    assert cli._seed_groups((), 0) == []


def test_serial_run_is_one_group(tmp_path, monkeypatch):
    # one usable core: on two, the group would send its seeds' cells to
    # worker processes, whose calls this process's list would not see
    cells = []
    real = cli._run_cell

    def spy(config, plan, out):
        cells.append(plan)
        return real(config, plan, out)

    monkeypatch.setattr(cli, "_run_cell", spy)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    config = tmp_path / "three_seeds.cfg"
    config.write_text(TINY.replace("seeds = 0", "seeds = 0,1,2"))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert cells == [[(("fine_tune",), (0, 1, 2))]]


# cores, --parallel, seeds -> the sizes of the seed groups, and whether a
# run of full_data and another strategy puts full_data beside the others
PLANS = [
    *[(1, parallel, seeds, [seeds], False) for parallel in (1, 2, 3) for seeds in (1, 2, 5)],
    (2, 1, 1, [1], True), (2, 1, 2, [1, 1], True), (2, 1, 5, [3, 2], True),
    (2, 2, 1, [1], True), (2, 2, 2, [1, 1], False), (2, 2, 5, [3, 2], False),
    (2, 3, 1, [1], True), (2, 3, 2, [1, 1], False), (2, 3, 5, [3, 2], False),
    (4, 1, 1, [1], True), (4, 1, 2, [1, 1], True), (4, 1, 5, [3, 2], True),
    (4, 2, 1, [1], True), (4, 2, 2, [1, 1], False), (4, 2, 5, [3, 2], False),
    (4, 3, 1, [1], True), (4, 3, 2, [1, 1], False), (4, 3, 5, [2, 2, 1], False),
]


@pytest.mark.parametrize(("cores", "parallel", "seeds", "sizes", "oracle"), PLANS,
                         ids=[f"{c}cores-parallel{p}-{n}seeds" for c, p, n, *_ in PLANS])
def test_plan_cells(cores, parallel, seeds, sizes, oracle):
    for strategies in (("boundary_distill", "fine_tune"), ("full_data",), protocol.STRATEGIES):
        config = ExperimentConfig(seeds=tuple(range(10, 10 + seeds)), strategies=strategies)
        cells = cli._plan(config, parallel, cores)
        if oracle and len(strategies) > 1 and "full_data" in strategies:
            assert cells == [(strategies[:-1], config.seeds), (("full_data",), config.seeds)]
        else:
            assert [cell for cell, _ in cells] == [strategies] * len(sizes)
            assert [len(group) for _, group in cells] == sizes
            assert tuple(seed for _, group in cells for seed in group) == config.seeds
        assert len(cells) <= cores
        # every (strategy, seed) of the run in exactly one cell
        assert sorted((s, seed) for cell, group in cells for s in cell for seed in group) == sorted(
            (s, seed) for s in strategies for seed in config.seeds)
    assert cli._plan(replace(config, strategies=()), parallel, cores) == []


# run shapes on two usable cores: extra argv, seeds, strategies
SHAPES = {
    "parallel": (["--parallel", "2"], "0,1,2", protocol.STRATEGIES),  # groups (0, 1) and (2,)
    "seeds": ([], "0,1,2", ("fine_tune",)),  # the same groups, by default
    "oracle": ([], "0,1", protocol.STRATEGIES),  # full_data beside the other strategies
}


def _shape_argv(tmp_path: Path, shape: str) -> list[str]:
    extra, seeds, strategies = SHAPES[shape]
    config = tmp_path / f"{shape}.cfg"
    config.write_text(TINY.replace("seeds = 0", f"seeds = {seeds}").replace(
        "strategies = fine_tune", "strategies = " + ",".join(strategies)))
    return ["run", "--config", str(config), *extra]


@pytest.mark.parametrize("shape", ["one_core", *SHAPES])
def test_run_cell_is_entered_once_in_the_cli_process(shape, tmp_path, monkeypatch):
    # a traced run times its cells as one cli.cell span, so whatever the
    # shape, the CLI process calls _run_cell once and no child calls it
    log = tmp_path / "run_cell_pids.txt"
    real = cli._run_cell

    def logged(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(cli, "_run_cell", logged)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1 if shape == "one_core" else 2)
    argv = _shape_argv(tmp_path, "oracle" if shape == "one_core" else shape)
    assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 0
    assert log.read_text().split() == [str(os.getpid())]


@pytest.fixture()
def setup_pids(tmp_path, monkeypatch):
    """Reads [(pid, seeds)] of every cli.setup_seeds call, logged to a file
    by the process that made it."""
    log = tmp_path / "setup_pids.txt"
    real = cli.setup_seeds

    def logged(benches, configs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {','.join(str(c.seed) for c in configs)}\n")
        return real(benches, configs)

    monkeypatch.setattr(cli, "setup_seeds", logged)

    def read() -> list[tuple[int, str]]:
        calls = [(int(pid), seeds) for pid, seeds in map(str.split, log.read_text().splitlines())]
        log.unlink()
        return sorted(calls, key=lambda call: call[1])

    return read


def test_seed_split_matches_one_core(tmp_path, monkeypatch, capsys, setup_pids):
    # one usable core: both seeds in this process; two: each seed in a worker
    # process of its own, which builds its setup, same bytes
    config = tmp_path / "two_seeds.cfg"
    config.write_text(TINY.replace("seeds = 0", "seeds = 0,1").replace(
        "strategies = fine_tune", "strategies = boundary_distill,fine_tune"))
    monkeypatch.chdir(tmp_path)  # one relative --out, so config.resolved matches
    printed = {}
    for cores in (1, 2):
        monkeypatch.setattr(cli, "_usable_cores", lambda cores=cores: cores)
        assert cli.main(["run", "--config", str(config), "--out", "o"]) == 0
        assert cli.main(["report", "o"]) == 0
        printed[cores] = capsys.readouterr()
        os.rename("o", f"cores{cores}")
        calls = setup_pids()
        if cores == 1:
            assert calls == [(os.getpid(), "0,1")]
        else:
            assert [seeds for _, seeds in calls] == ["0", "1"]
            pids = {pid for pid, _ in calls}
            assert len(pids) == 2 and os.getpid() not in pids
    assert printed[1] == printed[2]
    assert printed[1].out.count("pp=") == 4 and not printed[1].err
    assert _files(tmp_path / "cores1") == _files(tmp_path / "cores2")


@pytest.fixture()
def strategy_pids(tmp_path, monkeypatch):
    """Reads {strategy: pids of the processes that walked it}, logged to a
    file by every process that calls cli.run_seed_stack."""
    log = tmp_path / "pids.txt"
    real = cli.run_seed_stack

    def logged(setups, configs, out_dir):
        with open(log, "a") as fh:
            fh.write(f"{configs[0].strategy} {os.getpid()}\n")
        return real(setups, configs, out_dir)

    monkeypatch.setattr(cli, "run_seed_stack", logged)

    def read() -> dict[str, set[int]]:
        pids: dict[str, set[int]] = {}
        for line in log.read_text().splitlines():
            strategy, pid = line.split()
            pids.setdefault(strategy, set()).add(int(pid))
        log.unlink()
        return pids

    return read


def test_oracle_beside_the_others_matches_one_core(two_seed_config, tmp_path, monkeypatch,
                                                  capsys, strategy_pids):
    # one usable core: every strategy in this process; two: full_data in one
    # worker process and the other strategies in another, same bytes
    monkeypatch.chdir(tmp_path)  # one relative --out, so config.resolved matches
    printed = {}
    for cores in (1, 2):
        monkeypatch.setattr(cli, "_usable_cores", lambda cores=cores: cores)
        assert cli.main(["run", "--config", str(two_seed_config), "--strategy", "all",
                         "--out", "o"]) == 0
        assert cli.main(["report", "o"]) == 0
        printed[cores] = capsys.readouterr()
        os.rename("o", f"cores{cores}")
        pids = strategy_pids()
        others = set().union(*(pids[s] for s in protocol.STRATEGIES if s != "full_data"))
        if cores == 1:
            assert others == pids["full_data"] == {os.getpid()}
        else:
            assert len(others) == len(pids["full_data"]) == 1
            assert os.getpid() not in others | pids["full_data"]
            assert others != pids["full_data"]
    assert printed[1] == printed[2]
    assert printed[1].out.count("pp=") == 8 and not printed[1].err
    assert _files(tmp_path / "cores1") == _files(tmp_path / "cores2")
    assert not [p for p in (tmp_path / "cores2").iterdir() if p.name.startswith(".")]


def test_cells_that_refuse_pickling_still_run(two_seed_config, tmp_path, monkeypatch, capsys):
    # the oracle split hands its blocks the setups built in this process;
    # the forked workers read them from memory, so none is pickled
    def refuse(*_args):
        raise TypeError("a SeedSetup was pickled")

    monkeypatch.setattr(protocol.SeedSetup, "__reduce_ex__", refuse)
    monkeypatch.chdir(tmp_path)  # one relative --out, so config.resolved matches
    printed = {}
    for cores in (1, 2):
        monkeypatch.setattr(cli, "_usable_cores", lambda cores=cores: cores)
        assert cli.main(["run", "--config", str(two_seed_config), "--strategy", "all",
                         "--out", "o"]) == 0
        assert cli.main(["report", "o"]) == 0
        printed[cores] = capsys.readouterr()
        os.rename("o", f"cores{cores}")
    assert printed[1] == printed[2]
    assert printed[1].out.count("pp=") == 8 and not printed[1].err
    assert _files(tmp_path / "cores1") == _files(tmp_path / "cores2")


FORK_WHATEVER_THE_DEFAULT = """\
import multiprocessing, os, sys
from boundary_distill import cli

real = cli.run_seed_stack


def logged(setups, configs, out_dir):
    with open("stacks.txt", "a") as fh:
        fh.write(f"{configs[0].strategy} {os.getpid()}\\n")
    return real(setups, configs, out_dir)


if __name__ == "__main__":  # spawn and forkserver import this file in a worker, skipping this
    multiprocessing.set_start_method(sys.argv[1])
    # a spy, and a core count, that exist in this process only
    cli.run_seed_stack = logged
    cli._usable_cores = lambda: 2
    with open("stacks.txt", "a") as fh:
        fh.write(f"cli {os.getpid()}\\n")
    sys.exit(cli.main(["run", "--config", sys.argv[2], "--strategy", "all", "--out", "o"]))
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_the_pool_forks_whatever_the_default_start_method(two_seed_config, tmp_path, monkeypatch,
                                                          capsys, method):
    # forkserver is the Linux default from Python 3.14; _map_cells forks
    # anyway, so its workers run a spy that exists in the CLI process only
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    assert cli.main(["run", "--config", str(two_seed_config), "--strategy", "all",
                     "--out", "o"]) == 0
    one_core = capsys.readouterr()
    os.rename("o", "cores1")
    script = tmp_path / "run_with_default.py"
    script.write_text(FORK_WHATEVER_THE_DEFAULT)
    src = Path(boundary_distill.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, str(script), method, str(two_seed_config)],
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    assert (result.stdout, result.stderr) == (one_core.out, one_core.err)
    assert _files(tmp_path / "cores1") == _files(tmp_path / "o")
    # every strategy walked in a worker process that runs this process's spy:
    # the oracle in one, the other strategies in another
    pids: dict[str, set[str]] = {}
    for line in (tmp_path / "stacks.txt").read_text().splitlines():
        name, pid = line.split()
        pids.setdefault(name, set()).add(pid)
    others = set().union(*(pids.get(s, set()) for s in protocol.STRATEGIES if s != "full_data"))
    assert len(others) == len(pids.get("full_data", ())) == 1
    assert len(pids["cli"] | others | pids["full_data"]) == 3


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_dying_oracle_worker_leaves_the_running_block_alone(two_seed_config, tmp_path,
                                                           monkeypatch, capsys):
    # the full_data child dies while the other block's child still runs:
    # only the full_data cells fail, and the other block completes and
    # keeps its records
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    out = tmp_path / "o"
    dying = tmp_path / "oracle_dying"
    real = cli.run_seed_stack

    def oracle_dies_first(setups, configs, out_dir):
        if configs[0].strategy == "full_data":
            dying.touch()
            os._exit(3)
        if configs[0].strategy == protocol.STRATEGIES[0]:  # the block's first stack
            deadline = time.monotonic() + 60
            while not dying.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            time.sleep(0.5)  # the oracle's child has exited by now
        return real(setups, configs, out_dir)

    monkeypatch.setattr(cli, "run_seed_stack", oracle_dies_first)
    assert cli.main(["run", "--config", str(two_seed_config), "--strategy", "all",
                     "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert [line for line in printed.err.splitlines() if ": FAILED (" in line] == [
        f"full_data seed={seed}: FAILED ({DIED})" for seed in (0, 1)]
    assert printed.out.count("pp=") == 6
    assert sorted(p.name for p in (out / "records").glob("record_*.csv")) == sorted(
        f"record_{s}_seed{seed}.csv" for s in protocol.STRATEGIES if s != "full_data"
        for seed in (0, 1))
    manifest = (out / "manifest.txt").read_text()
    assert "completed=6" in manifest and "failed=2" in manifest


def _a_dying_child_fails_only_its_cell(shape, tmp_path, monkeypatch, capsys):
    # a rerun into a clean run's output on two usable cores, in which the
    # child of the last cell dies: in seed 2's setup for the seed groups, in
    # the full_data stack for the oracle split. Only that cell's pairs fail,
    # keeping no record or grid of the first run; the other cells keep theirs
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    out = tmp_path / "o"
    argv = [*_shape_argv(tmp_path, shape), "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    _, seeds, strategies = SHAPES[shape]
    pairs = [(s, int(seed)) for s in strategies for seed in seeds.split(",")]
    dead = [(s, seed) for s, seed in pairs if (s == "full_data" if shape == "oracle" else seed == 2)]
    real_setup, real_stack = cli.setup_seeds, cli.run_seed_stack
    this_process = os.getpid()

    def dies_on_seed_two(benches, configs):
        if any(config.seed == 2 for config in configs):
            if os.getpid() == this_process:
                raise RuntimeError("seed 2 set up in the CLI process")
            os._exit(3)
        return real_setup(benches, configs)

    def oracle_dies(setups, configs, out_dir):
        if configs[0].strategy == "full_data" and os.getpid() != this_process:
            os._exit(3)
        return real_stack(setups, configs, out_dir)

    if shape == "oracle":
        monkeypatch.setattr(cli, "run_seed_stack", oracle_dies)
    else:
        monkeypatch.setattr(cli, "setup_seeds", dies_on_seed_two)
    assert cli.main(argv) == 1
    printed = capsys.readouterr()
    assert [line for line in printed.err.splitlines() if ": FAILED (" in line] == [
        f"{s} seed={seed}: FAILED ({DIED})" for s, seed in dead]
    kept = [pair for pair in pairs if pair not in dead]
    assert printed.out.count("pp=") == len(kept)
    assert sorted(p.name for p in (out / "records").glob("record_*.csv")) == sorted(
        f"record_{s}_seed{seed}.csv" for s, seed in kept)
    assert sorted(p.name for p in (out / "grids").iterdir()) == sorted(
        f"{s}_seed{seed}_phase{t:02d}.csv" for s, seed in kept for t in (0, 1, 2))
    manifest = (out / "manifest.txt").read_text()
    assert f"completed={len(kept)}" in manifest and f"failed={len(dead)}" in manifest


@pytest.mark.parametrize("shape", ["seeds", "oracle"])
def test_a_dying_child_fails_only_its_cell(shape, tmp_path, monkeypatch, capsys):
    _a_dying_child_fails_only_its_cell(shape, tmp_path, monkeypatch, capsys)


def test_dying_worker_fails_only_its_group(tmp_path, monkeypatch, capsys):
    # --parallel 2 on 3 seeds: the child of group (2,) dies, group (0, 1) completes
    _a_dying_child_fails_only_its_cell("parallel", tmp_path, monkeypatch, capsys)


def test_parallel_two_starts_no_oracle_process(two_seed_config, tmp_path, monkeypatch,
                                               strategy_pids):
    # --parallel 2 on two seeds: one group per child, each walking every
    # strategy, full_data included
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    assert cli.main(["run", "--config", str(two_seed_config), "--strategy", "all",
                     "--out", str(tmp_path / "o"), "--parallel", "2"]) == 0
    pids = strategy_pids()
    assert len(pids["full_data"]) == 2
    assert all(pids[s] == pids["full_data"] for s in protocol.STRATEGIES)


def test_a_raising_cli_process_reaps_every_child(two_seed_config, tmp_path, monkeypatch):
    # os.waitpid raises once, when the first child has returned its cell and
    # the second still sleeps in its own: that child gets SIGTERM, and both
    # are reaped before the exception leaves cli.main
    real_setup, real_waitpid = cli.setup_seeds, os.waitpid
    interrupted = []

    def sleeps_on_seed_one(benches, configs):
        if any(config.seed == 1 for config in configs):
            time.sleep(60)
        return real_setup(benches, configs)

    def interrupted_once(pid, options):
        if not interrupted:
            interrupted.append(pid)
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    monkeypatch.setattr(cli, "setup_seeds", sleeps_on_seed_one)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    monkeypatch.setattr(os, "waitpid", interrupted_once)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli.main(["run", "--config", str(two_seed_config), "--out", str(tmp_path / "o"),
                  "--parallel", "2"])
    assert interrupted and time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):  # no child left, running or exited
        real_waitpid(-1, os.WNOHANG)


def _three_class_csv_config(tmp_path: Path, seeds: str) -> Path:
    """TINY with ten phases on the CSV route, over train.csv and test.csv
    files of three separated classes."""
    rng = np.random.default_rng(0)
    for name, rows in (("train.csv", 600), ("test.csv", 120)):
        labels = np.arange(rows) % 3
        features = 3.0 * labels[:, None] + rng.standard_normal((rows, 2))
        save_csv(Dataset(features, labels), str(tmp_path / name))
    config = tmp_path / "csv.cfg"
    config.write_text(TINY.replace("seeds = 0", f"seeds = {seeds}").replace("num_phases = 2",
                                                                           "num_phases = 10")
                      + f"data.source = csv\ncsv.train_path = {tmp_path / 'train.csv'}\n"
                      f"csv.test_path = {tmp_path / 'test.csv'}\n")
    return config


def test_csv_files_are_parsed_once_per_group(tmp_path, monkeypatch):
    config = _three_class_csv_config(tmp_path, "0,1")
    parsed = []
    real = config_module.load_csv

    def counted(path, schema):
        parsed.append(Path(path).name)
        return real(path, schema)

    monkeypatch.setattr(config_module, "load_csv", counted)
    # one usable core: on two, the run's seed groups parse in worker processes
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert sorted(parsed) == ["test.csv", "train.csv"]
    assert len(list((tmp_path / "o" / "records").glob("record_*.csv"))) == 2

    parsed.clear()
    assert cli.main(["sweep", "--config", str(config), "--knob", "delta", "--values", "0.5,2.0",
                     "--out", str(tmp_path / "s")]) == 0
    assert sorted(parsed) == ["test.csv", "train.csv"]
    assert len((tmp_path / "s" / "sweep_delta.csv").read_text().splitlines()) == 5


def _probe(code: str) -> list[str]:
    """The lines a fresh interpreter prints running `code` on this package."""
    src = Path(boundary_distill.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, check=True, timeout=60)
    return result.stdout.strip().splitlines()


def test_report_does_not_load_scipy_stats(two_seed_config, tmp_path):
    # two records per strategy, so report computes its t intervals, from the
    # table of 95 % quantiles without loading any SciPy module
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(two_seed_config), "--out", str(out)]) == 0
    printed = _probe("import sys; from boundary_distill import cli; "
                     f"assert cli.main(['report', {str(out)!r}]) == 0; "
                     "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert printed[-1] == "[]"


def test_run_does_not_load_numpy_ma(tmp_path):
    # np.unique without index outputs imports the masked-array package;
    # nothing a run does needs it
    config = tmp_path / "one_phase.cfg"
    config.write_text(TINY.replace("data.num_phases = 2", "data.num_phases = 1"))
    printed = _probe("import sys; from boundary_distill import cli; "
                     f"assert cli.main(['run', '--config', {str(config)!r}, '--strategy', 'all', "
                     f"'--out', {str(tmp_path / 'o')!r}]) == 0; "
                     "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))")
    assert printed[-1] == "[]"


def test_dry_runs_do_not_load_numpy_random(tiny_config):
    # a dry run checks the config and trains nothing, so it needs no
    # random streams; a derived seed would load numpy.random
    config = str(tiny_config)
    printed = _probe("import sys; from boundary_distill import cli; "
                     f"assert cli.main(['run', '--config', {config!r}, '--dry-run']) == 0; "
                     f"assert cli.main(['sweep', '--config', {config!r}, '--knob', 'delta', "
                     "'--dry-run']) == 0; "
                     "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random']))")
    assert printed[-1] == "[]"


def test_sweep_loads_no_numpy_ma_or_json(tiny_config, tmp_path):
    # np.median imports the masked-array package, and only a record's digest
    # needs json, which a sweep never writes
    printed = _probe("import sys; from boundary_distill import cli; "
                     f"assert cli.main(['sweep', '--config', {str(tiny_config)!r}, '--knob', 'delta', "
                     f"'--values', '0.5,1.0', '--out', {str(tmp_path / 'o')!r}]) == 0; "
                     "print(sorted(m for m in sys.modules "
                     "if m.split('.')[:2] == ['numpy', 'ma'] or m.split('.')[0] == 'json'))")
    assert printed[-1] == "[]"


def test_report_does_not_load_numpy_ma(tmp_path):
    for seed in range(2):
        (tmp_path / f"record_fine_tune_seed{seed}.csv").write_text(
            "strategy,seed,phase,acc_test,acc_base,pp,forgetting,config_digest\n"
            f"fine_tune,{seed},0,0.5,0.5,{seed / 1000!r},{-seed / 3000!r},d\n")
    printed = _probe("import sys; from boundary_distill import cli; "
                     f"assert cli.main(['report', {str(tmp_path)!r}]) == 0; "
                     "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))")
    assert printed[-1] == "[]"


@pytest.mark.parametrize(("records", "loaded"), [(101, "[]"), (102, "['scipy.special']")])
def test_report_loads_scipy_special_past_the_quantile_table(tmp_path, records, loaded):
    # 101 records is the table's last degree of freedom (100); 102 needs stdtrit
    for seed in range(records):
        (tmp_path / f"record_fine_tune_seed{seed}.csv").write_text(
            "strategy,seed,phase,acc_test,acc_base,pp,forgetting,config_digest\n"
            f"fine_tune,{seed},0,0.5,0.5,{seed / 1000!r},{-seed / 3000!r},d\n")
    printed = _probe("import sys; from boundary_distill import cli; "
                     f"assert cli.main(['report', {str(tmp_path)!r}]) == 0; "
                     "print(sorted({m for m in sys.modules if m.split('.')[0] == 'scipy'} "
                     "& {'scipy.special', 'scipy.stats'}))")
    assert printed[-1] == loaded
    summary = (tmp_path / "report" / "summary.csv").read_text().splitlines()
    assert len(summary) == records + 1 and "nan" not in summary[1]


def test_cli_import_does_not_load_scipy():
    assert _probe("import sys, boundary_distill.cli; "
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))") == ["[]"]


def test_serial_commands_load_no_process_pool(tiny_config, two_seed_config, tmp_path):
    pool_modules = ("print(sorted(m for m in sys.modules "
                    "if m.split('.')[0] in ('concurrent', 'multiprocessing'))); ")
    printed = _probe(
        f"import sys, boundary_distill.cli as cli; {pool_modules}"
        f"assert cli.main(['run', '--config', {str(tiny_config)!r}, '--out', "
        f"{str(tmp_path / 'r')!r}]) == 0; {pool_modules}"
        f"assert cli.main(['sweep', '--config', {str(tiny_config)!r}, '--knob', 'delta', "
        f"'--values', '0.5,2.0', '--out', {str(tmp_path / 's')!r}]) == 0; {pool_modules}"
        # nor do the oracle split and the seed split, which fork children
        "cli._usable_cores = lambda: 2; "
        f"assert cli.main(['run', '--config', {str(two_seed_config)!r}, '--strategy', 'all', "
        f"'--out', {str(tmp_path / 'oracle')!r}]) == 0; {pool_modules}"
        f"assert cli.main(['run', '--config', {str(two_seed_config)!r}, '--out', "
        f"{str(tmp_path / 'seeds')!r}]) == 0; {pool_modules}")
    # after the import, the run, the sweep, the oracle split and the seed split
    assert [line for line in printed if line.startswith("[")] == ["[]"] * 5


def test_run_dry_run_loads_no_process_pool(two_seed_config):
    # the plan of a run that would put full_data beside the other strategies
    printed = _probe("import sys; from boundary_distill import cli; "
                     f"assert cli.main(['run', '--config', {str(two_seed_config)!r}, "
                     "'--strategy', 'all', '--dry-run']) == 0; "
                     "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))")
    assert printed[-1] == "[]"


def test_worker_warnings_show_once_in_a_fixed_order(tmp_path):
    # both splits on two usable cores, with runs that overflow in every
    # worker process: each warning shows once, in the same order on a rerun
    config = tmp_path / "diverging.cfg"
    config.write_text(TINY.replace("seeds = 0", "seeds = 0,1")
                      + "train.lr_base = 4000\ntrain.lr_incremental = 1e200\n")
    src = Path(boundary_distill.__file__).resolve().parents[1]
    for strategies in (["--strategy", "all"],  # the oracle split
                       ["--strategy", "boundary_distill", "--strategy", "fine_tune"]):
        code = ("import sys; from boundary_distill import cli; cli._usable_cores = lambda: 2; "
                f"sys.exit(cli.main(['run', '--config', {str(config)!r}, *{strategies!r}, "
                "'--out', 'o']))")
        runs = [subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                               env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
                for _ in range(2)]
        assert [run.returncode for run in runs] == [1, 1]
        assert runs[0].stderr == runs[1].stderr
        shown = [line for line in runs[0].stderr.decode().splitlines() if "Warning: " in line]
        assert shown and len(shown) == len(set(shown))


def test_recorded_warnings_show_once_each_whatever_their_file():
    # a warning this process has shown already (as the CLI process shows
    # those of the setups it builds) does not show again, and a file that
    # no loaded module comes from (a `python -c` string, say) still shows
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("default")
        warnings.warn("overflow", RuntimeWarning)
        here = (shown[0].filename, shown[0].lineno)
        cli._warn_again([("overflow", RuntimeWarning, *here),
                         ("overflow", RuntimeWarning, "/elsewhere/net.py", 7),
                         ("overflow", RuntimeWarning, "/elsewhere/net.py", 7),
                         ("overflow", RuntimeWarning, "/elsewhere/net.py", 8),
                         ("invalid", RuntimeWarning, "<string>", 1)])
    assert [(str(w.message), w.filename, w.lineno) for w in shown] == [
        ("overflow", *here), ("overflow", "/elsewhere/net.py", 7),
        ("overflow", "/elsewhere/net.py", 8), ("invalid", "<string>", 1)]


def test_usable_cores_follow_the_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert cli._usable_cores() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._usable_cores() == 8


def test_a_platform_without_fork_runs_one_process(two_seed_config, tmp_path, monkeypatch,
                                                  strategy_pids):
    # worker processes take their cells through a fork, so without one a
    # run keeps every cell in this process, as on one usable core
    monkeypatch.delattr(os, "fork")
    assert cli._usable_cores() == 1
    assert cli.main(["run", "--config", str(two_seed_config), "--strategy", "all",
                     "--out", str(tmp_path / "o"), "--parallel", "2"]) == 0
    assert set().union(*strategy_pids().values()) == {os.getpid()}


def _csv_config(tmp_path, train_text: str) -> Path:
    """TINY on the CSV route, with train.csv holding `train_text`."""
    (tmp_path / "train.csv").write_text(train_text)
    (tmp_path / "test.csv").write_text("f0,f1,label\n1.0,2.0,0\n")
    config = tmp_path / "csv.cfg"
    config.write_text(TINY + f"data.source = csv\ncsv.train_path = {tmp_path / 'train.csv'}\n"
                      f"csv.test_path = {tmp_path / 'test.csv'}\n")
    return config


def test_short_csv_row_fails_with_its_file_and_line(tmp_path, capsys):
    config = _csv_config(tmp_path, "f0,f1,label\n1.0,2.0,0\n0.5,2\n")
    where = f"{tmp_path / 'train.csv'}:3: 2 fields, the header has 3"
    assert cli.main(["split", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {where}\n"
    assert not (tmp_path / "o").exists()
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert f"fine_tune seed=0: FAILED (ValueError: {where})" in capsys.readouterr().err


@pytest.mark.parametrize(("text", "message"), [
    ("strategy,seed,phase,acc_test,acc_base,forgetting,config_digest\n"
     "fine_tune,0,0,0.5,0.5,0.0,d\n", "missing column(s) pp"),
    ("strategy,seed,phase,acc_test,acc_base,pp,forgetting,config_digest\n"
     "fine_tune,0,0,0.5,0.5,x,0.0,d\n", "could not convert string to float: 'x'"),
    ("strategy,seed,phase,acc_test,acc_base,pp,forgetting,config_digest\n"
     "fine_tune,0,0,0.5,0.5,0.0,0.0,d\nfine_tune,0,1,0.5\n", "float() argument"),
], ids=["missing_column", "bad_value", "short_row"])
def test_malformed_record_fails_report_with_exit_two(tmp_path, capsys, text, message):
    record = tmp_path / "record_fine_tune_seed0.csv"
    record.write_text(text)
    assert cli.main(["report", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {record}: {message}")
    assert not (tmp_path / "report").exists()


def test_strategy_flag_expands_and_validates(tiny_config, tmp_path, capsys):
    rc = cli.main(
        ["run", "--config", str(tiny_config), "--dry-run", "--strategy", "all"]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    for strategy in cli.STRATEGIES:
        assert f"{strategy} seed=0" in printed

    rc = cli.main(["run", "--config", str(tiny_config), "--strategy", "nope"])
    assert rc == 2
    assert "unknown strategy" in capsys.readouterr().err


def test_bad_config_key_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("train.nonsense = 1\n")
    rc = cli.main(["run", "--config", str(bad), "--dry-run"])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


def test_config_round_trips_every_value_type(tmp_path):
    path = tmp_path / "c.cfg"
    changed = replace(ExperimentConfig(), num_phases=3, base_fraction=0.25, imbalance="dirichlet",
                      lr_incremental=0.05, hidden=(8, 4), grid_delta=(0.5,),
                      csv_feature_cols=("a", "b"), seeds=())
    for config in (ExperimentConfig(), changed):
        path.write_text(dump_config(config))
        assert load_config(path) == config


# dump_config(ExperimentConfig()) and the config_digest of each strategy's
# records under it: a refactor of the config code must leave both unchanged,
# since every record carries the digest and config.resolved re-runs the
# experiment
DEFAULT_DUMP = """\
data.source = synthetic
data.num_phases = 10
data.base_fraction = 0.5
data.imbalance = uniform_random
data.dirichlet_alpha = 5.0
synthetic.num_classes = 4
synthetic.dim = 2
synthetic.base_per_class = 500
synthetic.phase_per_class = 50
synthetic.test_per_class = 100
synthetic.cluster_radius = 3.0
synthetic.eccentricity = 0.55
synthetic.cluster_sigma = 0.33
synthetic.aniso_ratio = 2.5
synthetic.aniso_angle = -15.0
synthetic.mean_shift = 0.5
synthetic.cov_scale = 1.5
synthetic.rotation = 0.0
csv.train_path = 
csv.test_path = 
csv.label_col = label
csv.feature_cols = 
model.hidden = 16
model.activation = relu
train.epochs_per_phase = 60
train.lr_base = 0.2
train.lr_incremental = 
train.batch_size = 64
train.fine_tune_epochs = 10
train.exemplar_fraction = 0.1
distill.weight = 0.1
distill.tau = 1.0
distill.variant = literal
distill.inner_target = fused
distill.outer_target = fused
noise.mu = 0.0
noise.delta = 2.0
consolidate.freeze_epochs = 10
consolidate.period_epochs = 5
consolidate.alpha0 = 0.99
consolidate.warmup = 500.0
consolidate.mode = scheduled
seeds = 0,1,2,3,4
strategies = boundary_distill,fine_tune
out_dir = 
grid.delta = 0.02,0.2,1.0,2.0,4.0,10.0
grid.lambda = 0.1,0.5,1.0,2.0,5.0,10.0
grid.resolution = 50
"""
DEFAULT_DIGESTS = {
    "boundary_distill": "71ec7bbe3d63ef633f30cae0e37700d0dfb50e0a27b0b2ed41d6a60f69d978f5",
    "fine_tune": "6ba275ac4c1e26e9acfef4a8a11a03dd416a0eb929dfb2b9681ffcea09ea0c57",
    "vanilla_distill": "76704e2a6a045b5127b46373cf69d5e08eec02131e1ceb1416d25889d8d61b18",
    "full_data": "469508318413308dc282ad10e91f201d9ee4f4e9f2856e9e04c009cbee76059e",
}


def test_default_config_text_and_digests_are_pinned():
    config = ExperimentConfig()
    assert dump_config(config) == DEFAULT_DUMP
    data_digest = config.build_benchmark(0).data_digest
    for strategy in cli.STRATEGIES:
        assert config.run_config(strategy, 0).digest(data_digest) == DEFAULT_DIGESTS[strategy]


def _digests(out: Path) -> dict[tuple[str, int], str]:
    """The config_digest of each (strategy, seed) record of a run."""
    return {(r.strategy, r.seed): r.config_digest
            for r in map(read_record_csv, (out / "records").glob("record_*.csv"))}


# the two configs of the digest repro: fine_tune on seed 0 with two phases,
# the second on 10 classes in 8 dimensions
OTHER_DATA = "synthetic.num_classes = 10\nsynthetic.dim = 8\n"


def test_a_records_digest_covers_its_data(tiny_config, tmp_path):
    other = tmp_path / "other.cfg"
    other.write_text(TINY + OTHER_DATA)
    for config, out in ((tiny_config, "a"), (other, "b")):
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / out)]) == 0
    assert _digests(tmp_path / "a")[("fine_tune", 0)] != _digests(tmp_path / "b")[("fine_tune", 0)]


def test_every_seed_and_strategy_list_of_an_experiment_shares_its_digest(tiny_config, tmp_path):
    assert cli.main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "alone")]) == 0
    assert cli.main(["run", "--config", str(tiny_config), "--strategy", "all", "--seed", "0",
                     "--seed", "1", "--out", str(tmp_path / "all")]) == 0
    within_all = _digests(tmp_path / "all")
    assert within_all[("fine_tune", 0)] == within_all[("fine_tune", 1)]
    assert within_all[("fine_tune", 0)] == _digests(tmp_path / "alone")[("fine_tune", 0)]
    assert len(set(within_all.values())) == len(cli.STRATEGIES)


def test_a_changed_csv_byte_changes_the_digest(tmp_path):
    config = _three_class_csv_config(tmp_path, "0")
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
    test = tmp_path / "test.csv"
    text = bytearray(test.read_bytes())
    text[text.rindex(b",") - 1] ^= 1  # the last digit of the last feature, another digit
    test.write_bytes(text)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
    assert _digests(tmp_path / "a")[("fine_tune", 0)] != _digests(tmp_path / "b")[("fine_tune", 0)]


def test_report_refuses_two_experiments_of_one_strategy(tiny_config, tmp_path, capsys):
    # seed 1 of the repro's second config left in the first one's directory
    other = tmp_path / "other.cfg"
    other.write_text(TINY + OTHER_DATA)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert cli.main(["run", "--config", str(other), "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    digests = sorted(set(_digests(out).values()))
    assert len(digests) == 2
    assert cli.main(["report", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: the fine_tune records come from 2 experiments, "
                                       f"config_digest {', '.join(digests)}; report each on its "
                                       "own\n")
    assert not (out / "report").exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's malloc thresholds")
def test_a_one_process_run_reuses_its_temporaries(tmp_path):
    # on one usable core a run trains in the CLI process. With 64-unit
    # layers over batches of 64 rows on 8 seeds, the stacks' temporaries
    # pass glibc's default mmap threshold, so each would be mapped and
    # faulted in anew at every step unless the CLI process raised it: about
    # 3,200 minor faults here, against about 500
    config = tmp_path / "wide.cfg"
    config.write_text(TINY.replace("seeds = 0", "seeds = 0,1,2,3,4,5,6,7")
                      .replace("batch_size = 16", "batch_size = 64") + "model.hidden = 64\n")
    printed = _probe("import os, resource; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                     "from boundary_distill import cli; "
                     "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
                     f"assert cli.main(['run', '--config', {str(config)!r}, '--strategy', 'all', "
                     f"'--out', {str(tmp_path / 'o')!r}]) == 0; "
                     "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
    assert int(printed[-1]) < 1500


# one out-of-range value per owner of a check, and the check's message
BAD_VALUES = [
    ("train.batch_size = 0", "batch_size must be >= 1"),
    ("noise.delta = 0", "delta must be positive"),
    ("distill.variant = nope", "variant must be one of"),
    ("consolidate.mode = bogus", "mode must be one of"),
    ("synthetic.num_classes = 1", "need at least two classes"),
    ("data.source = foo", "unknown data.source 'foo'"),
    ("data.source = csv", "csv source needs both csv.train_path and csv.test_path"),
    ("data.num_phases = -1", "data.num_phases must be >= 0"),
    ("synthetic.test_per_class = 0", "synthetic.test_per_class must be >= 1"),
    # TINY's phases of 40 samples sit at the cap of a 200-sample base pool,
    # which every seed's benchmark would fail above it
    ("synthetic.base_per_class = 40",
     "synthetic.phase_per_class = 10 gives phases of 40 samples, more than 20% of the base "
     "pool (160)"),
    ("grid.resolution = 0", "grid.resolution must be >= 2"),
    ("seeds =", "no seeds given"),
    ("seeds = 0,1,0", "seeds lists 0 more than once"),
    ("strategies = fine_tune,fine_tune", "strategies lists fine_tune more than once"),
    ("grid.delta = 1,1,2", "grid.delta lists 1.0 more than once"),
    ("grid.lambda = 0.5,2,0.5", "grid.lambda lists 0.5 more than once"),
    # non-finite knobs, which would train phase 1 or more before failing
    ("distill.weight = nan", "distill_weight must be finite and >= 0"),
    ("distill.weight = inf", "distill_weight must be finite and >= 0"),
    ("noise.mu = nan", "mu must be finite"),
    ("noise.mu = inf", "mu must be finite"),
    ("noise.delta = inf", "delta must be positive and finite"),
    ("train.lr_base = inf", "lr_base must be positive and finite"),
    ("train.lr_incremental = inf", "lr_incremental must be positive and finite"),
    ("distill.tau = inf", "tau must be positive and finite"),
    ("consolidate.warmup = inf", "warmup must be positive and finite"),
]


@pytest.mark.parametrize(("line", "message"), BAD_VALUES,
                         ids=[line.replace(" ", "") for line, _ in BAD_VALUES])
def test_bad_value_fails_at_load(tmp_path, capsys, line, message):
    _assert_fails_at_load(tmp_path, capsys, TINY + line + "\n", message)


# the same on the CSV route, whose split checks the data-free values
BAD_CSV_VALUES = [
    ("data.base_fraction = 1.5", "base_fraction must lie in (0, 1)"),
    ("data.num_phases = 0", "num_phases must be >= 1"),
    ("data.imbalance = sorted", "unknown imbalance scheme 'sorted'"),
    ("data.dirichlet_alpha = 0", "dirichlet_alpha must be positive"),
    ("csv.feature_cols = x,y,x", "csv.feature_cols: feature columns list x more than once"),
    ("csv.feature_cols = x,label",
     "csv.feature_cols: feature columns include the label column 'label'"),
]


@pytest.mark.parametrize(("line", "message"), BAD_CSV_VALUES,
                         ids=[line.replace(" ", "") for line, _ in BAD_CSV_VALUES])
def test_bad_csv_value_fails_at_load(tmp_path, capsys, line, message):
    rng = np.random.default_rng(0)
    for name, rows in (("train", 400), ("test", 40)):
        labels = np.arange(rows) % 2
        lines = ["x,y,label", *(f"{x!r},{y!r},{label}" for (x, y), label
                                in zip(rng.normal(size=(rows, 2)) + labels[:, None], labels))]
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
    csv_route = (f"data.source = csv\ncsv.train_path = {tmp_path / 'train.csv'}\n"
                 f"csv.test_path = {tmp_path / 'test.csv'}\n")
    _assert_fails_at_load(tmp_path, capsys, TINY + csv_route + line + "\n", message)


def _assert_fails_at_load(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    out = tmp_path / "o"
    for command in (["run", "--dry-run"], ["split", "--dry-run"], ["run"], ["split"],
                    ["sweep", "--knob", "delta"]):
        rc = cli.main([*command, "--config", str(bad), "--out", str(out)])
        assert rc == 2, command
        assert message in capsys.readouterr().err, command
    assert not out.exists()


def test_bad_sweep_value_fails_at_load(tiny_config, tmp_path, capsys):
    out = tmp_path / "o"
    for values, message in (("0", "delta must be positive"),
                            ("1,1,2", "--values lists 1.0 more than once")):
        rc = cli.main(["sweep", "--config", str(tiny_config), "--knob", "delta",
                       "--values", values, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_repeated_seed_flag_fails_at_load(tiny_config, tmp_path, capsys):
    out = tmp_path / "o"
    for command in ("run", "sweep --knob delta", "split"):
        rc = cli.main([*command.split(), "--config", str(tiny_config), "--seed", "0",
                       "--seed", "0", "--out", str(out)])
        assert rc == 2, command
        assert "seeds lists 0 more than once" in capsys.readouterr().err, command
    assert not out.exists()
    # repeated --strategy flags still merge: 'all' already names fine_tune
    rc = cli.main(["run", "--config", str(tiny_config), "--strategy", "all",
                   "--strategy", "fine_tune", "--out", str(out), "--dry-run"])
    assert rc == 0
    assert "# plan: 4 run(s)" in capsys.readouterr().out


def test_missing_config_file_exits_two(tmp_path):
    rc = cli.main(["run", "--config", str(tmp_path / "absent.cfg"), "--dry-run"])
    assert rc == 2


def test_sweep_writes_detail_and_summary(tiny_config, tmp_path):
    out = tmp_path / "o"
    rc = cli.main(
        ["sweep", "--config", str(tiny_config), "--out", str(out),
         "--knob", "delta", "--values", "0.5,2.0"]
    )
    assert rc == 0
    detail = (out / "sweep_delta.csv").read_text().splitlines()
    assert detail[0] == "knob,value,seed,acc_student,acc_teacher"
    assert len(detail) == 3  # two values x one seed
    summary = (out / "sweep_delta_summary.csv").read_text().splitlines()
    assert len(summary) == 3
    assert summary[1].startswith("delta,0.5,1,")


# sweep CSV text pinned from the per-value loop that the stacks replaced
FROZEN_SWEEPS = {
    ("tiny", "delta", None): (
        "knob,value,seed,acc_student,acc_teacher\n"
        + "".join(f"delta,{v},0,1.0,1.0\n" for v in ("0.02", "0.2", "1.0", "2.0", "4.0", "10.0")),
        "knob,value,n_seeds,acc_student_median,acc_teacher_median,acc_student_median_pct\n"
        + "".join(f"delta,{v},1,1.0,1.0,100.00\n"
                  for v in ("0.02", "0.2", "1.0", "2.0", "4.0", "10.0")),
    ),
    ("tiny", "lambda", "0,0.5,2"): (
        "knob,value,seed,acc_student,acc_teacher\n"
        "lambda,0.0,0,1.0,1.0\nlambda,0.5,0,1.0,1.0\nlambda,2.0,0,1.0,1.0\n",
        "knob,value,n_seeds,acc_student_median,acc_teacher_median,acc_student_median_pct\n"
        "lambda,0.0,1,1.0,1.0,100.00\nlambda,0.5,1,1.0,1.0,100.00\nlambda,2.0,1,1.0,1.0,100.00\n",
    ),
    ("default", "delta", None): (
        "knob,value,seed,acc_student,acc_teacher\n"
        "delta,0.02,0,0.9102272727272728,0.91\n"
        "delta,0.2,0,0.9102272727272728,0.91\n"
        "delta,1.0,0,0.9102272727272728,0.91\n"
        "delta,2.0,0,0.9102272727272728,0.91\n"
        "delta,4.0,0,0.91,0.91\n"
        "delta,10.0,0,0.9097727272727273,0.91\n",
        "knob,value,n_seeds,acc_student_median,acc_teacher_median,acc_student_median_pct\n"
        "delta,0.02,1,0.9102272727272728,0.91,91.02\n"
        "delta,0.2,1,0.9102272727272728,0.91,91.02\n"
        "delta,1.0,1,0.9102272727272728,0.91,91.02\n"
        "delta,2.0,1,0.9102272727272728,0.91,91.02\n"
        "delta,4.0,1,0.91,0.91,91.00\n"
        "delta,10.0,1,0.9097727272727273,0.91,90.98\n",
    ),
    ("default", "lambda", "0,0.5,2"): (
        "knob,value,seed,acc_student,acc_teacher\n"
        "lambda,0.0,0,0.9104545454545454,0.91\n"
        "lambda,0.5,0,0.91,0.91\n"
        "lambda,2.0,0,0.91,0.91\n",
        "knob,value,n_seeds,acc_student_median,acc_teacher_median,acc_student_median_pct\n"
        "lambda,0.0,1,0.9104545454545454,0.91,91.05\n"
        "lambda,0.5,1,0.91,0.91,91.00\n"
        "lambda,2.0,1,0.91,0.91,91.00\n",
    ),
}


@pytest.mark.parametrize(("config", "knob", "values"), FROZEN_SWEEPS,
                         ids=["-".join(filter(None, key)) for key in FROZEN_SWEEPS])
def test_sweep_csv_text_is_frozen(tiny_config, tmp_path, config, knob, values):
    out = tmp_path / "o"
    argv = ["sweep", "--knob", knob, "--seed", "0", "--out", str(out)]
    argv += ["--config", str(tiny_config)] if config == "tiny" else []
    argv += ["--values", values] if values else []
    assert cli.main(argv) == 0
    detail, summary = FROZEN_SWEEPS[config, knob, values]
    assert (out / f"sweep_{knob}.csv").read_text() == detail
    assert (out / f"sweep_{knob}_summary.csv").read_text() == summary


def _tiny_tanh_config(tmp_path):
    """TINY with a 2-8-8-4 tanh net and 12 epochs, consolidating every third
    epoch after the second."""
    path = tmp_path / "tanh.cfg"
    path.write_text(TINY.replace("train.epochs_per_phase = 3", "train.epochs_per_phase = 12")
                    + "model.hidden = 8,8\nmodel.activation = tanh\n"
                    "consolidate.freeze_epochs = 2\nconsolidate.period_epochs = 3\n")
    return load_config(path)


@pytest.mark.parametrize(("knob", "values"), [
    ("delta", ExperimentConfig().grid_delta),
    ("lambda", (0.0, 0.5, 2.0)),
])
def test_sweep_cell_stacks_equal_solo_cells(tmp_path, knob, values):
    config = _tiny_tanh_config(tmp_path)
    stacked = cli._sweep_cell(config, knob, values, 0)
    solo = [cli._sweep_cell(config, knob, (value,), 0)[0] for value in values]
    assert stacked == solo
    assert [o["value"] for o in stacked] == list(values)
    assert all(o["status"] == "ok" for o in stacked)


def test_poisoned_sweep_value_fails_alone():
    # outcomes of the per-value loop on the default config, seed 0
    config = ExperimentConfig()
    for knob, values, bad, epoch in (("delta", (2.0, 1e300), 1, 7),
                                     ("lambda", (0.0, 1.0, 1e300), 2, 1),
                                     ("delta", (0.0, 2.0), 0, None)):
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = cli._sweep_cell(config, knob, values, 0)
            solo = [cli._sweep_cell(config, knob, (value,), 0)[0] for value in values]
        assert [o["value"] for o in outcomes] == list(values)
        failed = outcomes[bad]
        assert failed["status"] == "failed"
        if epoch is None:  # the value's own check fails before any training
            assert failed["error"] == "ValueError: delta must be positive and finite, got 0.0"
        else:
            assert failed["error"] == (f"FloatingPointError: boundary_distill, phase 1, "
                                       f"epoch {epoch}: mean loss nan is not finite")
        assert failed["error"] == solo[bad]["error"]
        for i, (o, alone) in enumerate(zip(outcomes, solo)):
            if i != bad:
                assert o == alone and o["status"] == "ok"


def test_sweep_single_value_single_row(tiny_config, tmp_path):
    out = tmp_path / "o"
    rc = cli.main(
        ["sweep", "--config", str(tiny_config), "--out", str(out),
         "--knob", "lambda", "--values", "0.5"]
    )
    assert rc == 0
    assert len((out / "sweep_lambda_summary.csv").read_text().splitlines()) == 2


def test_sweep_defaults_to_config_grid(tiny_config, capsys):
    rc = cli.main(["sweep", "--config", str(tiny_config), "--knob", "delta",
                   "--dry-run"])
    assert rc == 0
    grid = list(ExperimentConfig().grid_delta)
    assert f"sweep delta over {grid}" in capsys.readouterr().out


def test_sweep_rejects_empty_values(tiny_config, capsys):
    rc = cli.main(["sweep", "--config", str(tiny_config), "--knob", "delta",
                   "--values", ","])
    assert rc == 2
    assert "no sweep values" in capsys.readouterr().err


def test_report_on_run_output(tiny_config, tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
    capsys.readouterr()
    rc = cli.main(["report", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    report_dir = out / "report"
    assert report_dir.is_dir()
    assert any(report_dir.iterdir())
    assert str(report_dir) in printed


def test_report_missing_dir_exits_two(tmp_path, capsys):
    rc = cli.main(["report", str(tmp_path / "nowhere")])
    assert rc == 2
    assert "does not exist" in capsys.readouterr().err


def test_report_without_records_exits_two(tmp_path, capsys):
    rc = cli.main(["report", str(tmp_path)])
    assert rc == 2
    assert "no record_" in capsys.readouterr().err


class TestOutDirResolution:
    def test_env_fallback(self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("BD_OUT_DIR", str(tmp_path / "from_env"))
        assert cli.main(["split", "--config", str(tiny_config)]) == 0
        assert (tmp_path / "from_env" / "splits" / "base.csv").exists()

    def test_flag_beats_env(self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.setenv("BD_OUT_DIR", str(tmp_path / "from_env"))
        assert cli.main(
            ["split", "--config", str(tiny_config), "--out", str(tmp_path / "flag")]
        ) == 0
        assert (tmp_path / "flag" / "splits" / "base.csv").exists()
        assert not (tmp_path / "from_env").exists()

    def test_config_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BD_OUT_DIR", str(tmp_path / "from_env"))
        cfg = tmp_path / "cfg"
        cfg.write_text(TINY + f"out_dir = {tmp_path / 'from_config'}\n")
        assert cli.main(["split", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_config" / "splits" / "base.csv").exists()

    def test_default_is_runs(self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BD_OUT_DIR", raising=False)
        assert cli.main(["split", "--config", str(tiny_config)]) == 0
        assert (tmp_path / "runs" / "splits" / "base.csv").exists()
