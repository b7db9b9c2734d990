"""Command-line interface: argument handling, exit codes, artifacts."""

import os
import subprocess
import sys
import time
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
    out = tmp_path / "o"
    rc = cli.main(["run", "--config", str(tiny_config), "--out", str(out)])
    assert rc == 0
    record_path = out / "records" / "record_fine_tune_seed0.csv"
    record = read_record_csv(record_path)
    assert record.strategy == "fine_tune"
    assert [p.phase for p in record.per_phase] == [0, 1, 2]
    grids = sorted(p.name for p in (out / "grids").iterdir())
    assert grids == [f"fine_tune_seed0_phase{t:02d}.csv" for t in (0, 1, 2)]
    manifest = (out / "manifest.txt").read_text()
    assert "status=ok" in manifest
    assert "completed=1" in manifest
    assert "fine_tune seed=0: pp=" in capsys.readouterr().out
    # the resolved config re-parses to the file config plus the flag override
    resolved = load_config(out / "config.resolved")
    assert resolved == replace(load_config(tiny_config), out_dir=str(out))


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


@pytest.fixture()
def two_seed_config(tmp_path):
    path = tmp_path / "two_seeds.cfg"
    path.write_text(TINY.replace("seeds = 0", "seeds = 0,1"))
    return path


@pytest.fixture()
def base_trainings(monkeypatch):
    """Count protocol.train_base calls (one per base model trained)."""
    calls = []
    real = protocol.train_base

    def counted(bench, config, *args, **kwargs):
        calls.append(config.seed)
        return real(bench, config, *args, **kwargs)

    monkeypatch.setattr(protocol, "train_base", counted)
    return calls


def test_run_trains_one_base_model_per_seed(two_seed_config, tmp_path, base_trainings):
    rc = cli.main(["run", "--config", str(two_seed_config), "--strategy", "all",
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    assert sorted(base_trainings) == [0, 1]
    assert len(list((tmp_path / "o" / "records").glob("record_*.csv"))) == 8


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
    manifest = (out / "manifest.txt").read_text()
    assert "completed=1" in manifest and "failed=1" in manifest


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


def test_dying_worker_fails_its_cells(two_seed_config, tmp_path, monkeypatch, capsys):
    real = cli.setup_seed

    def dies_on_seed_one(bench, config):
        if config.seed == 1:
            os._exit(3)
        return real(bench, config)

    # forked workers inherit the patched module attribute; two reported cores
    # keep the cells in a 2-worker pool, never in this process
    monkeypatch.setattr(cli, "setup_seed", dies_on_seed_one)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    rc = cli.main(["run", "--config", str(two_seed_config), "--out", str(run_out),
                   "--parallel", "2"])
    assert rc == 1
    assert "fine_tune seed=1: FAILED (BrokenProcessPool" in capsys.readouterr().err
    manifest = (run_out / "manifest.txt").read_text()
    assert "status=failed" in manifest and "failed=0" not in manifest

    rc = cli.main(["sweep", "--config", str(two_seed_config), "--knob", "delta",
                   "--values", "0.5,2.0", "--out", str(sweep_out), "--parallel", "2"])
    assert rc == 1
    assert "sweep delta=2.0 seed=1: FAILED (BrokenProcessPool" in capsys.readouterr().err
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
    cells = []
    real = cli._run_cell

    def spy(config, seeds, out):
        cells.append(seeds)
        return real(config, seeds, out)

    monkeypatch.setattr(cli, "_run_cell", spy)
    config = tmp_path / "three_seeds.cfg"
    config.write_text(TINY.replace("seeds = 0", "seeds = 0,1,2"))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert cells == [(0, 1, 2)]


def test_dying_worker_fails_only_its_group(tmp_path, monkeypatch, capsys):
    # --parallel 2 on 3 seeds: groups (0, 1) and (2,). The worker of (2,)
    # dies once seed 1's last grid is written, so group (0, 1) completes.
    config = tmp_path / "three_seeds.cfg"
    config.write_text(TINY.replace("seeds = 0", "seeds = 0,1,2"))
    out = tmp_path / "o"
    last_grid = out / "grids" / "fine_tune_seed1_phase02.csv"
    real = cli.setup_seed

    def dies_on_seed_two(bench, run_config):
        if run_config.seed == 2:
            deadline = time.monotonic() + 60
            while not last_grid.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            time.sleep(0.5)
            os._exit(3)
        return real(bench, run_config)

    monkeypatch.setattr(cli, "setup_seed", dies_on_seed_two)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rc = cli.main(["run", "--config", str(config), "--out", str(out), "--parallel", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "fine_tune seed=2: FAILED (BrokenProcessPool" in err
    assert "seed=0: FAILED" not in err and "seed=1: FAILED" not in err
    assert sorted(p.name for p in (out / "records").iterdir()) == [
        "record_fine_tune_seed0.csv", "record_fine_tune_seed1.csv"]
    assert "completed=2" in (out / "manifest.txt").read_text()


def test_csv_files_are_parsed_once_per_group(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    for name, rows in (("train.csv", 600), ("test.csv", 120)):
        labels = np.arange(rows) % 3
        features = 3.0 * labels[:, None] + rng.standard_normal((rows, 2))
        save_csv(Dataset(features, labels), str(tmp_path / name))
    config = tmp_path / "csv.cfg"
    config.write_text(TINY.replace("seeds = 0", "seeds = 0,1").replace("num_phases = 2",
                                                                      "num_phases = 10")
                      + f"data.source = csv\ncsv.train_path = {tmp_path / 'train.csv'}\n"
                      f"csv.test_path = {tmp_path / 'test.csv'}\n")
    parsed = []
    real = config_module.load_csv

    def counted(path, schema):
        parsed.append(Path(path).name)
        return real(path, schema)

    monkeypatch.setattr(config_module, "load_csv", counted)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert sorted(parsed) == ["test.csv", "train.csv"]
    assert len(list((tmp_path / "o" / "records").glob("record_*.csv"))) == 2


def test_report_does_not_load_scipy_stats(two_seed_config, tmp_path):
    # two records per strategy, so report computes its t intervals
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(two_seed_config), "--out", str(out)]) == 0
    src = Path(boundary_distill.__file__).resolve().parents[1]
    probe = ("import sys; from boundary_distill import cli; "
             f"assert cli.main(['report', {str(out)!r}]) == 0; "
             "print(sorted({m for m in sys.modules if m.startswith('scipy.')} "
             "& {'scipy.special', 'scipy.stats'}))")
    result = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout.strip().splitlines()[-1] == "['scipy.special']"


def test_cli_import_does_not_load_scipy():
    src = Path(boundary_distill.__file__).resolve().parents[1]
    probe = ("import sys, boundary_distill.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"


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


# dump_config(ExperimentConfig()) and the default RunConfig digest of each
# strategy: a refactor of the config code must leave both unchanged, since
# every record carries the digest and config.resolved re-runs the experiment
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
    "boundary_distill": "98f22945bcbe221aceba0c7c65bbdfc78551d26a1501197d1524495ea096a7f1",
    "fine_tune": "892c618fbe3b2495771a17d4a85ae4e346c924fa78f3695b75150d16a5dea0d3",
    "vanilla_distill": "b97072b2d1f5f91debfd93ba6307e7b3855ca6c02033a0b67a1729af664c2da2",
    "full_data": "f41a82a0015738bccd3ad8b267e56da02c810b8552a7bb00f53f95110dddc5a2",
}


def test_default_config_text_and_digests_are_pinned():
    assert dump_config(ExperimentConfig()) == DEFAULT_DUMP
    for strategy in cli.STRATEGIES:
        assert ExperimentConfig().run_config(strategy, 0).digest() == DEFAULT_DIGESTS[strategy]


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
    ("grid.resolution = 0", "grid.resolution must be >= 2"),
    ("seeds = 0,1,0", "seeds lists 0 more than once"),
    ("strategies = fine_tune,fine_tune", "strategies lists fine_tune more than once"),
    ("grid.delta = 1,1,2", "grid.delta lists 1.0 more than once"),
    ("grid.lambda = 0.5,2,0.5", "grid.lambda lists 0.5 more than once"),
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
            assert failed["error"] == "ValueError: delta must be positive, got 0.0"
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
