"""Flat key=value experiment configuration.

One config file drives the whole CLI. Lines look like ``train.lr_base =
0.05``; blank lines and ``#`` comments are ignored; unknown keys and
malformed values fail with file/line diagnostics. Command-line flags
override file values, file values override defaults. The resolved config
serializes back to the same format, so a dumped config re-executes the
experiment identically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .data import (
    CsvSchema,
    Dataset,
    DriftSpec,
    SyntheticSpec,
    check_feature_cols,
    elongated_cov,
    load_csv,
    ring_means,
)
from .protocol import (
    STRATEGIES,
    IILBenchmark,
    RunConfig,
    check_split,
    drift_benchmark,
    split_benchmark,
)
from .seeding import derive_seed


class ConfigError(ValueError):
    """Config file or flag could not be parsed/validated."""


def check_unique(name: str, values: tuple) -> None:
    """Fail when a list value names an entry twice."""
    repeated = sorted({str(v) for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{name} lists {', '.join(repeated)} more than once")


def _items(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


# ExperimentConfig annotation -> parser of a flat value of that type
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "float | None": lambda text: None if text == "" else float(text),
    "tuple[int, ...]": lambda text: tuple(int(p) for p in _items(text)),
    "tuple[float, ...]": lambda text: tuple(float(p) for p in _items(text)),
    "tuple[str, ...]": lambda text: tuple(_items(text)),
}


def _key(key: str, default):
    """Dataclass field read from and written to the flat key `key`."""
    return field(default=default, metadata={"key": key})


def _knob(key: str, path: str):
    """Run knob at the flat key `key`, stored in RunConfig at the dotted
    attribute `path`, whose default it takes."""
    default = functools.reduce(getattr, path.split("."), RunConfig())
    return field(default=default, metadata={"key": key, "run": path})


def _with(obj, path: str, value):
    """obj with its attribute at the dotted `path` replaced by value."""
    head, _, rest = path.partition(".")
    return replace(obj, **{head: _with(getattr(obj, head), rest, value) if rest else value})


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment: data source, model, training, output, grids.

    Each field declares its flat config key (field metadata, via _key); a
    run knob (_knob) takes its default and its checks from RunConfig. The
    annotation selects the value parser in _PARSERS. Field order is the
    order dump_config writes. Every value is checked when the config is built.
    """

    data_source: str = _key("data.source", "synthetic")
    num_phases: int = _key("data.num_phases", 10)
    base_fraction: float = _key("data.base_fraction", 0.5)
    imbalance: str = _key("data.imbalance", "uniform_random")
    dirichlet_alpha: float = _key("data.dirichlet_alpha", 5.0)

    synth_num_classes: int = _key("synthetic.num_classes", 4)
    synth_dim: int = _key("synthetic.dim", 2)
    synth_base_per_class: int = _key("synthetic.base_per_class", 500)
    synth_phase_per_class: int = _key("synthetic.phase_per_class", 50)
    synth_test_per_class: int = _key("synthetic.test_per_class", 100)
    synth_cluster_radius: float = _key("synthetic.cluster_radius", 3.0)
    synth_eccentricity: float = _key("synthetic.eccentricity", 0.55)
    synth_cluster_sigma: float = _key("synthetic.cluster_sigma", 0.33)
    synth_aniso_ratio: float = _key("synthetic.aniso_ratio", 2.5)
    synth_aniso_angle: float = _key("synthetic.aniso_angle", -15.0)
    synth_mean_shift: float = _key("synthetic.mean_shift", 0.5)
    synth_cov_scale: float = _key("synthetic.cov_scale", 1.5)
    synth_rotation: float = _key("synthetic.rotation", 0.0)

    csv_train_path: str = _key("csv.train_path", "")
    csv_test_path: str = _key("csv.test_path", "")
    csv_label_col: str = _key("csv.label_col", "label")
    csv_feature_cols: tuple[str, ...] = _key("csv.feature_cols", ())

    hidden: tuple[int, ...] = _knob("model.hidden", "hidden_layers")
    activation: str = _knob("model.activation", "activation")

    epochs_per_phase: int = _knob("train.epochs_per_phase", "epochs_per_phase")
    lr_base: float = _knob("train.lr_base", "lr_base")
    lr_incremental: float | None = _knob("train.lr_incremental", "lr_incremental")
    batch_size: int = _knob("train.batch_size", "batch_size")
    fine_tune_epochs: int = _knob("train.fine_tune_epochs", "fine_tune_epochs")
    exemplar_fraction: float = _knob("train.exemplar_fraction", "exemplar_fraction")

    distill_weight: float = _knob("distill.weight", "distill_weight")
    fuse_tau: float = _knob("distill.tau", "fuse.tau")
    fuse_variant: str = _knob("distill.variant", "fuse.variant")
    inner_target: str = _knob("distill.inner_target", "assign.inner")
    outer_target: str = _knob("distill.outer_target", "assign.outer")
    noise_mu: float = _knob("noise.mu", "noise.mu")
    noise_delta: float = _knob("noise.delta", "noise.delta")

    freeze_epochs: int = _knob("consolidate.freeze_epochs", "sched.freeze_epochs")
    period_epochs: int = _knob("consolidate.period_epochs", "sched.period_epochs")
    alpha0: float = _knob("consolidate.alpha0", "sched.alpha0")
    warmup: float = _knob("consolidate.warmup", "sched.warmup")
    ema_mode: str = _knob("consolidate.mode", "sched.mode")

    seeds: tuple[int, ...] = _key("seeds", (0, 1, 2, 3, 4))
    strategies: tuple[str, ...] = _key("strategies", ("boundary_distill", "fine_tune"))
    out_dir: str = _key("out_dir", "")

    grid_delta: tuple[float, ...] = _key("grid.delta", (0.02, 0.2, 1.0, 2.0, 4.0, 10.0))
    grid_lambda: tuple[float, ...] = _key("grid.lambda", (0.1, 0.5, 1.0, 2.0, 5.0, 10.0))
    grid_resolution: int = _key("grid.resolution", 50)

    def __post_init__(self) -> None:
        """Every check a run would make, so a bad value fails at load."""
        if self.data_source == "synthetic":
            self.synthetic_spec(0)
            if self.num_phases < 0:
                raise ConfigError(f"data.num_phases must be >= 0, got {self.num_phases}")
            if self.synth_test_per_class < 1:
                raise ConfigError(
                    f"synthetic.test_per_class must be >= 1, got {self.synth_test_per_class}"
                )
        elif self.data_source != "csv":
            raise ConfigError(f"unknown data.source {self.data_source!r}")
        elif not (self.csv_train_path and self.csv_test_path):
            raise ConfigError("csv source needs both csv.train_path and csv.test_path")
        else:
            check_split(self.base_fraction, self.num_phases, self.imbalance, self.dirichlet_alpha)
            check_feature_cols(self.csv_feature_cols, self.csv_label_col, "csv.feature_cols: ")
        if self.grid_resolution < 2:
            raise ConfigError(f"grid.resolution must be >= 2, got {self.grid_resolution}")
        for strategy in self.strategies:  # RunConfig checks the name
            RunConfig(strategy=strategy)
        # a repeated entry would run or write the same cell twice
        check_unique("seeds", self.seeds)
        check_unique("strategies", self.strategies)
        check_unique("grid.delta", self.grid_delta)
        check_unique("grid.lambda", self.grid_lambda)
        # RunConfig and its parts check the run knobs, NetworkSpec the model
        self.run_config(STRATEGIES[0], 0).network_spec(1, 2)

    # --- derived objects ---------------------------------------------------

    def run_config(self, strategy: str, seed: int) -> RunConfig:
        config = RunConfig(strategy=strategy, seed=seed)
        for f in fields(self):
            if "run" in f.metadata:
                config = _with(config, f.metadata["run"], getattr(self, f.name))
        return config

    def synthetic_spec(self, seed: int) -> SyntheticSpec:
        return SyntheticSpec(
            num_classes=self.synth_num_classes,
            dim=self.synth_dim,
            samples_per_class_base=self.synth_base_per_class,
            samples_per_class_phase=self.synth_phase_per_class,
            cluster_means=ring_means(
                self.synth_num_classes,
                self.synth_dim,
                self.synth_cluster_radius,
                eccentricity=self.synth_eccentricity,
            ),
            cluster_cov=elongated_cov(
                self.synth_dim,
                sigma=self.synth_cluster_sigma,
                ratio=self.synth_aniso_ratio,
                angle=math.radians(self.synth_aniso_angle),
            ),
            drift=DriftSpec(
                mean_shift=self.synth_mean_shift,
                cov_scale=self.synth_cov_scale,
                rotation=self.synth_rotation,
            ),
            seed=derive_seed(seed, "data"),
        )

    def build_benchmark(self, seed: int) -> IILBenchmark:
        """Materialize the benchmark for one run seed."""
        if self.data_source == "synthetic":
            return drift_benchmark(
                self.synthetic_spec(seed), self.num_phases, self.synth_test_per_class
            )
        train, test = self._csv_datasets
        return split_benchmark(
            train,
            self.base_fraction,
            self.num_phases,
            seed=derive_seed(seed, "split"),
            imbalance=self.imbalance,
            test=test,
            dirichlet_alpha=self.dirichlet_alpha,
        )

    @functools.cached_property
    def _csv_datasets(self) -> tuple[Dataset, Dataset]:
        """The parsed train and test CSV files, read at the first
        build_benchmark and shared by every seed built from this config
        object and from its copies made after that read."""
        schema = CsvSchema(self.csv_feature_cols, self.csv_label_col)
        return load_csv(self.csv_train_path, schema), load_csv(self.csv_test_path, schema)


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


# flat config key -> (dataclass field, parser), in field order
_KEYS = {f.metadata["key"]: (f.name, _PARSERS[f.type]) for f in fields(ExperimentConfig)}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a flat key=value file into an ExperimentConfig."""
    overrides = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        field_name, parser = _KEYS[key]
        try:
            overrides[field_name] = parser(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{line_no}: bad value for {key!r}: {exc}") from exc
    try:
        return ExperimentConfig(**overrides)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def dump_config(config: ExperimentConfig) -> str:
    """Resolved config as key=value lines (a valid config file)."""
    lines = [f"{f.metadata['key']} = {_format_value(getattr(config, f.name))}"
             for f in fields(config)]
    return "\n".join(lines) + "\n"

