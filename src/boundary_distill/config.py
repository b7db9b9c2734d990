"""Flat key=value experiment configuration.

One config file drives the whole CLI. Lines look like ``train.lr_base =
0.05``; blank lines and ``#`` comments are ignored; unknown keys and
malformed values fail with file/line diagnostics. Command-line flags
override file values, file values override defaults. The resolved config
serializes back to the same format, so a dumped config re-executes the
experiment identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .consolidation import ConsolidationSchedule
from .data import CsvSchema, DriftSpec, SyntheticSpec, elongated_cov, load_csv, ring_means
from .distill import FuseConfig, LabelAssignment, NoiseSpec
from .protocol import IILBenchmark, RunConfig, drift_benchmark, split_benchmark
from .seeding import derive_seed


class ConfigError(ValueError):
    """Config file or flag could not be parsed/validated."""


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


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment: data source, model, training, output, grids.

    Each field declares its flat config key (field metadata, via _key); its
    annotation selects the value parser in _PARSERS. Field order is the
    order dump_config writes.
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

    hidden: tuple[int, ...] = _key("model.hidden", (16,))
    activation: str = _key("model.activation", "relu")

    epochs_per_phase: int = _key("train.epochs_per_phase", 60)
    lr_base: float = _key("train.lr_base", 0.2)
    lr_incremental: float | None = _key("train.lr_incremental", None)
    batch_size: int = _key("train.batch_size", 64)
    fine_tune_epochs: int = _key("train.fine_tune_epochs", 10)
    exemplar_fraction: float = _key("train.exemplar_fraction", 0.1)

    distill_weight: float = _key("distill.weight", 0.1)
    fuse_tau: float = _key("distill.tau", 1.0)
    fuse_variant: str = _key("distill.variant", "literal")
    inner_target: str = _key("distill.inner_target", "fused")
    outer_target: str = _key("distill.outer_target", "fused")
    noise_mu: float = _key("noise.mu", 0.0)
    noise_delta: float = _key("noise.delta", 2.0)

    freeze_epochs: int = _key("consolidate.freeze_epochs", 10)
    period_epochs: int = _key("consolidate.period_epochs", 5)
    alpha0: float = _key("consolidate.alpha0", 0.99)
    warmup: float = _key("consolidate.warmup", 500.0)
    ema_mode: str = _key("consolidate.mode", "scheduled")

    seeds: tuple[int, ...] = _key("seeds", (0, 1, 2, 3, 4))
    strategies: tuple[str, ...] = _key("strategies", ("boundary_distill", "fine_tune"))
    out_dir: str = _key("out_dir", "")

    grid_delta: tuple[float, ...] = _key("grid.delta", (0.02, 0.2, 1.0, 2.0, 4.0, 10.0))
    grid_lambda: tuple[float, ...] = _key("grid.lambda", (0.1, 0.5, 1.0, 2.0, 5.0, 10.0))
    grid_resolution: int = _key("grid.resolution", 50)

    # --- derived objects ---------------------------------------------------

    def run_config(self, strategy: str, seed: int) -> RunConfig:
        return RunConfig(
            strategy=strategy,
            epochs_per_phase=self.epochs_per_phase,
            lr_base=self.lr_base,
            lr_incremental=self.lr_incremental,
            batch_size=self.batch_size,
            fuse=FuseConfig(tau=self.fuse_tau, variant=self.fuse_variant),
            noise=NoiseSpec(mu=self.noise_mu, delta=self.noise_delta),
            distill_weight=self.distill_weight,
            sched=ConsolidationSchedule(
                freeze_epochs=self.freeze_epochs,
                period_epochs=self.period_epochs,
                alpha0=self.alpha0,
                warmup=self.warmup,
                mode=self.ema_mode,
            ),
            assign=LabelAssignment(inner=self.inner_target, outer=self.outer_target),
            fine_tune_epochs=self.fine_tune_epochs,
            exemplar_fraction=self.exemplar_fraction,
            hidden_layers=self.hidden,
            activation=self.activation,
            seed=seed,
        )

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
        if self.data_source == "csv":
            if not self.csv_train_path or not self.csv_test_path:
                raise ConfigError(
                    "csv source needs both csv.train_path and csv.test_path"
                )
            schema = CsvSchema(self.csv_feature_cols, self.csv_label_col)
            train = load_csv(self.csv_train_path, schema)
            test = load_csv(self.csv_test_path, schema)
            return split_benchmark(
                train,
                self.base_fraction,
                self.num_phases,
                seed=derive_seed(seed, "split"),
                imbalance=self.imbalance,
                test=test,
                dirichlet_alpha=self.dirichlet_alpha,
            )
        raise ConfigError(f"unknown data.source {self.data_source!r}")


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


def apply_overrides(config: ExperimentConfig, **changes) -> ExperimentConfig:
    """replace() wrapper that rejects unknown fields early."""
    valid = {f.name for f in fields(config)}
    unknown = set(changes) - valid
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return replace(config, **changes)
