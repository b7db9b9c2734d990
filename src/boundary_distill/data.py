"""Datasets: synthetic drifting Gaussian mixtures, CSV ingestion, norm stats.

The synthetic generator produces a base pool of tight class clusters and a
sequence of small per-phase pools whose class means migrate outward (away
from the global mean) while covariance inflates, so later phases contain
samples the base decision boundary has never seen.
"""

from __future__ import annotations

import csv
import io
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .seeding import rng_for

STD_FLOOR = 1e-8


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n, d) float64 plus integer labels (n,)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.features, dtype=np.float64)
        l = np.asarray(self.labels, dtype=np.int64)
        if f.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {f.shape}")
        if l.ndim != 1 or l.shape[0] != f.shape[0]:
            raise ValueError(f"labels shape {l.shape} does not match {f.shape[0]} rows")
        if f.size and not np.isfinite(f).all():
            raise ValueError("features contain NaN or Inf")
        if l.size and l.min() < 0:
            raise ValueError("labels must be non-negative")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", l)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(self.features[idx].copy(), self.labels[idx].copy())

    @staticmethod
    def concat(parts: list["Dataset"]) -> "Dataset":
        if not parts:
            raise ValueError("cannot concatenate zero datasets")
        return Dataset(
            np.concatenate([p.features for p in parts]),
            np.concatenate([p.labels for p in parts]),
        )


@dataclass(frozen=True)
class NormStats:
    """Per-feature population mean/std, frozen from the base-phase data:
    shaped (d,), or (S, 1, d) for the stats of a stack of S models."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mean, dtype=np.float64)
        s = np.asarray(self.std, dtype=np.float64)
        if m.shape != s.shape or not (m.ndim == 1 or m.ndim == 3 and m.shape[1] == 1):
            raise ValueError(f"mean/std must be matching 1-d arrays (d,), or (S, 1, d) for "
                             f"a stack, got {m.shape} vs {s.shape}")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "std", s)


def compute_norm_stats(dataset: Dataset) -> NormStats:
    """Population mean/std per feature, std floored at STD_FLOOR.

    Contract: call this on the base split only, and reuse the result for
    every later phase. Re-deriving stats per phase would let the
    normalization itself drift.
    """
    if len(dataset) == 0:
        raise ValueError("cannot compute norm stats of an empty dataset")
    mean = dataset.features.mean(axis=0)
    std = dataset.features.std(axis=0)  # population (ddof=0)
    return NormStats(mean=mean, std=np.maximum(std, STD_FLOOR))


def standardize(features: np.ndarray, stats: NormStats) -> np.ndarray:
    return (np.asarray(features, dtype=np.float64) - stats.mean) / stats.std


@dataclass(frozen=True)
class DriftSpec:
    """Per-phase drift: outward mean shift (in units of base cluster sigma),
    compounding covariance scale, optional rotation (radians, 2-d only)."""

    mean_shift: float = 0.5
    cov_scale: float = 1.5
    rotation: float = 0.0

    def __post_init__(self) -> None:
        if not self.cov_scale > 0:
            raise ValueError(f"cov_scale must be positive, got {self.cov_scale}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian-mixture benchmark description.

    cluster_means defaults to an irregular ring of radius ~3 in the first
    two feature dimensions (ring_means with eccentricity 0.55); cluster_cov
    defaults to tight tilted ellipses (elongated_cov, sigma 0.33, axis ratio
    2.5, -15 degrees). Together these leave genuine room for the drifted
    phases to both teach and overwrite the base decision boundary.
    """

    num_classes: int = 4
    dim: int = 2
    samples_per_class_base: int = 500
    samples_per_class_phase: int = 50
    cluster_means: np.ndarray | None = None
    cluster_cov: np.ndarray | None = None
    drift: DriftSpec = field(default_factory=DriftSpec)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.samples_per_class_base < 1 or self.samples_per_class_phase < 1:
            raise ValueError("per-class sample counts must be positive")
        means = self.cluster_means
        if means is None:
            means = ring_means(self.num_classes, self.dim, radius=3.0, eccentricity=0.55)
        means = np.asarray(means, dtype=np.float64)
        if means.shape != (self.num_classes, self.dim):
            raise ValueError(
                f"cluster_means must have shape {(self.num_classes, self.dim)}, got {means.shape}"
            )
        for i in range(self.num_classes):
            for j in range(i + 1, self.num_classes):
                if np.allclose(means[i], means[j]):
                    raise ValueError(f"cluster means {i} and {j} coincide")
        cov = self.cluster_cov
        if cov is None:
            cov = elongated_cov(self.dim, sigma=0.33, ratio=2.5, angle=np.deg2rad(-15.0))
        cov = np.asarray(cov, dtype=np.float64)
        if cov.shape != (self.dim, self.dim):
            raise ValueError(f"cluster_cov must be {(self.dim, self.dim)}, got {cov.shape}")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("cluster_cov must be positive definite") from exc
        if self.drift.rotation != 0.0 and self.dim != 2:
            raise ValueError("rotation drift is only defined for dim == 2")
        object.__setattr__(self, "cluster_means", means)
        object.__setattr__(self, "cluster_cov", cov)

    @property
    def cluster_sigma(self) -> float:
        """Scalar scale of the base clusters: sqrt(mean variance)."""
        return float(np.sqrt(np.trace(self.cluster_cov) / self.dim))


def ring_means(
    num_classes: int, dim: int, radius: float, eccentricity: float = 0.0
) -> np.ndarray:
    """Class means on a circle in the first two dimensions.

    eccentricity=0 spaces them evenly at the given radius. A positive
    value perturbs both the angles and the per-class radii through fixed
    closed-form offsets, producing an irregular but deterministic layout.
    The irregularity matters: with a perfectly symmetric ring the ideal
    decision boundary barely moves under outward drift, leaving nothing
    for incremental phases to teach.
    """
    idx = np.arange(num_classes)
    angles = 2.0 * np.pi * idx / num_classes
    radii = np.full(num_classes, float(radius))
    if eccentricity != 0.0:
        angles = angles + eccentricity * (np.pi / num_classes) * np.sin(2.4 * idx + 1.0)
        radii = radii * (1.0 + eccentricity * np.sin(1.7 * idx + 0.5))
    means = np.zeros((num_classes, dim))
    means[:, 0] = radii * np.cos(angles)
    means[:, min(1, dim - 1)] = radii * np.sin(angles)
    return means


def elongated_cov(dim: int, sigma: float, ratio: float = 1.0, angle: float = 0.0) -> np.ndarray:
    """Covariance with a stretched principal axis in the first two dims.

    sigma is the short-axis standard deviation, ratio the long/short axis
    ratio, angle the long axis direction in radians. Remaining dimensions
    get sigma**2. Elongation is what makes the multiplicative covariance
    drift change neighboring-class overlap asymmetrically over phases.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if ratio < 1.0:
        raise ValueError(f"ratio must be >= 1, got {ratio}")
    cov = np.eye(dim) * sigma**2
    if dim >= 2 and ratio != 1.0:
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        block = rot @ np.diag([(ratio * sigma) ** 2, sigma**2]) @ rot.T
        cov[:2, :2] = block
    return cov


def phase_distribution(spec: SyntheticSpec, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(means, covariance) of the mixture at phase t (t=0 is the base).

    Means move t * mean_shift * sigma along the unit vector from the global
    mean to each class mean; covariance is scaled by cov_scale ** t; when a
    rotation is configured, means rotate about the global mean by
    t * rotation radians.
    """
    if t < 0:
        raise ValueError(f"phase index must be >= 0, got {t}")
    means = np.array(spec.cluster_means, dtype=np.float64)
    center = means.mean(axis=0)
    offsets = means - center
    if t > 0 and spec.drift.rotation != 0.0:
        angle = t * spec.drift.rotation
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        offsets = offsets @ rot.T
    norms = np.linalg.norm(offsets, axis=1, keepdims=True)
    # A class sitting exactly at the global mean has no outward direction.
    directions = np.where(norms > 0, offsets / np.where(norms > 0, norms, 1.0), 0.0)
    shift = t * spec.drift.mean_shift * spec.cluster_sigma
    drifted = center + offsets + shift * directions
    cov = spec.cluster_cov * spec.drift.cov_scale**t
    return drifted, cov


def _draw_mixture(
    means: np.ndarray, cov: np.ndarray, per_class: int, rng: np.random.Generator
) -> Dataset:
    """per_class draws from each class, in class order (documented so that
    tests can reconstruct the stream exactly)."""
    chol = np.linalg.cholesky(cov)
    feats = []
    labels = []
    for c in range(means.shape[0]):
        z = rng.standard_normal((per_class, means.shape[1]))
        feats.append(means[c] + z @ chol.T)
        labels.append(np.full(per_class, c, dtype=np.int64))
    return Dataset(np.concatenate(feats), np.concatenate(labels))


def gen_base(spec: SyntheticSpec) -> Dataset:
    """Base pool: samples_per_class_base draws per class, stream (seed, 'base')."""
    means, cov = phase_distribution(spec, 0)
    return _draw_mixture(means, cov, spec.samples_per_class_base, rng_for(spec.seed, "base"))


def gen_phase(spec: SyntheticSpec, t: int) -> Dataset:
    """Phase pool t >= 1: samples_per_class_phase draws per class from the
    drifted mixture, stream (seed, 'phase', t)."""
    if t < 1:
        raise ValueError(f"phase index must be >= 1, got {t}")
    means, cov = phase_distribution(spec, t)
    return _draw_mixture(means, cov, spec.samples_per_class_phase, rng_for(spec.seed, "phase", t))


def gen_test(spec: SyntheticSpec, num_phases: int, per_class_per_phase: int) -> Dataset:
    """Fixed evaluation pool covering the base mixture and every phase
    mixture (streams (seed, 'test', t) for t = 0..num_phases)."""
    if num_phases < 0:
        raise ValueError("num_phases must be >= 0")
    parts = []
    for t in range(num_phases + 1):
        means, cov = phase_distribution(spec, t)
        parts.append(_draw_mixture(means, cov, per_class_per_phase, rng_for(spec.seed, "test", t)))
    return Dataset.concat(parts)


# --- CSV ingestion ----------------------------------------------------------


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping: feature columns (empty tuple = every non-label
    column, in file order) and the label column."""

    feature_cols: tuple[str, ...] = ()
    label_col: str = "label"


def check_feature_cols(feature_cols: tuple[str, ...], label_col: str, where: str) -> None:
    """Feature columns must be distinct and must not include the label
    column, which would leak the label into the features; `where` prefixes
    the error."""
    repeated = sorted({c for c in feature_cols if feature_cols.count(c) > 1})
    if repeated:
        raise ValueError(f"{where}feature columns list {', '.join(repeated)} more than once")
    if label_col in feature_cols:
        raise ValueError(f"{where}feature columns include the label column {label_col!r}")


def load_csv(path: str, schema: CsvSchema) -> Dataset:
    """Parse a labeled CSV into a Dataset.

    Rows with non-finite features are skipped; one warning reporting the
    skip count is emitted. Labels must parse as integers.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        if schema.label_col not in reader.fieldnames:
            raise ValueError(f"{path}: label column {schema.label_col!r} not found")
        feature_cols = schema.feature_cols or tuple(
            c for c in reader.fieldnames if c != schema.label_col
        )
        check_feature_cols(feature_cols, schema.label_col, f"{path}: ")
        for col in feature_cols:
            if col not in reader.fieldnames:
                raise ValueError(f"{path}: feature column {col!r} not found")
        if not feature_cols:
            raise ValueError(f"{path}: no feature columns")

        feats: list[list[float]] = []
        labels: list[int] = []
        skipped = 0
        for line_no, row in enumerate(reader, start=2):
            values = [float(row[c]) for c in feature_cols]
            if not all(math.isfinite(v) for v in values):
                skipped += 1
                continue
            raw_label = row[schema.label_col]
            label = float(raw_label)
            if label != int(label):
                raise ValueError(f"{path}:{line_no}: label {raw_label!r} is not an integer")
            feats.append(values)
            labels.append(int(label))
    if skipped:
        warnings.warn(
            f"{path}: skipped {skipped} row(s) with non-finite features",
            RuntimeWarning,
            stacklevel=2,
        )
    if not feats:
        raise ValueError(f"{path}: no usable rows")
    return Dataset(np.array(feats, dtype=np.float64), np.array(labels, dtype=np.int64))


def save_csv(dataset: Dataset, path: str, feature_names: tuple[str, ...] | None = None) -> None:
    """Write a Dataset as CSV with full-precision floats (repr round-trip)."""
    names = feature_names or tuple(f"f{i}" for i in range(dataset.dim))
    if len(names) != dataset.dim:
        raise ValueError(f"need {dataset.dim} feature names, got {len(names)}")
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow([*names, "label"])
    for row, label in zip(dataset.features, dataset.labels):
        writer.writerow([*(repr(float(v)) for v in row), int(label)])
    write_atomic(path, text.getvalue())


def write_atomic(path: str | Path, text: str) -> None:
    """Write text to path as it stands (no newline translation): first to a
    temporary file in the same directory, then os.replace puts it in place,
    so a reader finds the old file or the whole new one, never a part. A
    write that fails removes the temporary file and leaves the old file.
    There is no fsync: this guards against an interrupted process, not
    against a power cut."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
