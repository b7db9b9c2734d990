"""Boundary-aware distillation: fused targets plus noisy-input distillation.

Two ideas combine here. First, the learning target for each new sample is a
fusion of its one-hot label with the teacher's prediction, which tempers how
hard a sample can drag the decision boundary. Second, a copy of the batch is
scattered with strong Gaussian noise after normalization; on those perturbed
points the student is pulled toward the teacher's outputs, which anchors the
boundary in regions the new samples do not cover.

The teacher is a constant in this module: its outputs enter the loss as
fixed targets and no gradient ever flows into teacher parameters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import NormStats
from .network import NetworkSpec, Trainer, forward, one_hot, softmax

FUSE_VARIANTS = ("literal", "tempered_softmax")
TARGET_RULES = ("one_hot", "teacher", "fused")


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian perturbation applied to normalized inputs.

    mu is the noise mean, delta its standard deviation in standardized
    feature units. delta is deliberately large compared to typical
    augmentation noise; the point is to relocate samples, not to jitter
    them. For a stack of models that share one draw, delta is an array of
    their deviations, shaped (M, 1, 1) to broadcast over (M, n, d).
    """

    mu: float = 0.0
    delta: float | np.ndarray = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not np.all(np.greater(self.delta, 0)):
            raise ValueError(f"delta must be positive, got {self.delta}")


@dataclass(frozen=True)
class FuseConfig:
    """How a one-hot label and a teacher prediction are fused.

    variant "literal" renormalizes y + p_t directly; since both terms sum
    to one this is exactly (y + p_t)/2 and any temperature cancels.
    variant "tempered_softmax" applies softmax((y + p_t)/tau) instead,
    where tau genuinely changes the result.
    """

    tau: float = 1.0
    variant: str = "literal"

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.variant not in FUSE_VARIANTS:
            raise ValueError(f"variant must be one of {FUSE_VARIANTS}, got {self.variant!r}")


@dataclass(frozen=True)
class LabelAssignment:
    """Target rule per region: samples the teacher already gets right
    (inner) vs. samples it misclassifies (outer). Default fuses both."""

    inner: str = "fused"
    outer: str = "fused"

    def __post_init__(self) -> None:
        for field_name, rule in (("inner", self.inner), ("outer", self.outer)):
            if rule not in TARGET_RULES:
                raise ValueError(
                    f"{field_name} target must be one of {TARGET_RULES}, got {rule!r}"
                )

    @property
    def uniform_rule(self) -> str | None:
        """The single rule if inner and outer agree, else None."""
        return self.inner if self.inner == self.outer else None


@dataclass(frozen=True)
class DistillLossTerms:
    """Loss decomposition: total = learn_term + weight * distill_term."""

    learn_term: float
    distill_term: float
    weight: float

    @property
    def total(self) -> float:
        return self.learn_term + self.weight * self.distill_term

    @classmethod
    def from_rows(
        cls, losses: np.ndarray, n: int, weight: float | np.ndarray
    ) -> "DistillLossTerms":
        """Terms from the per-row losses of distillation_batch's rows: n
        clean rows, then the perturbed rows, if any. For a stack's losses
        (M, rows) and weights (M,), each term holds one value per model."""
        distill = losses[..., n:].mean(axis=-1) if losses.shape[-1] > n else 0.0
        return cls(learn_term=losses[..., :n].mean(axis=-1), distill_term=distill, weight=weight)


def fuse_labels_batch(labels_one_hot: np.ndarray, teacher_probs: np.ndarray, config: FuseConfig) -> np.ndarray:
    """Row-wise fusion of one-hot labels (B, classes) with teacher
    predictions (B, classes), or with a stack of them (M, B, classes); or
    of one label batch per model (M, B, classes) with the stack's
    predictions (M, B, classes)."""
    y = np.asarray(labels_one_hot, dtype=np.float64)
    p = np.asarray(teacher_probs, dtype=np.float64)
    if y.ndim not in (2, 3) or p.ndim not in (2, 3) or y.shape != p.shape[p.ndim - y.ndim:]:
        raise ValueError(f"expected matching arrays of rows, got {y.shape} vs {p.shape}")
    merged = y + p
    if config.variant == "literal":
        # Both addends are distributions, so each row of `merged` sums to 2.
        return merged / merged.sum(axis=-1, keepdims=True)
    return softmax(merged / config.tau)


def perturb_inputs(
    batch: np.ndarray,
    norm_stats: NormStats,
    noise: NoiseSpec,
    rng: np.random.Generator | list[np.random.Generator] | None = None,
    zero_noise: bool = False,
) -> np.ndarray:
    """Normalize the batch and add elementwise Gaussian noise.

    Normalization subtracts norm_stats.mean and divides by norm_stats.std
    per feature (stats must come from the base-phase training data). The
    result is NOT clipped to the data range: points escaping the data
    manifold are the point of the exercise.

    `zero_noise=True` is a test hook that skips the draw entirely, so the
    output equals the normalized batch exactly. Otherwise draws come from
    `rng` when given, else from a fresh generator seeded with noise.seed.
    The noise is mu + delta * z for one standard-normal draw z, which is
    how Generator.normal computes it, so an array of deltas (a stack)
    gives each model the bits it would get alone, with shape (M, n, d).

    A stack of S models with one batch each takes batches (S, n, d), norm
    stats shaped (S, 1, d) and one generator per model in `rng`; model s
    draws its (n, d) noise from rng[s], as it would alone.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ValueError("batch must be 2-d, or 3-d for one batch per model")
    std = np.asarray(norm_stats.std, dtype=np.float64)
    if (std == 0).any():
        warnings.warn(
            f"{int((std == 0).sum())} feature(s) have zero std; using 1.0 for them",
            RuntimeWarning,
            stacklevel=2,
        )
        std = np.where(std == 0, 1.0, std)
    normalized = (x - np.asarray(norm_stats.mean, dtype=np.float64)) / std
    if zero_noise:
        return normalized
    if rng is None:
        rng = np.random.default_rng(noise.seed)
    if isinstance(rng, np.random.Generator):
        z = rng.standard_normal(x.shape)
    else:
        z = np.empty(x.shape)
        for draws, model_rng in zip(z, rng, strict=True):
            model_rng.standard_normal(out=draws)
    return normalized + (noise.mu + noise.delta * z)


def inner_mask(teacher_probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Boolean mask of rows where the teacher already predicts the label
    (inner rows); the rest are outer. Ties in the teacher's prediction
    resolve to the lowest class index (numpy argmax convention). A stack
    of predictions (M, B, classes) gives one mask per model (M, B)."""
    return np.argmax(teacher_probs, axis=-1) == np.asarray(labels)


def _clean_targets(
    labels_hot: np.ndarray,
    teacher_clean: np.ndarray | None,
    labels: np.ndarray,
    fuse: FuseConfig,
    assign: LabelAssignment,
) -> np.ndarray:
    """Learning targets of the clean rows (teacher_clean is None only for
    the one-hot rule, which needs no teacher)."""
    rule = assign.uniform_rule
    if rule == "one_hot":
        return labels_hot
    if rule == "teacher":
        return teacher_clean
    fused = fuse_labels_batch(labels_hot, teacher_clean, fuse)
    if rule == "fused":
        return fused
    pick = {"one_hot": labels_hot, "teacher": teacher_clean, "fused": fused}
    mask = inner_mask(teacher_clean, labels)
    return np.where(mask[..., None], pick[assign.inner], pick[assign.outer])


def distillation_batch(
    teacher_params: np.ndarray,
    spec: NetworkSpec,
    batch: np.ndarray,
    labels: np.ndarray,
    norm_stats: NormStats,
    noise: NoiseSpec,
    fuse: FuseConfig,
    weight: float | np.ndarray,
    assign: LabelAssignment,
    rng: np.random.Generator | list[np.random.Generator] | None,
) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """Student rows, their fixed targets and per-row loss scales for one
    minibatch of n samples.

    The clean rows come first, with scale 1/n. With weight > 0 the
    noise-perturbed rows follow, with scale weight/n and the teacher's
    predictions as targets, so one student pass covers both loss terms;
    the teacher sees the same stacked rows in one forward. With weight 0
    no noise is drawn and the scale is the number 1/n, exactly what a
    one-hot minibatch uses, which is what makes the fine-tuning collapse
    ablation bitwise. The noise comes from `rng`, or from noise.seed when
    rng is None (see perturb_inputs).

    A stack of teachers (M, P) takes one number for all models, or arrays
    of one value per model: noise.delta (see NoiseSpec) and weight (M,),
    whose weights must then all be > 0. The rows, targets and scales get a
    leading model axis where they differ between models, and each model
    gets the bits it would get alone. A stack may also take one minibatch
    per model: batch (M, n, d), labels (M, n), norm stats (M, 1, d) and one
    generator per model (see perturb_inputs).
    """
    per_model = isinstance(weight, np.ndarray)  # a stack's weights, all > 0
    if not per_model and weight < 0:
        raise ValueError(f"distillation weight must be >= 0, got {weight}")
    x = np.asarray(batch, dtype=np.float64)
    labels = np.asarray(labels)
    n = x.shape[-2]
    distilling = per_model or weight != 0.0
    rows = x
    if distilling:
        perturbed = perturb_inputs(x, norm_stats, noise, rng=rng)
        rows = np.empty(perturbed.shape[:-2] + (2 * n, x.shape[-1]))
        rows[..., :n, :] = x
        rows[..., n:, :] = perturbed
    needs_clean = assign.uniform_rule != "one_hot"
    teacher = None
    if needs_clean or distilling:
        teacher, _ = forward(teacher_params, spec, rows if needs_clean else rows[..., n:, :])
    labels_hot = one_hot(labels.ravel(), spec.num_classes).reshape(labels.shape + (-1,))
    clean = _clean_targets(labels_hot, teacher[..., :n, :] if needs_clean else None, labels,
                           fuse, assign)
    if not distilling:
        return rows, clean, 1.0 / n
    targets = np.empty(rows.shape[:-1] + (spec.num_classes,))
    targets[..., :n, :] = clean
    targets[..., n:, :] = teacher[..., -n:, :]
    scale = np.empty(rows.shape[:-1] + (1,))
    scale[..., :n, :] = 1.0 / n
    scale[..., n:, :] = (weight[:, None, None] if per_model else weight) / n
    return rows, targets, scale


def distillation_loss(
    student_params: np.ndarray,
    teacher_params: np.ndarray,
    spec: NetworkSpec,
    batch: np.ndarray,
    labels: np.ndarray,
    norm_stats: NormStats,
    noise: NoiseSpec,
    fuse: FuseConfig,
    weight: float,
    assign: LabelAssignment | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[DistillLossTerms, np.ndarray]:
    """Combined loss and its gradient with respect to the student only.

    learn_term:   mean cross-entropy between fused targets and student
                  predictions on the clean batch.
    distill_term: mean cross-entropy between teacher and student
                  predictions on the noise-perturbed batch.
    total:        learn_term + weight * distill_term.

    Teacher outputs are constants; the returned gradient has student
    length and no component for teacher parameters. When weight is 0 the
    perturbed pass is skipped entirely (no noise is drawn), which is what
    makes the fine-tuning collapse ablation exact. The phase loop trains
    through the same distillation_batch and Trainer.loss_rows.
    """
    rows, targets, scale = distillation_batch(
        teacher_params, spec, batch, labels, norm_stats, noise, fuse, weight,
        assign or LabelAssignment(), rng,
    )
    trainer = Trainer(np.asarray(student_params, dtype=np.float64), spec)
    losses = trainer.loss_rows(rows, targets, scale)
    return DistillLossTerms.from_rows(losses, len(labels), weight), trainer.grad
