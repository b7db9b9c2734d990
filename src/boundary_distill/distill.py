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

from .data import NormStats, row_blocks, take_rows
from .network import NetworkSpec, Trainer, _probabilities, one_hot, softmax, unpack_params

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
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not np.all(np.greater(self.delta, 0) & np.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")


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
        if not 0 < self.tau < np.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
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
        """Terms from the per-row losses of DistillBatches.build's rows: n
        clean rows, then the perturbed rows, if any. For a stack's losses
        (M, rows) and weights (M,), each term holds one value per model.
        Each mean is the sum over the rows divided by their count, the
        arithmetic of ndarray.mean without its dispatch."""
        distill = 0.0
        if losses.shape[-1] > n:
            distill = np.add.reduce(losses[..., n:], axis=-1) / (losses.shape[-1] - n)
        return cls(learn_term=np.add.reduce(losses[..., :n], axis=-1) / n, distill_term=distill,
                   weight=weight)


def fuse_labels_batch(labels_one_hot: np.ndarray, teacher_probs: np.ndarray, config: FuseConfig) -> np.ndarray:
    """Row-wise fusion of one-hot labels (B, classes) with teacher
    predictions (B, classes), or with a stack of them (M, B, classes); or
    of one label batch per model (M, B, classes) with the stack's
    predictions (M, B, classes). Any label array that broadcasts to the
    predictions' shape is taken, such as labels (B, 1, classes) against
    batch-major predictions (B, M, classes)."""
    y = np.asarray(labels_one_hot, dtype=np.float64)
    p = np.asarray(teacher_probs, dtype=np.float64)
    if (y.ndim not in (2, 3) or p.ndim not in (2, 3) or y.ndim > p.ndim
            or any(a not in (b, 1) for a, b in zip(y.shape[::-1], p.shape[::-1]))
            or y.shape[-1] != p.shape[-1]):
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
) -> np.ndarray:
    """Normalize the batch and add elementwise Gaussian noise.

    Normalization subtracts norm_stats.mean and divides by norm_stats.std
    per feature (stats must come from the base-phase training data). The
    result is NOT clipped to the data range: points escaping the data
    manifold are the point of the exercise.

    Draws come from `rng` when given, else from a fresh generator seeded
    with noise.seed. The noise is mu + delta * z for one standard-normal
    draw z, which is how Generator.normal computes it, so an array of
    deltas (a stack) gives each model the bits it would get alone, with
    shape (M, n, d).

    A stack of S models with one batch each takes batches (S, n, d), norm
    stats shaped (S, 1, d) and one generator per model in `rng`; model s
    draws its (n, d) noise from rng[s], as it would alone.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ValueError("batch must be 2-d, or 3-d for one batch per model")
    return _normalized(x, norm_stats) + _noise(x.shape, noise, rng)


def _normalized(x: np.ndarray, norm_stats: NormStats) -> np.ndarray:
    """(x - mean) / std, with 1.0 for (and a warning about) any zero std."""
    std = np.asarray(norm_stats.std, dtype=np.float64)
    if (std == 0).any():
        warnings.warn(
            f"{int((std == 0).sum())} feature(s) have zero std; using 1.0 for them",
            RuntimeWarning,
            stacklevel=3,
        )
        std = np.where(std == 0, 1.0, std)
    return (x - np.asarray(norm_stats.mean, dtype=np.float64)) / std


def _noise(
    shape: tuple[int, ...],
    noise: NoiseSpec,
    rng: np.random.Generator | list[np.random.Generator] | None,
) -> np.ndarray:
    """mu + delta * z for a standard-normal draw z of `shape`: from `rng`,
    from noise.seed when rng is None, or, for a shape (S, n, d), from one
    generator per model (see perturb_inputs)."""
    if rng is None:
        rng = np.random.default_rng(noise.seed)
    if isinstance(rng, np.random.Generator):
        z = rng.standard_normal(shape)
    else:
        z = np.empty(shape)
        for draws, model_rng in zip(z, rng, strict=True):
            model_rng.standard_normal(out=draws)
    return noise.mu + noise.delta * z


def inner_mask(teacher_probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Boolean mask of rows where the teacher already predicts the label
    (inner rows); the rest are outer. Ties in the teacher's prediction
    resolve to the lowest class index (numpy argmax convention). A stack
    of predictions (M, B, classes) gives one mask per model (M, B)."""
    return np.argmax(teacher_probs, axis=-1) == np.asarray(labels)


class DistillBatches:
    """Student rows, their fixed targets and per-row loss scales for the
    minibatches of one phase: the inputs that do not change within it are
    built once, here, and `build` fills in one minibatch.

    `features` (R, d) and `labels` (R,) are the rows of every lane (see
    protocol._stacked); a minibatch takes rows idx (n,) of one lane, or
    idx (n, S), one column of indices per lane. The norm stats are (d,),
    or (S, 1, d) for S lanes of equal length, and the phase is normalized
    and its labels one-hot encoded once.

    The rows, targets and scales are batch-major, as network.Trainer takes
    them. The clean rows come first, with scale 1/n. With weight > 0 the
    noise-perturbed rows follow, with scale weight/n and the teacher's
    predictions as targets, so one student pass covers both loss terms;
    the teacher sees the same stacked rows in one pass, through layer
    views made once per teacher array, so once per consolidation event.
    With weight 0 no noise is drawn and the scale is the number 1/n,
    exactly what a one-hot minibatch uses, which is what makes the
    fine-tuning collapse ablation bitwise. The noise comes from `rng`, or
    from noise.seed when rng is None (see perturb_inputs).

    A stack of teachers (M, P) takes one number for all models, or arrays
    of one value per model: noise.delta (see NoiseSpec) and weight (M,),
    whose weights must then all be > 0. The rows, targets and scales get a
    model axis after the row axis where they differ between models, and
    each model gets the bits it would get alone. With weight > 0 they live
    in buffers allocated once per batch width and refilled by every
    `build`, so they are valid until the next one.
    """

    def __init__(
        self,
        spec: NetworkSpec,
        features: np.ndarray,
        labels: np.ndarray,
        norm_stats: NormStats,
        noise: NoiseSpec,
        fuse: FuseConfig,
        weight: float | np.ndarray,
        assign: LabelAssignment,
    ):
        per_model = isinstance(weight, np.ndarray)  # a stack's weights, all > 0
        if not per_model and weight < 0:
            raise ValueError(f"distillation weight must be >= 0, got {weight}")
        self.spec, self.noise, self.fuse, self.assign = spec, noise, fuse, assign
        self.weight = weight
        features = np.asarray(features, dtype=np.float64)
        self.width = features.shape[-1]
        self.feature_rows = row_blocks(features)
        self.labels = np.asarray(labels)
        self.hot_rows = row_blocks(one_hot(self.labels, spec.num_classes))
        self.distilling = per_model or weight != 0.0
        self.needs_clean = assign.uniform_rule != "one_hot"
        self.normalized_rows = None
        if self.distilling:
            lanes = np.shape(norm_stats.mean)[:-2] or (1,)
            by_lane = features.reshape(lanes + (-1, self.width))
            self.normalized_rows = row_blocks(
                _normalized(by_lane, norm_stats).reshape(features.shape))
        self._buffers: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._teacher: tuple[np.ndarray | None, list] = (None, [])

    def build(
        self,
        teacher_params: np.ndarray,
        idx: np.ndarray,
        rng: np.random.Generator | list[np.random.Generator] | None,
    ) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
        """Rows, targets and scales of the minibatch of rows `idx`, with the
        teacher `teacher_params` and the noise of `rng` (one generator per
        lane for idx (n, S))."""
        if teacher_params is not self._teacher[0]:
            self._teacher = teacher_params, unpack_params(teacher_params, self.spec)
        n = idx.shape[0]
        # one lane serving a stack of teachers: the lane axis broadcasts
        lane = idx[:, None] if idx.ndim == 1 and teacher_params.ndim == 2 else idx
        if not self.distilling:
            x = take_rows(self.feature_rows, idx)
            teacher = self._teacher_pass(x) if self.needs_clean else None
            return x, self._clean_targets(lane, teacher), 1.0 / n
        # each lane draws its noise (n, d) as it would alone; with an array
        # of deltas the noise has one (n, d) block per model
        noise = _noise((*idx.shape[1:], n, self.width), self.noise, rng)
        rows, targets, scale = self._buffers_for((n, *noise.shape[:-2]))
        rows[:n] = take_rows(self.feature_rows, lane)
        np.add(take_rows(self.normalized_rows, lane), noise.swapaxes(0, -2),
               out=rows[n:])  # batch-major
        if self.needs_clean:
            teacher = self._teacher_pass(rows)
            targets[:n] = self._clean_targets(lane, teacher[:n])
        else:
            teacher = self._teacher_pass(rows[n:])
            targets[:n] = self._clean_targets(lane, None)
        targets[n:] = teacher[-n:]
        return rows, targets, scale

    def _teacher_pass(self, rows: np.ndarray) -> np.ndarray:
        """The teacher's probabilities of batch-major rows."""
        return _probabilities(self._teacher[1], self.spec.activation, rows)

    def _clean_targets(self, idx: np.ndarray, teacher_clean: np.ndarray | None) -> np.ndarray:
        """Learning targets of the clean rows idx (teacher_clean is None
        only for the one-hot rule, which needs no teacher)."""
        labels_hot = take_rows(self.hot_rows, idx)
        rule = self.assign.uniform_rule
        if rule == "one_hot":
            return labels_hot
        if rule == "teacher":
            return teacher_clean
        fused = fuse_labels_batch(labels_hot, teacher_clean, self.fuse)
        if rule == "fused":
            return fused
        pick = {"one_hot": labels_hot, "teacher": teacher_clean, "fused": fused}
        mask = inner_mask(teacher_clean, self.labels[idx])
        return np.where(mask[..., None], pick[self.assign.inner], pick[self.assign.outer])

    def _buffers_for(self, key: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows, targets and scale buffers of minibatches of n rows
        with model axes `models`, for key (n, *models); the scale column is
        filled here, once."""
        if key not in self._buffers:
            n, *models = key
            rows = np.empty((2 * n, *models, self.width))
            targets = np.empty((2 * n, *models, self.spec.num_classes))
            scale = np.empty((2 * n, *models, 1))
            scale[:n] = 1.0 / n
            weight = self.weight
            scale[n:] = (weight[:, None] if isinstance(weight, np.ndarray) else weight) / n
            self._buffers[key] = rows, targets, scale
        return self._buffers[key]


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
    through the same DistillBatches and Trainer.loss_rows.
    """
    batches = DistillBatches(spec, batch, labels, norm_stats, noise, fuse, weight,
                             assign or LabelAssignment())
    rows, targets, scale = batches.build(teacher_params, np.arange(len(labels)), rng)
    trainer = Trainer(np.asarray(student_params, dtype=np.float64), spec)
    losses = trainer.loss_rows(rows, targets, scale)
    return DistillLossTerms.from_rows(losses, len(labels), weight), trainer.grad
