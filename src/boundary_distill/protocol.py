"""Instance-incremental benchmark protocol and training strategies.

The setting: a model meets a large base pool once, then a sequence of small
same-class-space increments. The model architecture never changes; only
parameters move. Per phase we evaluate on a fixed test pool and on the base
split (the latter is what exposes forgetting).

Strategies:

* ``boundary_distill`` - the contributed method: per-batch fused-label +
  noisy-input distillation loss on a student, with the teacher consolidated
  on a sparse epoch schedule; the teacher is the phase's outgoing model.
* ``fine_tune``        - short one-hot training of the previous model.
* ``vanilla_distill``  - classic exemplar distillation: 10% of the phase
  pool is re-labeled by the previous model and replayed half-and-half with
  one-hot batches; the student is the outgoing model.
* ``full_data``        - retrains from scratch on everything seen so far
  (upper-bound oracle, not an incremental method).
"""

from __future__ import annotations

import json
import hashlib
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .consolidation import (
    ConsolidationSchedule,
    EmaState,
    adaptive_momentum,
    consolidate,
    history_text,
    should_consolidate,
)
from .data import (
    Dataset,
    NormStats,
    SyntheticSpec,
    compute_norm_stats,
    gen_base,
    gen_phase,
    gen_test,
    standardize,
)
from .distill import DistillLossTerms, FuseConfig, LabelAssignment, NoiseSpec, distillation_batch
from .metrics import MetricsRecord, PhaseAccuracy, accuracy, forgetting_rate, performance_promotion
from .network import NetworkSpec, Trainer, forward, init_network, one_hot
from .seeding import derive_seed, rng_for

STRATEGIES = ("boundary_distill", "fine_tune", "vanilla_distill", "full_data")


@dataclass(frozen=True)
class IILBenchmark:
    """Base pool, ordered phase pools, fixed test pool, fixed class space.

    Phases must be pairwise disjoint and small relative to the base pool
    (each at most max_phase_fraction of it). Every class must appear in the
    base pool: the class space is fixed before increments begin.
    """

    base: Dataset
    phases: tuple[Dataset, ...]
    test: Dataset
    num_classes: int
    max_phase_fraction: float = 0.2

    def __post_init__(self) -> None:
        # Zero phases is legal: the run then consists of the base model only.
        object.__setattr__(self, "phases", tuple(self.phases))
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        for name, split in (("base", self.base), ("test", self.test), *(
            (f"phase {t}", p) for t, p in enumerate(self.phases, start=1)
        )):
            if len(split) == 0:
                raise ValueError(f"{name} split is empty")
            if split.labels.max() >= self.num_classes:
                raise ValueError(
                    f"{name} split contains label {split.labels.max()} "
                    f">= num_classes {self.num_classes}"
                )
            if split.dim != self.base.dim:
                raise ValueError(f"{name} split dimensionality differs from base")
        present = np.unique(self.base.labels)
        missing = sorted(set(range(self.num_classes)) - set(int(c) for c in present))
        if missing:
            raise ValueError(f"classes {missing} missing from the base split")
        cap = self.max_phase_fraction * len(self.base)
        for t, p in enumerate(self.phases, start=1):
            if len(p) > cap:
                raise ValueError(
                    f"phase {t} has {len(p)} samples, more than "
                    f"{self.max_phase_fraction:.0%} of the base pool ({len(self.base)})"
                )
        seen: set[bytes] = set()
        for t, p in enumerate(self.phases, start=1):
            for row, label in zip(p.features, p.labels):
                key = row.tobytes() + bytes([int(label) & 0xFF])
                if key in seen:
                    raise ValueError(f"phase {t} shares a sample with an earlier phase")
                seen.add(key)

    @property
    def num_phases(self) -> int:
        return len(self.phases)


@dataclass(frozen=True)
class RunConfig:
    """Everything a single run needs besides the data.

    lr_incremental defaults to a tenth of lr_base (the decayed rate used
    for every incremental phase); fine-tuning always runs
    fine_tune_epochs, every other strategy runs epochs_per_phase.
    """

    strategy: str = "boundary_distill"
    epochs_per_phase: int = 60
    lr_base: float = 0.2
    lr_incremental: float | None = None
    batch_size: int = 64
    fuse: FuseConfig = field(default_factory=FuseConfig)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    distill_weight: float = 0.1
    sched: ConsolidationSchedule = field(default_factory=ConsolidationSchedule)
    assign: LabelAssignment = field(default_factory=LabelAssignment)
    fine_tune_epochs: int = 10
    exemplar_fraction: float = 0.1
    hidden_layers: tuple[int, ...] = (16,)
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; pick from {STRATEGIES}")
        if self.epochs_per_phase < 1:
            raise ValueError(f"epochs_per_phase must be >= 1, got {self.epochs_per_phase}")
        if self.fine_tune_epochs < 0:
            raise ValueError(f"fine_tune_epochs must be >= 0, got {self.fine_tune_epochs}")
        if not self.lr_base > 0:
            raise ValueError(f"lr_base must be positive, got {self.lr_base}")
        if self.lr_incremental is not None and not self.lr_incremental > 0:
            raise ValueError(f"lr_incremental must be positive, got {self.lr_incremental}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.distill_weight < 0:
            raise ValueError(f"distill_weight must be >= 0, got {self.distill_weight}")
        if not 0.0 <= self.exemplar_fraction <= 1.0:
            raise ValueError(f"exemplar_fraction must lie in [0, 1], got {self.exemplar_fraction}")
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))

    @property
    def lr_incremental_resolved(self) -> float:
        return self.lr_incremental if self.lr_incremental is not None else 0.1 * self.lr_base

    def network_spec(self, input_dim: int, num_classes: int) -> NetworkSpec:
        return NetworkSpec((input_dim, *self.hidden_layers, num_classes), self.activation)

    def digest(self) -> str:
        """Stable hash of the full configuration (for record identity)."""
        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PhaseContext:
    """Run-time surroundings of one phase: the network spec, norm stats
    frozen from the base split, both evaluation splits, the phase index,
    and this phase's derived seed."""

    net_spec: NetworkSpec
    norm_stats: NormStats
    test_set: Dataset
    base_set: Dataset
    phase_index: int
    seed: int


@dataclass(frozen=True)
class PhaseResult:
    """Outcome of one phase: the outgoing model and its accuracies.

    For the distillation strategy the outgoing model is the teacher;
    student_model/student_acc_test keep the student visible for
    teacher-vs-student comparisons. ema_history records (epoch, alpha)
    per consolidation.
    """

    phase_index: int
    model: np.ndarray
    acc_test: float
    acc_base: float
    wall_time: float
    student_model: np.ndarray | None = None
    student_acc_test: float | None = None
    loss_history: tuple[float, ...] = ()
    ema_history: tuple[tuple[int, float], ...] = ()


# --- benchmark assembly -----------------------------------------------------


def split_benchmark(
    dataset: Dataset,
    base_fraction: float,
    num_phases: int,
    seed: int,
    imbalance: str = "uniform_random",
    test: Dataset | None = None,
    dirichlet_alpha: float = 5.0,
) -> IILBenchmark:
    """Partition a labeled dataset into base + phase pools.

    The base pool gets round(base_fraction * n) samples and is guaranteed
    to contain every class; the remainder is divided over num_phases pools
    that exactly partition it. ``uniform_random`` chops a shuffled
    remainder into near-equal parts; ``dirichlet`` draws per-class phase
    proportions from Dirichlet(alpha), producing class-imbalanced phases
    like real-world increments. The test pool cannot come out of the input
    (base + phases must partition it), so it is passed in explicitly.
    """
    if not 0.0 < base_fraction < 1.0:
        raise ValueError(f"base_fraction must lie in (0, 1), got {base_fraction}")
    if num_phases < 1:
        raise ValueError(f"num_phases must be >= 1, got {num_phases}")
    if imbalance not in ("uniform_random", "dirichlet"):
        raise ValueError(f"unknown imbalance scheme {imbalance!r}")
    if test is None:
        raise ValueError("a separate test dataset is required (the input is fully "
                         "partitioned into base + phases)")
    n = len(dataset)
    num_classes = int(dataset.labels.max()) + 1
    for c in range(num_classes):
        if not (dataset.labels == c).any():
            raise ValueError(f"class {c} missing from the dataset")
    base_size = round(base_fraction * n)
    if base_size < num_classes:
        raise ValueError(
            f"base split of {base_size} cannot cover {num_classes} classes"
        )
    remainder_size = n - base_size
    if remainder_size < num_phases:
        raise ValueError(
            f"remainder of {remainder_size} cannot fill {num_phases} phases"
        )

    rng = rng_for(seed, "split")
    perm = rng.permutation(n)
    guaranteed: list[int] = []
    rest: list[int] = []
    seen: set[int] = set()
    for idx in perm:
        label = int(dataset.labels[idx])
        if label not in seen:
            seen.add(label)
            guaranteed.append(int(idx))
        else:
            rest.append(int(idx))
    fill = base_size - len(guaranteed)
    base_idx = np.array(guaranteed + rest[:fill], dtype=np.int64)
    remainder = np.array(rest[fill:], dtype=np.int64)

    if imbalance == "uniform_random":
        phase_parts = [p for p in np.array_split(remainder, num_phases)]
    else:
        phase_lists: list[list[int]] = [[] for _ in range(num_phases)]
        for c in range(num_classes):
            class_idx = remainder[dataset.labels[remainder] == c]
            weights = rng.dirichlet(np.full(num_phases, dirichlet_alpha))
            counts = _largest_remainder(weights, len(class_idx))
            start = 0
            for p, count in enumerate(counts):
                phase_lists[p].extend(int(i) for i in class_idx[start : start + count])
                start += count
        phase_parts = [np.array(lst, dtype=np.int64) for lst in phase_lists]

    return IILBenchmark(
        base=dataset.subset(base_idx),
        phases=tuple(dataset.subset(p) for p in phase_parts),
        test=test,
        num_classes=num_classes,
    )


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Round weights * total to integers that sum to total exactly."""
    raw = weights * total
    counts = np.floor(raw).astype(np.int64)
    shortfall = total - int(counts.sum())
    if shortfall:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:shortfall]] += 1
    return counts


def drift_benchmark(spec: SyntheticSpec, num_phases: int, test_per_class: int = 50) -> IILBenchmark:
    """Assemble the synthetic drifting benchmark from its generators."""
    return IILBenchmark(
        base=gen_base(spec),
        phases=tuple(gen_phase(spec, t) for t in range(1, num_phases + 1)),
        test=gen_test(spec, num_phases, test_per_class),
        num_classes=spec.num_classes,
    )


def standardized_benchmark(bench: IILBenchmark) -> tuple[IILBenchmark, NormStats]:
    """Benchmark with every split standardized by base-split statistics.

    Models always consume this space; the returned stats describe the raw
    -> model-space map (frozen from the base split, per the normalization
    contract).
    """
    stats = compute_norm_stats(bench.base)

    def _tx(ds: Dataset) -> Dataset:
        return Dataset(standardize(ds.features, stats), ds.labels.copy())

    transformed = IILBenchmark(
        base=_tx(bench.base),
        phases=tuple(_tx(p) for p in bench.phases),
        test=_tx(bench.test),
        num_classes=bench.num_classes,
        max_phase_fraction=bench.max_phase_fraction,
    )
    return transformed, stats


# --- training loops ---------------------------------------------------------


def _minibatch_slices(order: np.ndarray, batch_size: int) -> list[np.ndarray]:
    return [order[i : i + batch_size] for i in range(0, order.size, batch_size)]


def _epoch_loss(batch_losses: list[float], where: str, epoch: int) -> float:
    """Mean minibatch loss of one epoch. A non-finite mean means training
    diverged; it stops the run instead of letting it write a record."""
    loss = float(np.mean(batch_losses))
    if not np.isfinite(loss):
        raise FloatingPointError(f"{where}, epoch {epoch}: mean loss {loss} is not finite")
    return loss


def _fit_from_scratch(
    dataset: Dataset,
    spec: NetworkSpec,
    config: RunConfig,
    epochs: int,
    where: str,
) -> tuple[np.ndarray, tuple[float, ...]]:
    """Fresh init + one-hot cross-entropy SGD at the base learning rate.

    Used for the base model and for every full-data retrain; both pull
    from the same derived streams, so retraining on the base pool alone
    reproduces the base model bit for bit.
    """
    params = init_network(spec, derive_seed(config.seed, "init"))
    shuffle_rng = rng_for(config.seed, "base-train", "shuffle")
    return _sgd_one_hot(params, dataset, spec, config.lr_base, epochs,
                        config.batch_size, shuffle_rng, where)


def _sgd_one_hot(
    params: np.ndarray,
    dataset: Dataset,
    spec: NetworkSpec,
    lr: float,
    epochs: int,
    batch_size: int,
    shuffle_rng: np.random.Generator,
    where: str,
) -> tuple[np.ndarray, tuple[float, ...]]:
    """One-hot SGD that updates `params` in place; `where` names the
    strategy and phase in a divergence error."""
    targets_all = one_hot(dataset.labels, spec.num_classes)
    trainer = Trainer(params, spec)
    history = []
    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(len(dataset))
        batch_losses = []
        for idx in _minibatch_slices(order, batch_size):
            losses = trainer.step(dataset.features[idx], targets_all[idx], 1.0 / idx.size, lr)
            batch_losses.append(losses.mean())
        history.append(_epoch_loss(batch_losses, where, epoch))
    return params, tuple(history)


def train_base(bench: IILBenchmark, config: RunConfig, epochs: int | None = None) -> np.ndarray:
    """Base model: from-scratch one-hot training on the base split.

    epochs=0 returns the untouched initialization (loop-bound edge).
    """
    resolved = config.epochs_per_phase if epochs is None else epochs
    if resolved < 0:
        raise ValueError(f"epochs must be >= 0, got {resolved}")
    spec = config.network_spec(bench.base.dim, bench.num_classes)
    params, _ = _fit_from_scratch(bench.base, spec, config, resolved, "base training, phase 0")
    return params


def _phase_result(
    ctx: PhaseContext,
    start: float,
    model: np.ndarray,
    student: np.ndarray,
    loss_history: tuple[float, ...],
    ema_history: tuple[tuple[int, float], ...],
) -> PhaseResult:
    """Evaluate the outgoing model (and the student, when it is another
    array) and package the phase, timed from `start`."""
    acc_test = accuracy(model, ctx.net_spec, ctx.test_set)
    acc_base = accuracy(model, ctx.net_spec, ctx.base_set)
    return PhaseResult(
        phase_index=ctx.phase_index,
        model=model,
        acc_test=acc_test,
        acc_base=acc_base,
        wall_time=time.perf_counter() - start,
        student_model=student,
        student_acc_test=(
            acc_test if student is model else accuracy(student, ctx.net_spec, ctx.test_set)
        ),
        loss_history=loss_history,
        ema_history=ema_history,
    )


def run_phase_boundary_distill(
    model_prev: np.ndarray,
    phase_data: Dataset,
    config: RunConfig,
    ctx: PhaseContext,
) -> PhaseResult:
    """One incremental phase of the contributed method.

    Teacher and student both start from the incoming model. Every
    minibatch the student descends the combined loss (fused targets from
    the *current* teacher on clean inputs + teacher matching on perturbed
    inputs); the teacher absorbs the student on the consolidation
    schedule. The teacher is the phase's outgoing model (the student is
    returned alongside when the schedule mode is "off", which is the
    fine-tuning collapse ablation).
    """
    start = time.perf_counter()
    spec = ctx.net_spec
    student = np.array(model_prev, dtype=np.float64, copy=True)
    trainer = Trainer(student, spec)
    state = EmaState(teacher=student.copy())
    lr = config.lr_incremental_resolved
    weight = config.distill_weight
    shuffle_rng = rng_for(ctx.seed, "shuffle")
    mode = config.sched.mode
    where = f"boundary_distill, phase {ctx.phase_index}"

    history = []
    for epoch in range(1, config.epochs_per_phase + 1):
        order = shuffle_rng.permutation(len(phase_data))
        batch_losses = []
        for bi, idx in enumerate(_minibatch_slices(order, config.batch_size)):
            rows, targets, scale = distillation_batch(
                state.teacher,
                spec,
                phase_data.features[idx],
                phase_data.labels[idx],
                ctx.norm_stats,
                config.noise,
                config.fuse,
                weight,
                config.assign,
                np.random.default_rng(derive_seed(ctx.seed, "noise", epoch, bi)),
            )
            losses = trainer.step(rows, targets, scale, lr)
            batch_losses.append(DistillLossTerms.from_rows(losses, idx.size, weight).total)
            if mode == "per_iteration":
                state = consolidate(state, student, config.sched.alpha0, epoch=epoch)
        history.append(_epoch_loss(batch_losses, where, epoch))
        if mode == "scheduled" and should_consolidate(epoch, config.sched):
            alpha = adaptive_momentum(epoch, config.sched)
            state = consolidate(state, student, alpha, epoch=epoch)

    outgoing = student if mode == "off" else state.teacher
    return _phase_result(ctx, start, outgoing, student, tuple(history), state.history)


def run_phase_fine_tune(
    model_prev: np.ndarray,
    phase_data: Dataset,
    config: RunConfig,
    ctx: PhaseContext,
    epochs: int | None = None,
) -> PhaseResult:
    """Baseline: short one-hot training of the incoming model at the
    incremental rate. epochs=0 returns the incoming model evaluated."""
    start = time.perf_counter()
    resolved = config.fine_tune_epochs if epochs is None else epochs
    if resolved < 0:
        raise ValueError(f"epochs must be >= 0, got {resolved}")
    params = np.array(model_prev, dtype=np.float64, copy=True)
    params, history = _sgd_one_hot(
        params,
        phase_data,
        ctx.net_spec,
        config.lr_incremental_resolved,
        resolved,
        config.batch_size,
        rng_for(ctx.seed, "shuffle"),
        f"fine_tune, phase {ctx.phase_index}",
    )
    return _phase_result(ctx, start, params, params, history, ())


def run_phase_vanilla_distill(
    model_prev: np.ndarray,
    phase_data: Dataset,
    config: RunConfig,
    ctx: PhaseContext,
) -> PhaseResult:
    """Baseline: exemplar distillation with balanced mini-batches.

    A seeded 10% subset of the phase pool is scored once by the frozen
    incoming model; every batch is half exemplars (matched against those
    scores) and half fresh samples (one-hot). The student is the outgoing
    model; nothing is consolidated.
    """
    start = time.perf_counter()
    spec = ctx.net_spec
    teacher = np.asarray(model_prev, dtype=np.float64)
    student = np.array(model_prev, dtype=np.float64, copy=True)
    n = len(phase_data)
    ex_count = round(config.exemplar_fraction * n)
    ex_rng = rng_for(ctx.seed, "exemplars")
    ex_idx = ex_rng.choice(n, size=ex_count, replace=False) if ex_count else np.empty(0, np.int64)
    rem_mask = np.ones(n, dtype=bool)
    rem_mask[ex_idx] = False
    rem_idx = np.flatnonzero(rem_mask)

    teacher_scores = (
        forward(teacher, spec, phase_data.features[ex_idx])[0] if ex_count else None
    )
    onehot_all = one_hot(phase_data.labels, spec.num_classes)
    lr = config.lr_incremental_resolved
    shuffle_rng = rng_for(ctx.seed, "shuffle")
    ex_order_rng = rng_for(ctx.seed, "exemplar-shuffle")

    half_ex = config.batch_size // 2 if rem_idx.size else config.batch_size
    rem_per_batch = max(config.batch_size - half_ex, 1)

    trainer = Trainer(student, spec)
    where = f"vanilla_distill, phase {ctx.phase_index}"
    history = []
    for epoch in range(1, config.epochs_per_phase + 1):
        batch_losses = []
        if rem_idx.size:
            rem_order = shuffle_rng.permutation(rem_idx.size)
            rem_batches = _minibatch_slices(rem_order, rem_per_batch)
        else:
            num_batches = -(-ex_count // config.batch_size)
            rem_batches = [np.empty(0, np.int64)] * num_batches
        ex_stream = _cycled_order(ex_count, half_ex * len(rem_batches), ex_order_rng)
        cursor = 0
        for rem_pos in rem_batches:
            feats = []
            targets = []
            if ex_count:
                take = ex_stream[cursor : cursor + half_ex]
                cursor += half_ex
                feats.append(phase_data.features[ex_idx[take]])
                targets.append(teacher_scores[take])
            if rem_pos.size:
                rows = rem_idx[rem_pos]
                feats.append(phase_data.features[rows])
                targets.append(onehot_all[rows])
            batch = np.concatenate(feats)
            losses = trainer.step(batch, np.concatenate(targets), 1.0 / batch.shape[0], lr)
            batch_losses.append(losses.mean())
        history.append(_epoch_loss(batch_losses, where, epoch))

    return _phase_result(ctx, start, student, student, tuple(history), ())


def _cycled_order(pool: int, needed: int, rng: np.random.Generator) -> np.ndarray:
    """Concatenated permutations of range(pool) covering `needed` draws."""
    if pool == 0 or needed == 0:
        return np.empty(0, dtype=np.int64)
    chunks = []
    have = 0
    while have < needed:
        chunks.append(rng.permutation(pool))
        have += pool
    return np.concatenate(chunks)[:needed]


def run_phase_full_data(
    accumulated: Dataset,
    config: RunConfig,
    ctx: PhaseContext,
) -> PhaseResult:
    """Oracle: from-scratch training on everything seen up to this phase.

    Identical procedure (init stream, shuffle stream, base rate) to
    train_base; with the base pool alone it reproduces the base model.
    """
    start = time.perf_counter()
    params, history = _fit_from_scratch(
        accumulated, ctx.net_spec, config, config.epochs_per_phase,
        f"full_data, phase {ctx.phase_index}",
    )
    return _phase_result(ctx, start, params, params, history, ())


# --- orchestration ----------------------------------------------------------


# RunConfig fields the base model depends on (see SeedSetup)
_BASE_FIELDS = ("seed", "hidden_layers", "activation", "lr_base", "epochs_per_phase", "batch_size")


@dataclass(frozen=True)
class SeedSetup:
    """The strategy-independent part of one seed's run, built once.

    Holds the model-space benchmark (every split standardized by base-split
    statistics), the norm stats of its base split, the network spec and the
    base model. The base model depends on the seed, the data, the
    architecture (hidden layers, activation), lr_base, epochs_per_phase and
    batch_size, and on nothing else: not on the strategy, not on any
    distillation knob. Every RunConfig that agrees with base_config on those
    fields therefore runs from the same setup. The base model is read-only;
    phase runners start from copies of it.
    """

    bench: IILBenchmark
    norm_stats: NormStats
    net_spec: NetworkSpec
    base_model: np.ndarray
    base_config: RunConfig
    base_seconds: float

    def context(self, phase_index: int) -> PhaseContext:
        """Surroundings of phase t; phases t >= 1 draw from their own
        derived seed, the base phase from the root seed."""
        seed = self.base_config.seed
        if phase_index:
            seed = derive_seed(seed, "phase", phase_index)
        return PhaseContext(
            self.net_spec, self.norm_stats, self.bench.test, self.bench.base, phase_index, seed
        )


def setup_seed(bench: IILBenchmark, config: RunConfig) -> SeedSetup:
    """Standardize the benchmark once (base-split statistics) and train the
    base model for config.seed."""
    model_space, _ = standardized_benchmark(bench)
    start = time.perf_counter()
    base_model = train_base(model_space, config)
    base_seconds = time.perf_counter() - start
    base_model.setflags(write=False)
    return SeedSetup(
        bench=model_space,
        norm_stats=compute_norm_stats(model_space.base),
        net_spec=config.network_spec(model_space.base.dim, model_space.num_classes),
        base_model=base_model,
        base_config=config,
        base_seconds=base_seconds,
    )


def run_phases(
    setup: SeedSetup,
    config: RunConfig,
    out_dir: str | Path | None,
) -> tuple[list[PhaseResult], MetricsRecord]:
    """Walk every phase of config.strategy from a shared seed setup.

    Phase 0 is the setup's base model; phase runners receive the
    model-space benchmark plus the stats of its base split, so the
    perturbation op's contract holds verbatim. On a phase failure the
    partial record is flushed to out_dir (when given) before the exception
    propagates; a complete record replaces the partial one of an earlier run.
    """
    differing = [f for f in _BASE_FIELDS if getattr(config, f) != getattr(setup.base_config, f)]
    if differing:
        raise ValueError(f"config differs from the seed setup's in {differing}")
    bench = setup.bench
    model = setup.base_model
    # phase 0 is timed from the start of base training
    start = time.perf_counter() - setup.base_seconds
    results = [_phase_result(setup.context(0), start, model, model, (), ())]

    try:
        for t in range(1, bench.num_phases + 1):
            ctx = setup.context(t)
            phase_data = bench.phases[t - 1]
            if config.strategy == "boundary_distill":
                res = run_phase_boundary_distill(model, phase_data, config, ctx)
            elif config.strategy == "fine_tune":
                res = run_phase_fine_tune(model, phase_data, config, ctx)
            elif config.strategy == "vanilla_distill":
                res = run_phase_vanilla_distill(model, phase_data, config, ctx)
            else:
                accumulated = Dataset.concat([bench.base, *bench.phases[:t]])
                res = run_phase_full_data(accumulated, config, ctx)
            results.append(res)
            model = res.model
    except Exception:
        if out_dir is not None:
            partial = _record_from_results(results, config, partial=True)
            write_record_csv(partial, Path(out_dir))
        raise

    record = _record_from_results(results, config)
    if out_dir is not None:
        write_record_csv(record, Path(out_dir))
        _record_path(Path(out_dir), config.strategy + "(partial)", config.seed).unlink(missing_ok=True)
        if config.strategy == "boundary_distill":
            _write_consolidation_log(results, config, Path(out_dir))
    return results, record


def run_benchmark(
    bench: IILBenchmark,
    config: RunConfig,
    out_dir: str | Path | None = None,
) -> tuple[list[PhaseResult], MetricsRecord]:
    """Train the base model, walk every phase, measure, summarize.

    The seed setup plus the phase walk; to run several strategies or knob
    settings on one seed, build the setup once with setup_seed and call
    run_phases for each.
    """
    return run_phases(setup_seed(bench, config), config, out_dir)


def _record_from_results(
    results: list[PhaseResult], config: RunConfig, partial: bool = False
) -> MetricsRecord:
    per_phase = tuple(
        PhaseAccuracy(phase=r.phase_index, acc_test=r.acc_test, acc_base=r.acc_base)
        for r in results
    )
    if len(per_phase) >= 2:
        pp = performance_promotion([p.acc_test for p in per_phase])
        forgetting = forgetting_rate(per_phase[-1].acc_base, per_phase[0].acc_base)
    else:
        pp = float("nan")
        forgetting = float("nan")
    strategy = config.strategy + ("(partial)" if partial else "")
    return MetricsRecord(
        strategy=strategy,
        seed=config.seed,
        per_phase=per_phase,
        pp=pp,
        forgetting=forgetting,
        config_digest=config.digest(),
    )


def write_record_csv(record: MetricsRecord, out_dir: Path) -> Path:
    """One CSV per run: the canonical, byte-reproducible record format."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = _record_path(out_dir, record.strategy, record.seed)
    lines = ["strategy,seed,phase,acc_test,acc_base,pp,forgetting,config_digest"]
    for p in record.per_phase:
        lines.append(
            f"{record.strategy},{record.seed},{p.phase},{p.acc_test!r},{p.acc_base!r},"
            f"{record.pp!r},{record.forgetting!r},{record.config_digest}"
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def _record_path(out_dir: Path, strategy: str, seed: int) -> Path:
    return out_dir / f"record_{strategy.replace('(partial)', '_partial')}_seed{seed}.csv"


def _write_consolidation_log(results: list[PhaseResult], config: RunConfig, out_dir: Path) -> None:
    blocks = []
    for r in results:
        if r.ema_history:
            state = EmaState(teacher=r.model, n=len(r.ema_history), history=r.ema_history)
            blocks.append(f"phase={r.phase_index}\n" + history_text(state))
    if blocks:
        path = out_dir / f"consolidation_{config.strategy}_seed{config.seed}.txt"
        path.write_text("\n".join(blocks))
