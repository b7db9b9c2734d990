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

import functools
import itertools
import hashlib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .consolidation import (
    ConsolidationSchedule,
    EmaState,
    adaptive_momentum,
    consolidate,
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
    row_blocks,
    standardize,
    take_rows,
    write_atomic,
)
from .distill import DistillBatches, DistillLossTerms, FuseConfig, LabelAssignment, NoiseSpec
from .metrics import MetricsRecord, PhaseAccuracy, accuracy, forgetting_rate, performance_promotion
from .network import NetworkSpec, Trainer, forward, init_network, one_hot
from .seeding import PhaseStreams, derive_seed, rng_for

STRATEGIES = ("boundary_distill", "fine_tune", "vanilla_distill", "full_data")

# the largest phase, as a share of the base pool
MAX_PHASE_FRACTION = 0.2


@dataclass(frozen=True)
class IILBenchmark:
    """Base pool, ordered phase pools, fixed test pool, fixed class space.

    Phases must be pairwise disjoint and small relative to the base pool
    (each at most MAX_PHASE_FRACTION of it). Every class must appear in the
    base pool: the class space is fixed before increments begin.
    """

    base: Dataset
    phases: tuple[Dataset, ...]
    test: Dataset
    num_classes: int

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
        present = np.flatnonzero(np.bincount(self.base.labels))  # labels are >= 0
        missing = sorted(set(range(self.num_classes)) - set(int(c) for c in present))
        if missing:
            raise ValueError(f"classes {missing} missing from the base split")
        cap = MAX_PHASE_FRACTION * len(self.base)
        for t, p in enumerate(self.phases, start=1):
            if len(p) > cap:
                raise ValueError(
                    f"phase {t} has {len(p)} samples, more than "
                    f"{MAX_PHASE_FRACTION:.0%} of the base pool ({len(self.base)})"
                )
        if self.phases:
            # one void scalar per row: the bytes of its features and label
            samples = np.concatenate([np.column_stack((p.features.view(np.int64), p.labels))
                                      for p in self.phases])
            _, first, inverse = np.unique(samples.view(f"V{samples.shape[1] * 8}"),
                                          return_index=True, return_inverse=True)
            repeats = np.flatnonzero(first[inverse.reshape(-1)] != np.arange(len(samples)))
            if repeats.size:  # the first row whose sample came earlier
                t = np.searchsorted(np.cumsum([len(p) for p in self.phases]), repeats[0], "right")
                raise ValueError(f"phase {t + 1} shares a sample with an earlier phase")

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
        if not 0 < self.lr_base < np.inf:
            raise ValueError(f"lr_base must be positive and finite, got {self.lr_base}")
        if self.lr_incremental is not None and not 0 < self.lr_incremental < np.inf:
            raise ValueError(
                f"lr_incremental must be positive and finite, got {self.lr_incremental}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.distill_weight < np.inf:
            raise ValueError(f"distill_weight must be finite and >= 0, got {self.distill_weight}")
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
        import json  # here, so that a sweep, which writes no record, loads no json

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
    test: Dataset,
    imbalance: str = "uniform_random",
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
    check_split(base_fraction, num_phases, imbalance, dirichlet_alpha)
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
    # the first sample of each class in perm order is guaranteed a base slot
    first = np.zeros(n, dtype=bool)
    first[np.unique(dataset.labels[perm], return_index=True)[1]] = True
    rest = perm[~first]
    fill = base_size - num_classes
    base_idx = np.concatenate([perm[first], rest[:fill]])
    remainder = rest[fill:]

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


def check_split(base_fraction: float, num_phases: int, imbalance: str,
                dirichlet_alpha: float) -> None:
    """The checks of split_benchmark's arguments that need no data."""
    if not 0.0 < base_fraction < 1.0:
        raise ValueError(f"base_fraction must lie in (0, 1), got {base_fraction}")
    if num_phases < 1:
        raise ValueError(f"num_phases must be >= 1, got {num_phases}")
    if imbalance not in ("uniform_random", "dirichlet"):
        raise ValueError(f"unknown imbalance scheme {imbalance!r}")
    if not dirichlet_alpha > 0:
        raise ValueError(f"dirichlet_alpha must be positive, got {dirichlet_alpha}")


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


def standardized_benchmark(bench: IILBenchmark) -> IILBenchmark:
    """Benchmark with every split standardized by base-split statistics.

    Models always consume this space. The raw -> model-space map is frozen
    from the base split, per the normalization contract.
    """
    stats = compute_norm_stats(bench.base)

    def _tx(ds: Dataset) -> Dataset:
        return Dataset(standardize(ds.features, stats), ds.labels.copy())

    return IILBenchmark(base=_tx(bench.base), phases=tuple(_tx(p) for p in bench.phases),
                        test=_tx(bench.test), num_classes=bench.num_classes)


# --- training loops ---------------------------------------------------------


def _check_finite(model: np.ndarray, where: str) -> np.ndarray:
    """An outgoing model must be finite: the epoch losses are taken before
    each update, so they do not see the last one. Returns the model."""
    if not np.isfinite(model).all():
        raise FloatingPointError(f"{where}: outgoing parameters are not finite")
    return model


def _outcome(error: Exception | None, finish, *args):
    """The result of one model of a stack, finish(*args), or the
    FloatingPointError that failed the model: `error`, from its epochs, or
    the one finish raises on non-finite outgoing parameters."""
    if error is not None:
        return error
    try:
        return finish(*args)
    except FloatingPointError as exc:
        return exc


def _stacked(datasets: list[Dataset]) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of equally long datasets, one per lane,
    concatenated: row i of lane l is row l * n + i. One dataset is
    returned as it is."""
    if len({len(d) for d in datasets}) > 1:
        raise ValueError(f"stacked datasets differ in size: {[len(d) for d in datasets]}")
    if len(datasets) == 1:
        return datasets[0].features, datasets[0].labels
    return (np.concatenate([d.features for d in datasets]),
            np.concatenate([d.labels for d in datasets]))


def _span(first: int, end: int) -> int | slice:
    """Index of models first..end-1 of a stack (M, P): a model alone is
    taken as its flat vector (P,), several as a stack."""
    return first if end - first == 1 else slice(first, end)


def _train_stack(models: np.ndarray, spec: NetworkSpec, lr: float, epochs: int,
                 batches: _Batches, wheres: list[str]) -> tuple[list[list[float]], list]:
    """SGD of the models stacked in `models` (M, P), in place and in
    lockstep, on the minibatches of `batches`.

    Each model runs exactly the steps it would run alone. Row counts
    (batches.sizes) must not increase, so at step k the models that take
    rows k * batch_size..stop-1 of their orders are a slice of the stack,
    a span, and step together through one Trainer, made on first use.

    Returns each model's epoch losses (the mean of its minibatch losses)
    and its error: None, or the FloatingPointError (naming wheres[m]) of
    its first epoch whose mean loss is not finite. A failed model keeps
    stepping, but no longer counts, until every model has failed; rows are
    independent, so it moves no bit of the others, and its parameters mean
    nothing.
    """
    sizes, width = batches.sizes, batches.batch_size
    if any(a < b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"model row counts must not increase, got {sizes}")
    plan = []  # per step: ((first, end), span, rows) of each span
    for k in range(-(-sizes[0] // width)):
        stops = [min(n, (k + 1) * width) for n in sizes if n > k * width]
        spans, first = [], 0
        for stop, group in itertools.groupby(stops):
            end = first + len(list(group))
            spans.append(((first, end), _span(first, end), slice(k * width, stop)))
            first = end
        plan.append(spans)
    steps = [-(-n // width) for n in sizes]
    trainers: dict[tuple[int, int], Trainer] = {}
    batch_losses = np.empty((len(sizes), len(plan)))
    histories: list[list[float]] = [[] for _ in sizes]
    errors: list[FloatingPointError | None] = [None] * len(sizes)
    for epoch in range(1, epochs + 1):
        batches.start_epoch(epoch)
        for k, spans in enumerate(plan):
            for key, span, rows in spans:
                if key not in trainers:
                    trainers[key] = Trainer(models[span], spec)
                losses = trainers[key].step(*batches.build(span, k, rows), lr)
                batch_losses[span, k] = batches.loss(losses)
            batches.after_step(epoch)
        for m, count in enumerate(steps):
            if errors[m] is None:
                loss = float(np.add.reduce(batch_losses[m, :count]) / count)
                if np.isfinite(loss):
                    histories[m].append(loss)
                else:
                    errors[m] = FloatingPointError(
                        f"{wheres[m]}, epoch {epoch}: mean loss {loss} is not finite")
        if all(e is not None for e in errors):
            break
        batches.after_epoch(epoch)
    return histories, errors


class _Batches:
    """A strategy's minibatches for _train_stack. sizes (each model's rows
    per epoch) and batch_size set the steps; start_epoch(epoch) draws the
    epoch's orders; build(span, k, rows) gives the batch-major rows,
    targets and loss scales of step k for the models `span` (see _span),
    which take `rows` of their orders (see Trainer.loss_rows); loss
    reduces a step's per-row losses (M, rows) to one mean per model.
    after_step runs after each step, after_epoch once the epoch is
    recorded and some model is alive. For _phase_stack a builder also
    names its strategy and its epochs, and gives the outgoing models."""

    def loss(self, losses: np.ndarray) -> np.ndarray:
        return np.add.reduce(losses, axis=-1) / losses.shape[-1]  # ndarray.mean's arithmetic

    def after_step(self, epoch: int) -> None:
        pass

    def after_epoch(self, epoch: int) -> None:
        pass

    def outgoing(self, students: list[np.ndarray]) -> tuple[list[np.ndarray], tuple]:
        """The outgoing models of a phase and its consolidation events."""
        return students, ()


class _OneHotRows(_Batches):
    """One-hot minibatches, given as integer labels: model m takes the
    first sizes[m] rows of datasets[m], in the order it draws each epoch
    from the stream `stream` of seeds[m]. The datasets are equally long;
    models may share one, which is then held once (see _stacked). The
    orders are batch-major: column m is model m's."""

    def __init__(self, datasets: list[Dataset], sizes: tuple[int, ...], batch_size: int,
                 seeds: list[int], *stream: str):
        self.sizes, self.batch_size = sizes, batch_size
        lanes = list({id(d): d for d in datasets}.values())  # distinct, in order of first use
        first_row = {id(d): lane * len(d) for lane, d in enumerate(lanes)}
        self.first_rows = [first_row[id(d)] for d in datasets]
        features, self.labels = _stacked(lanes)
        self.feature_rows = row_blocks(features)
        self.shuffle_rngs = [rng_for(seed, *stream) for seed in seeds]
        self.orders = np.empty((sizes[0], len(sizes)), dtype=np.intp)

    def start_epoch(self, epoch: int) -> None:
        for m, (rng, size) in enumerate(zip(self.shuffle_rngs, self.sizes)):
            np.add(rng.permutation(size), self.first_rows[m], out=self.orders[:size, m])

    def build(self, span, k: int, rows: slice):
        idx = self.orders[rows, span]
        return take_rows(self.feature_rows, idx), self._targets(idx), 1.0 / idx.shape[0]

    def _targets(self, idx: np.ndarray) -> np.ndarray:
        return self.labels[idx]


class _FineTuneRows(_OneHotRows):
    """fine_tune's minibatches: each seed's phase data, one-hot, in the
    phase's shuffle stream."""

    strategy = "fine_tune"

    def __init__(self, models, phase_datas, configs, ctxs):
        super().__init__(phase_datas, tuple(len(d) for d in phase_datas), configs[0].batch_size,
                         [c.seed for c in ctxs], "shuffle")
        self.epochs = configs[0].fine_tune_epochs


class _DistillPhase(_Batches):
    """boundary_distill's minibatches (see run_phase_boundary_distill and
    _boundary_distill_lanes): each lane shuffles its phase rows, and
    DistillBatches builds each minibatch with the current teacher and the
    lane's noise stream of PhaseStreams. Consolidation runs after every
    step (per_iteration) or after an epoch (scheduled)."""

    strategy = "boundary_distill"

    def __init__(self, models, phase_datas, configs, ctxs):
        config, ctx = configs[0], ctxs[0]
        self.student = models[_span(0, len(models))]
        self.state = EmaState(teacher=self.student.copy())
        self.sched, self.epochs, self.lanes = config.sched, config.epochs_per_phase, len(ctxs)
        self.weight, noise = config.distill_weight, config.noise
        if len(models) > 1:  # one noise scale and one weight > 0 per model (see DistillBatches)
            noise = replace(noise, delta=np.array([c.noise.delta for c in configs])[:, None, None])
            if self.weight > 0:
                self.weight = np.array([c.distill_weight for c in configs])
        norm_stats = ctx.norm_stats
        if self.lanes > 1:
            norm_stats = NormStats(np.stack([c.norm_stats.mean for c in ctxs])[:, None],
                                   np.stack([c.norm_stats.std for c in ctxs])[:, None])
        self.distill = DistillBatches(ctx.net_spec, *_stacked(phase_datas), norm_stats, noise,
                                      config.fuse, self.weight, config.assign)
        n = len(phase_datas[0])
        self.sizes, self.batch_size = (n,) * len(models), config.batch_size
        self.streams = None
        if self.distill.distilling:  # every (lane, epoch, minibatch) noise stream, derived at once
            self.streams = PhaseStreams([c.seed for c in ctxs], "noise", self.epochs,
                                        -(-n // self.batch_size))
        self.shuffle_rngs = [rng_for(c.seed, "shuffle") for c in ctxs]

    def start_epoch(self, epoch: int) -> None:
        # one order per lane, batch-major, moved to the lane's rows (see _stacked)
        n = self.sizes[0]
        self.orders = np.stack([rng.permutation(n) for rng in self.shuffle_rngs], axis=1)
        self.orders += n * np.arange(self.lanes)
        self.epoch = epoch

    def build(self, span, k: int, rows: slice):
        idx = self.orders[rows, span if self.lanes > 1 else 0]  # one lane may serve all
        rng = None
        if self.streams is not None:
            rngs = self.streams.at(self.epoch, k)
            rng = rngs[0] if self.lanes == 1 else rngs
        return self.distill.build(self.state.teacher, idx, rng)

    def loss(self, losses: np.ndarray) -> np.ndarray:
        clean = losses.shape[-1] // 2 if self.distill.distilling else losses.shape[-1]
        return DistillLossTerms.from_rows(losses, clean, self.weight).total

    def after_step(self, epoch: int) -> None:
        if self.sched.mode == "per_iteration":
            self.state = consolidate(self.state, self.student, self.sched.alpha0, epoch=epoch)

    def after_epoch(self, epoch: int) -> None:
        if self.sched.mode == "scheduled" and should_consolidate(epoch, self.sched):
            alpha = adaptive_momentum(epoch, self.sched)
            self.state = consolidate(self.state, self.student, alpha, epoch=epoch)

    def outgoing(self, students: list[np.ndarray]) -> tuple[list[np.ndarray], tuple]:
        if self.sched.mode == "off":
            return students, self.state.history
        return list(self.state.teacher.reshape(len(students), -1)), self.state.history


class _ExemplarMix(_OneHotRows):
    """vanilla_distill's minibatches (see run_phase_vanilla_distill): one-hot
    target rows, except that each seed's exemplars take its incoming
    model's scores as targets (an exemplar is never a fresh row). Each
    minibatch of an epoch's order holds half_ex exemplars, cycling through
    them, then the next fresh rows, so an epoch passes once over the fresh
    rows (over the exemplars when every row is one)."""

    strategy = "vanilla_distill"

    def __init__(self, models, phase_datas, configs, ctxs):
        config, spec, count = configs[0], ctxs[0].net_spec, len(models)
        n, size = len(phase_datas[0]), config.batch_size
        ex_count = round(config.exemplar_fraction * n)
        rem = n - ex_count
        half_ex = size // 2 if rem else size
        fresh = max(size - half_ex, 1) if rem else 0
        steps = -(-rem // fresh) if rem else -(-ex_count // size)
        ex_slots = half_ex if ex_count else 0  # exemplars per minibatch
        super().__init__(phase_datas, (rem + ex_slots * steps,) * count, ex_slots + fresh,
                         [c.seed for c in ctxs], "shuffle")
        self.targets = one_hot(self.labels, spec.num_classes)
        self.epochs = config.epochs_per_phase
        # per seed (rows of these arrays): exemplar rows and the other rows, in
        # the stacked features; seeds that share one dataset share one setup,
        # so they also share its exemplars and their targets
        self.ex_rows = np.empty((count, ex_count), dtype=np.intp)
        self.rem_rows = np.empty((count, rem), dtype=np.intp)
        for s, ctx in enumerate(ctxs):
            if ex_count:
                self.ex_rows[s] = rng_for(ctx.seed, "exemplars").choice(n, size=ex_count,
                                                                        replace=False)
            rem_mask = np.ones(n, dtype=bool)
            rem_mask[self.ex_rows[s]] = False
            self.rem_rows[s] = np.flatnonzero(rem_mask)
        self.ex_rows += np.array(self.first_rows)[:, None]
        self.rem_rows += np.array(self.first_rows)[:, None]
        whole = _span(0, count)
        self.targets[self.ex_rows[whole]] = forward(models[whole], spec,
                                                    take_rows(self.feature_rows, self.ex_rows[whole]))
        self.target_rows = row_blocks(self.targets)
        self.ex_order_rngs = [rng_for(ctx.seed, "exemplar-shuffle") for ctx in ctxs]
        slot = np.arange(self.sizes[0]) % self.batch_size
        self.exemplar, self.fresh = slot < ex_slots, slot >= ex_slots

    def start_epoch(self, epoch: int) -> None:
        rem, ex_count = self.rem_rows.shape[1], self.ex_rows.shape[1]
        for m, (rng, ex_rng) in enumerate(zip(self.shuffle_rngs, self.ex_order_rngs)):
            self.orders[self.fresh, m] = self.rem_rows[m, rng.permutation(rem)]
            ex_order = _cycled_order(ex_count, self.sizes[0] - rem, ex_rng)
            self.orders[self.exemplar, m] = self.ex_rows[m, ex_order]

    def _targets(self, idx: np.ndarray) -> np.ndarray:
        return take_rows(self.target_rows, idx)


def _cycled_order(pool: int, needed: int, rng: np.random.Generator) -> np.ndarray:
    """Concatenated permutations of range(pool) covering `needed` draws."""
    cycles = [rng.permutation(pool) for _ in range(-(-needed // pool) if pool else 0)]
    return np.concatenate(cycles)[:needed] if cycles else np.empty(0, dtype=np.int64)


def _fit_from_scratch(
    datasets: list[Dataset],
    sizes: tuple[int, ...],
    spec: NetworkSpec,
    configs: list[RunConfig],
    epochs: int,
    wheres: list[str],
) -> tuple[np.ndarray, list[list[float]], list[FloatingPointError | None]]:
    """Fresh init + one-hot cross-entropy SGD at the base learning rate, as
    one stack (see _train_stack): model m trains on the first sizes[m] rows
    of datasets[m] from the init and shuffle streams of configs[m].seed.
    Returns the models (M, P), their epoch losses and their errors.

    Used for the base models and for every full-data retrain; both pull
    from the same derived streams, so retraining on the base pool alone
    reproduces the base model bit for bit.
    """
    models = np.array([init_network(spec, derive_seed(c.seed, "init")) for c in configs])
    batches = _OneHotRows(datasets, sizes, configs[0].batch_size, [c.seed for c in configs],
                          "base-train", "shuffle")
    histories, errors = _train_stack(models, spec, configs[0].lr_base, epochs, batches, wheres)
    return models, histories, errors


def train_base(bench: IILBenchmark, config: RunConfig) -> np.ndarray:
    """Base model: from-scratch one-hot training on the base split. This
    is _train_bases on a group of one."""
    return _one(_train_bases([bench], [config]))


def _train_bases(
    benches: list[IILBenchmark],
    configs: list[RunConfig],
) -> list[np.ndarray | FloatingPointError]:
    """train_base for each seed of a group, with configs that differ only
    in the seed. The seeds whose networks and base splits have equal sizes
    train as one stack, each from its own data, init and shuffle streams,
    so it gets the bits it would get alone. Returns per seed its base model
    or the FloatingPointError that failed it.
    """
    if any(replace(c, seed=configs[0].seed) != configs[0] for c in configs[1:]):
        raise ValueError("the configs of a seed group may differ only in the seed")
    where = "base training, phase 0"
    stacks: dict[tuple[NetworkSpec, int], list[int]] = {}
    for s, (bench, config) in enumerate(zip(benches, configs, strict=True)):
        key = (config.network_spec(bench.base.dim, bench.num_classes), len(bench.base))
        stacks.setdefault(key, []).append(s)
    trained: list[np.ndarray | FloatingPointError] = [None] * len(benches)
    for (spec, size), members in stacks.items():
        models, _, errors = _fit_from_scratch(
            [benches[s].base for s in members], (size,) * len(members), spec,
            [configs[s] for s in members], configs[0].epochs_per_phase, [where] * len(members))
        for s, model, error in zip(members, models, errors):
            trained[s] = _outcome(error, _check_finite, model, where)
    return trained


def _phase_result(
    ctx: PhaseContext,
    where: str,
    model: np.ndarray,
    student: np.ndarray,
    loss_history: tuple[float, ...],
    ema_history: tuple[tuple[int, float], ...],
) -> PhaseResult:
    """Check that the outgoing model is finite (`where` names the strategy
    and phase), evaluate it (and the student, when it is another array)
    and package the phase."""
    _check_finite(model, where)
    acc_test = accuracy(model, ctx.net_spec, ctx.test_set)
    acc_base = accuracy(model, ctx.net_spec, ctx.base_set)
    student_acc = acc_test if student is model else accuracy(student, ctx.net_spec, ctx.test_set)
    return PhaseResult(phase_index=ctx.phase_index, model=model, acc_test=acc_test,
                       acc_base=acc_base, student_model=student, student_acc_test=student_acc,
                       loss_history=loss_history, ema_history=ema_history)


def _one(results: list):
    """The result of a stack or group of one, raising it when it is an exception."""
    [result] = results
    if isinstance(result, Exception):
        raise result
    return result


def _phase_stack(batches_type: type[_Batches], models_prev: list[np.ndarray],
                 phase_datas: list[Dataset], configs: list[RunConfig],
                 ctxs: list[PhaseContext]) -> list[PhaseResult | FloatingPointError]:
    """One incremental phase for each of `configs`, as one stack trained
    at the incremental rate (see _train_stack) on the minibatches of
    batches_type(models, phase_datas, configs, ctxs). The stack (M, P)
    starts from copies of the incoming models (one may serve every row);
    contexts are given per model, or one for all. Returns per model its
    PhaseResult or the FloatingPointError that failed it (see _outcome).
    """
    spec = ctxs[0].net_spec
    incoming = np.asarray(models_prev, dtype=np.float64)
    models = np.array(np.broadcast_to(incoming, (len(configs), spec.num_params)))
    batches = batches_type(models, phase_datas, configs, ctxs)
    where = f"{batches.strategy}, phase {ctxs[0].phase_index}"
    histories, errors = _train_stack(models, spec, configs[0].lr_incremental_resolved,
                                     batches.epochs, batches, [where] * len(models))
    students = list(models)
    outgoing, ema_history = batches.outgoing(students)
    return [_outcome(error, _phase_result, ctx, where, model, student, tuple(history), ema_history)
            for ctx, model, student, history, error in zip(
                ctxs * (len(models) // len(ctxs)), outgoing, students, histories, errors)]


# run_phase_fine_tune and run_phase_vanilla_distill for each seed of a group,
# as one stack
_fine_tune_seeds = functools.partial(_phase_stack, _FineTuneRows)
_vanilla_distill_seeds = functools.partial(_phase_stack, _ExemplarMix)


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
    fine-tuning collapse ablation). This is _boundary_distill_lanes on a
    stack of one.
    """
    return _one(_boundary_distill_lanes([model_prev], [phase_data], [config], [ctx]))


def _boundary_distill_lanes(
    models_prev: list[np.ndarray],
    phase_datas: list[Dataset],
    configs: list[RunConfig],
    ctxs: list[PhaseContext],
) -> list[PhaseResult | FloatingPointError]:
    """run_phase_boundary_distill for each config, as one stack (see
    _phase_stack and _DistillPhase): M students and M teachers (M, P), one
    teacher forward, one student step and one consolidation per event. A
    lane is one incoming model, phase data and context, with its shuffle
    and noise streams and norm stats. Either every model shares one lane,
    and then the configs may differ in noise.delta and distill_weight, with
    every weight > 0 or every weight 0: each epoch has one shuffle order
    and each minibatch one noise draw, scaled by each model's delta. Or
    each model has its own lane (the seeds of a group), with equally long
    phase data: each lane draws its own orders and noise, exactly as it
    would alone.
    """
    config = configs[0]
    for other in configs[1:]:
        noise = replace(other.noise, delta=config.noise.delta)
        if replace(other, noise=noise, distill_weight=config.distill_weight) != config:
            raise ValueError("stacked configs may differ only in noise.delta and distill_weight")
    if len({c.distill_weight > 0 for c in configs}) > 1:
        raise ValueError("stacked distill weights must be all > 0 or all 0")
    if len(ctxs) not in (1, len(configs)):
        raise ValueError(f"{len(configs)} stacked models need 1 or {len(configs)} lanes, "
                         f"got {len(ctxs)}")
    return _phase_stack(_DistillPhase, models_prev, phase_datas, configs, ctxs)


def run_phase_fine_tune(
    model_prev: np.ndarray,
    phase_data: Dataset,
    config: RunConfig,
    ctx: PhaseContext,
) -> PhaseResult:
    """Baseline: short one-hot training of the incoming model at the
    incremental rate (fine_tune_epochs = 0 returns the incoming model
    evaluated). This is _fine_tune_seeds on a stack of one."""
    return _one(_fine_tune_seeds([model_prev], [phase_data], [config], [ctx]))


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
    model; nothing is consolidated. This is _vanilla_distill_seeds on a
    stack of one.
    """
    return _one(_vanilla_distill_seeds([model_prev], [phase_data], [config], [ctx]))


def run_phase_full_data(
    accumulated: Dataset,
    config: RunConfig,
    ctx: PhaseContext,
) -> PhaseResult:
    """Oracle: from-scratch training on everything seen up to this phase.

    Identical procedure (init stream, shuffle stream, base rate) to
    train_base; with the base pool alone it reproduces the base model.
    """
    where = f"full_data, phase {ctx.phase_index}"
    [params], [history], [error] = _fit_from_scratch(
        [accumulated], (len(accumulated),), ctx.net_spec, [config], config.epochs_per_phase,
        [where])
    return _one([_outcome(error, _phase_result, ctx, where, params, params, tuple(history), ())])


def _full_data_stack(
    setups: list[SeedSetup],
    configs: list[RunConfig],
    results: list[list[PhaseResult]],
    errors: list[Exception | None],
) -> None:
    """Every full_data phase of every seed of a group as one stack: the
    model of phase t is run_phase_full_data on the seed's base split plus
    phases 1..t, a prefix of their concatenation, so the stack runs
    phase-major from the last phase down (see _train_stack).

    Appends each seed's phase results to results[s] in phase order, up to
    its first failed phase, whose error goes to errors[s]; the seed's later
    phases are dropped.
    """
    bench = setups[0].bench
    if not bench.num_phases:
        return
    phases = range(bench.num_phases, 0, -1)  # largest row count first
    seeds = range(len(setups))
    datasets = [Dataset.concat([s.bench.base, *s.bench.phases]) for s in setups]
    sizes = [len(bench.base) + sum(len(p) for p in bench.phases[:t]) for t in phases]
    models, histories, model_errors = _fit_from_scratch(
        [datasets[s] for _ in phases for s in seeds], tuple(size for size in sizes for _ in seeds),
        setups[0].net_spec, [configs[s] for _ in phases for s in seeds],
        configs[0].epochs_per_phase, [f"full_data, phase {t}" for t in phases for _ in seeds])
    for s in seeds:
        for t in range(1, bench.num_phases + 1):
            m = (bench.num_phases - t) * len(setups) + s
            outcome = _outcome(model_errors[m], _phase_result, setups[s].context(t),
                               f"full_data, phase {t}", models[m], models[m],
                               tuple(histories[m]), ())
            if isinstance(outcome, Exception):
                errors[s] = outcome
                break
            results[s].append(outcome)


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

    @functools.cached_property
    def base_result(self) -> PhaseResult:
        """Phase 0 of every strategy: the base model, evaluated once, on
        first use."""
        return _phase_result(self.context(0), "base training, phase 0", self.base_model,
                             self.base_model, (), ())

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
    base model for config.seed. This is setup_seeds on a group of one."""
    return _one(setup_seeds([bench], [config]))


def setup_seeds(
    benches: list[IILBenchmark],
    configs: list[RunConfig],
) -> list[SeedSetup | FloatingPointError]:
    """setup_seed for each seed of a group, with configs that differ only
    in the seed: each benchmark is standardized by its own base split, then
    the base models train as stacks (see _train_bases). Returns per seed
    its SeedSetup, or the FloatingPointError that failed its base training,
    which is the one it gets alone."""
    spaces = [standardized_benchmark(bench) for bench in benches]
    setups: list[SeedSetup | FloatingPointError] = []
    for space, config, model in zip(spaces, configs, _train_bases(spaces, configs)):
        if isinstance(model, Exception):
            setups.append(model)
            continue
        model.setflags(write=False)
        setups.append(SeedSetup(bench=space, norm_stats=compute_norm_stats(space.base),
                                net_spec=config.network_spec(space.base.dim, space.num_classes),
                                base_model=model, base_config=config))
    return setups


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
    propagates. Either replaces the record and partial record that an
    earlier run of the strategy and seed left there. This is
    run_seed_stack on a group of one.
    """
    return _one(run_seed_stack([setup], [config], out_dir))


def run_seed_stack(
    setups: list[SeedSetup],
    configs: list[RunConfig],
    out_dir: str | Path | None,
) -> list[tuple[list[PhaseResult], MetricsRecord] | Exception]:
    """run_phases for each seed of a group: setups[s] with configs[s],
    configs that differ only in the seed. The seeds whose splits have
    equal sizes walk their phases as one stack: one stacked phase per step
    for boundary_distill, fine_tune and vanilla_distill, one stack of every
    seed's phases for full_data. Each seed keeps its own data, norm stats
    and streams, so it gets the bits it would get alone.

    Returns one entry per seed: (phase results, record), or the exception
    that failed it, after its partial record is flushed to out_dir. A
    seed that fails drops out of its stack and fails alone.
    """
    for setup, config in zip(setups, configs, strict=True):
        differing = [f for f in _BASE_FIELDS
                     if getattr(config, f) != getattr(setup.base_config, f)]
        if differing:
            raise ValueError(f"config differs from the seed setup's in {differing}")
        if replace(config, seed=configs[0].seed) != configs[0]:
            raise ValueError("the configs of a seed stack may differ only in the seed")
    results = [[setup.base_result] for setup in setups]
    errors: list[Exception | None] = [None] * len(setups)
    stacks: dict[tuple, list[int]] = {}
    for s, setup in enumerate(setups):
        sizes = (setup.net_spec, len(setup.bench.base), *(len(p) for p in setup.bench.phases))
        stacks.setdefault(sizes, []).append(s)
    stack = {  # looked up per call, so a replaced phase function takes effect
        "boundary_distill": functools.partial(_walk_stack, _boundary_distill_lanes),
        "fine_tune": functools.partial(_walk_stack, _fine_tune_seeds),
        "vanilla_distill": functools.partial(_walk_stack, _vanilla_distill_seeds),
        "full_data": _full_data_stack,
    }[configs[0].strategy]
    for members in stacks.values():
        member_results = [results[s] for s in members]
        member_errors: list[Exception | None] = [None] * len(members)
        try:
            stack([setups[s] for s in members], [configs[s] for s in members], member_results,
                  member_errors)
        except Exception as exc:  # noqa: BLE001 - fails every seed of the stack
            member_errors = [e or exc for e in member_errors]
        for s, error in zip(members, member_errors):
            errors[s] = error
    return [_finish(res, config, error, out_dir)
            for res, config, error in zip(results, configs, errors)]


def _walk_stack(
    phase_stack,
    setups: list[SeedSetup],
    configs: list[RunConfig],
    results: list[list[PhaseResult]],
    errors: list[Exception | None],
) -> None:
    """Walk the incremental phases for a stack of seeds, one stacked phase
    at a time through phase_stack (for example _boundary_distill_lanes),
    appending each seed's phase results to results[s]. A seed whose phase
    fails (errors[s]) leaves the stack."""
    models = [setup.base_model for setup in setups]
    for t in range(1, setups[0].bench.num_phases + 1):
        live = [s for s, error in enumerate(errors) if error is None]
        if not live:
            break
        # the seeds' configs differ only in the seed, which the contexts carry
        outcomes = phase_stack([models[s] for s in live],
                               [setups[s].bench.phases[t - 1] for s in live],
                               [configs[0]] * len(live), [setups[s].context(t) for s in live])
        for s, outcome in zip(live, outcomes):
            if isinstance(outcome, Exception):
                errors[s] = outcome
            else:
                results[s].append(outcome)
                models[s] = outcome.model


def _finish(
    results: list[PhaseResult],
    config: RunConfig,
    error: Exception | None,
    out_dir: str | Path | None,
) -> tuple[list[PhaseResult], MetricsRecord] | Exception:
    """Write one seed's record (its partial record when `error` is set,
    which is returned instead), after removing the record and partial
    record that an earlier run of its strategy and seed left in out_dir."""
    if out_dir is not None:
        out_dir = Path(out_dir)
        clear_records(out_dir, config.strategy, config.seed)
    if error is not None:
        if out_dir is not None:
            write_record_csv(_record_from_results(results, config, partial=True), out_dir)
        return error
    record = _record_from_results(results, config)
    if out_dir is not None:
        write_record_csv(record, out_dir)
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
    pp = forgetting = float("nan")
    if len(per_phase) >= 2:
        pp = performance_promotion([p.acc_test for p in per_phase])
        forgetting = forgetting_rate(per_phase[-1].acc_base, per_phase[0].acc_base)
    strategy = config.strategy + ("(partial)" if partial else "")
    return MetricsRecord(strategy=strategy, seed=config.seed, per_phase=per_phase, pp=pp,
                         forgetting=forgetting, config_digest=config.digest())


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
    write_atomic(path, "\n".join(lines) + "\n")
    return path


def _record_path(out_dir: Path, strategy: str, seed: int) -> Path:
    return out_dir / f"record_{strategy.replace('(partial)', '_partial')}_seed{seed}.csv"


def clear_records(out_dir: Path, strategy: str, seed: int) -> None:
    """Remove the record and partial record that an earlier run of
    (strategy, seed) left in out_dir."""
    for path in (_record_path(out_dir, strategy, seed),
                 _record_path(out_dir, strategy + "(partial)", seed)):
        path.unlink(missing_ok=True)
