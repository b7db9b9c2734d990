"""Evaluation metrics for incremental runs.

Accuracies are fractions in [0, 1] everywhere inside the package; report
writers render percent columns alongside. Performance promotion is the sum
of per-phase test-accuracy gains (it telescopes to final minus initial);
the forgetting rate is the final-minus-initial accuracy on the base split,
negative when the model forgot, positive when base accuracy improved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .network import NetworkSpec, forward


@dataclass(frozen=True)
class PhaseAccuracy:
    """Accuracies of the phase-t model: on the fixed test set and on the
    base training split."""

    phase: int
    acc_test: float
    acc_base: float


@dataclass(frozen=True)
class MetricsRecord:
    """One run's metric trail: per-phase accuracies plus the two summary
    numbers and enough identity (strategy, seed, config digest) to group
    records in reports."""

    strategy: str
    seed: int
    per_phase: tuple[PhaseAccuracy, ...]
    pp: float
    forgetting: float
    config_digest: str


def accuracy(model: np.ndarray, spec: NetworkSpec, dataset: Dataset) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate accuracy on an empty dataset")
    if dataset.labels.max() >= spec.num_classes:
        raise ValueError(
            f"dataset has label {dataset.labels.max()} but the model only has "
            f"{spec.num_classes} classes"
        )
    predicted = np.argmax(forward(model, spec, dataset.features), axis=1)
    return float((predicted == dataset.labels).mean())


def performance_promotion(accuracies: "list[float] | np.ndarray") -> float:
    """Sum of consecutive accuracy differences over the phase sequence.

    Telescopes to last - first; keeping the summed form makes the
    per-phase contributions inspectable.
    """
    accs = np.asarray(accuracies, dtype=np.float64)
    if accs.ndim != 1 or accs.size < 2:
        raise ValueError(f"need at least two phase accuracies, got {accs.size}")
    return float(np.diff(accs).sum())


def forgetting_rate(final_base_acc: float, initial_base_acc: float) -> float:
    """final - initial accuracy on the base split (negative = forgetting).

    Both values must be in the same unit; mixing a fraction with a percent
    is flagged by a range check.
    """
    a, b = float(final_base_acc), float(initial_base_acc)
    if (a > 1.0) != (b > 1.0):
        raise ValueError(
            f"unit mismatch: {a} and {b} do not look like the same scale "
            "(one exceeds 1, the other does not)"
        )
    return a - b
