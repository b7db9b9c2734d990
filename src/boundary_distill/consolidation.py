"""Teacher consolidation by scheduled exponential moving average.

Instead of updating the teacher after every optimizer step, consolidation
fires a handful of times per phase: only after a freeze window has passed,
and then every period epochs. Momentum adapts to the epoch index,
alpha(e) = min(alpha0, 1 - e / (e + warmup)), so early consolidations move
the teacher more and later ones less. The sparse schedule is what lets the
teacher accumulate slowly instead of collapsing onto the student.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

EMA_MODES = ("scheduled", "per_iteration", "off")


@dataclass(frozen=True)
class ConsolidationSchedule:
    """When consolidation fires and how momentum adapts.

    mode "scheduled" is the contributed mechanism; "per_iteration" applies
    a constant-alpha0 EMA after every minibatch (the traditional usage,
    kept as a contrast harness); "off" disables teacher updates entirely.
    """

    freeze_epochs: int = 10
    period_epochs: int = 5
    alpha0: float = 0.99
    warmup: float = 500.0
    mode: str = "scheduled"

    def __post_init__(self) -> None:
        if self.freeze_epochs < 0:
            raise ValueError(f"freeze_epochs must be >= 0, got {self.freeze_epochs}")
        if self.period_epochs < 1:
            raise ValueError(f"period_epochs must be >= 1, got {self.period_epochs}")
        if not 0.0 < self.alpha0 < 1.0:
            raise ValueError(f"alpha0 must lie in (0, 1), got {self.alpha0}")
        if not 0 < self.warmup < np.inf:
            raise ValueError(f"warmup must be positive and finite, got {self.warmup}")
        if self.mode not in EMA_MODES:
            raise ValueError(f"mode must be one of {EMA_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class EmaState:
    """Teacher parameters plus the consolidations of this phase.

    history records (epoch, alpha) per consolidation.
    """

    teacher: np.ndarray
    history: tuple[tuple[int, float], ...] = field(default_factory=tuple)


def adaptive_momentum(epoch: int, sched: ConsolidationSchedule) -> float:
    """min(alpha0, 1 - e/(e + warmup)); non-increasing in the epoch."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return min(sched.alpha0, 1.0 - epoch / (epoch + sched.warmup))


def should_consolidate(epoch: int, sched: ConsolidationSchedule) -> bool:
    """True on epochs strictly past the freeze window that land on the period.

    Epochs count from 1. With freeze 10, period 5: fires at 15, 20, ...
    (epoch 10 itself is still frozen).
    """
    if epoch < 1:
        raise ValueError(f"epochs count from 1, got {epoch}")
    return epoch > sched.freeze_epochs and epoch % sched.period_epochs == 0


def consolidate(
    state: EmaState, student: np.ndarray, alpha: float, epoch: int | None = None
) -> EmaState:
    """One EMA update: teacher <- alpha * teacher + (1 - alpha) * student.

    The event is recorded at `epoch`, by default at its 1-based count in
    the history."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    student = np.asarray(student, dtype=np.float64)
    if student.shape != state.teacher.shape:
        raise ValueError(
            f"student shape {student.shape} != teacher shape {state.teacher.shape}"
        )
    merged = alpha * state.teacher + (1.0 - alpha) * student
    entry = (len(state.history) + 1 if epoch is None else epoch, float(alpha))
    return EmaState(teacher=merged, history=state.history + (entry,))


def closed_form_teacher(
    teacher0: np.ndarray, students: list[np.ndarray], alpha: float
) -> np.ndarray:
    """Teacher after n consolidations, written as one weighted sum.

    theta_t^n = alpha^n * theta_t^0 + sum_i alpha^(n-i) * (1-alpha) * theta_s^i
    (students given in consolidation order, i = 1..n). Must agree with the
    step-by-step recursion to 1e-10 per coordinate; the recursion is the
    reference, this form is the audit.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    theta0 = np.asarray(teacher0, dtype=np.float64)
    n = len(students)
    total = alpha**n * theta0
    for i, s in enumerate(students, start=1):
        total = total + alpha ** (n - i) * (1.0 - alpha) * np.asarray(s, dtype=np.float64)
    return total


def with_mode(sched: ConsolidationSchedule, mode: str) -> ConsolidationSchedule:
    return replace(sched, mode=mode)
