"""Scheduled EMA consolidation."""

import numpy as np
import pytest

from boundary_distill.consolidation import (
    ConsolidationSchedule,
    EmaState,
    adaptive_momentum,
    closed_form_teacher,
    consolidate,
    should_consolidate,
    with_mode,
)

DEFAULTS = ConsolidationSchedule()


def test_adaptive_momentum_frozen_values():
    assert adaptive_momentum(10, DEFAULTS) == pytest.approx(0.9803921568627451, abs=1e-15)
    assert adaptive_momentum(15, DEFAULTS) == pytest.approx(500.0 / 515.0, abs=1e-15)
    # Early epochs saturate at alpha0.
    assert adaptive_momentum(0, DEFAULTS) == 0.99
    assert adaptive_momentum(5, DEFAULTS) == 0.99
    with pytest.raises(ValueError):
        adaptive_momentum(-1, DEFAULTS)


def test_adaptive_momentum_monotone_nonincreasing():
    values = [adaptive_momentum(e, DEFAULTS) for e in range(0, 301)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= DEFAULTS.alpha0 for v in values)


def test_schedule_fire_epochs():
    fired = [e for e in range(1, 61) if should_consolidate(e, DEFAULTS)]
    assert fired == [15, 20, 25, 30, 35, 40, 45, 50, 55, 60]
    # Freeze boundary is strict: epoch 10 lands on the period but is frozen.
    assert not should_consolidate(10, DEFAULTS)
    assert not should_consolidate(12, DEFAULTS)
    assert should_consolidate(15, DEFAULTS)
    with pytest.raises(ValueError):
        should_consolidate(0, DEFAULTS)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ConsolidationSchedule(period_epochs=0)
    with pytest.raises(ValueError):
        ConsolidationSchedule(alpha0=1.0)
    with pytest.raises(ValueError):
        ConsolidationSchedule(alpha0=0.0)
    with pytest.raises(ValueError):
        ConsolidationSchedule(warmup=0.0)
    with pytest.raises(ValueError):
        ConsolidationSchedule(freeze_epochs=-1)
    with pytest.raises(ValueError):
        ConsolidationSchedule(mode="sometimes")
    assert with_mode(DEFAULTS, "off").mode == "off"
    assert with_mode(DEFAULTS, "off").alpha0 == DEFAULTS.alpha0


def test_consolidate_frozen_examples():
    state = EmaState(teacher=np.array([0.0]))
    state = consolidate(state, np.array([1.0]), alpha=0.5)
    np.testing.assert_array_equal(state.teacher, [0.5])
    state = consolidate(state, np.array([1.0]), alpha=0.5)
    np.testing.assert_array_equal(state.teacher, [0.75])
    assert len(state.history) == 2
    # alpha=1 keeps the teacher, alpha=0 copies the student.
    keep = consolidate(EmaState(teacher=np.array([2.0])), np.array([5.0]), alpha=1.0)
    np.testing.assert_array_equal(keep.teacher, [2.0])
    copy = consolidate(EmaState(teacher=np.array([2.0])), np.array([5.0]), alpha=0.0)
    np.testing.assert_array_equal(copy.teacher, [5.0])
    with pytest.raises(ValueError):
        consolidate(EmaState(teacher=np.array([0.0])), np.array([1.0]), alpha=1.5)
    with pytest.raises(ValueError):
        consolidate(EmaState(teacher=np.array([0.0])), np.array([1.0, 2.0]), alpha=0.5)


def test_consolidate_convexity():
    rng = np.random.default_rng(0)
    teacher = rng.normal(size=20)
    student = rng.normal(size=20)
    for alpha in (0.1, 0.5, 0.9):
        merged = consolidate(EmaState(teacher=teacher), student, alpha).teacher
        lo = np.minimum(teacher, student)
        hi = np.maximum(teacher, student)
        assert np.all(merged >= lo - 1e-12)
        assert np.all(merged <= hi + 1e-12)


def test_closed_form_matches_recursion_up_to_200_steps():
    rng = np.random.default_rng(7)
    dim = 6
    teacher0 = rng.normal(size=dim)
    students = [rng.normal(size=dim) for _ in range(200)]
    for alpha in (0.5, 0.9803921568627451, 0.99):
        state = EmaState(teacher=teacher0.copy())
        for i, s in enumerate(students, start=1):
            state = consolidate(state, s, alpha)
            closed = closed_form_teacher(teacher0, students[:i], alpha)
            assert np.abs(closed - state.teacher).max() < 1e-10
        assert len(state.history) == 200


def test_history_records_epoch_and_alpha():
    state = EmaState(teacher=np.zeros(2))
    state = consolidate(state, np.ones(2), alpha=0.25, epoch=15)
    state = consolidate(state, np.ones(2), alpha=0.125, epoch=20)
    assert state.history == ((15, 0.25), (20, 0.125))
