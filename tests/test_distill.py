"""Label fusion, input perturbation, and the combined distillation loss."""

import numpy as np
import pytest

from boundary_distill import distill
from boundary_distill.data import NormStats
from boundary_distill.distill import (
    DistillLossTerms,
    FuseConfig,
    LabelAssignment,
    NoiseSpec,
    distillation_loss,
    fuse_labels_batch,
    inner_mask,
    perturb_inputs,
)
from boundary_distill.network import (
    NetworkSpec,
    cross_entropy_rows,
    forward,
    init_network,
    one_hot,
)

LITERAL = FuseConfig()


def fuse_one(y, p, config):
    """Fuse one label with one teacher prediction, as a one-row batch."""
    return fuse_labels_batch(np.array([y]), np.array([p]), config)[0]


def test_fuse_literal_frozen_examples():
    got = fuse_one(np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.3, 0.2]), LITERAL)
    np.testing.assert_allclose(got, [0.75, 0.15, 0.10], atol=1e-15)
    got = fuse_one(np.array([1.0, 0.0]), np.array([0.5, 0.5]), LITERAL)
    np.testing.assert_allclose(got, [0.75, 0.25], atol=1e-15)


def test_fuse_literal_tau_cancels():
    y = np.array([0.0, 1.0, 0.0])
    p = np.array([0.2, 0.5, 0.3])
    base = fuse_one(y, p, FuseConfig(tau=1.0))
    for tau in (0.1, 2.0, 17.0):
        np.testing.assert_array_equal(fuse_one(y, p, FuseConfig(tau=tau)), base)


def test_fuse_tempered_softmax_depends_on_tau():
    y = np.array([1.0, 0.0, 0.0])
    p = np.array([0.5, 0.3, 0.2])
    cold = fuse_one(y, p, FuseConfig(tau=0.5, variant="tempered_softmax"))
    hot = fuse_one(y, p, FuseConfig(tau=50.0, variant="tempered_softmax"))
    assert not np.allclose(cold, hot)
    # Large tau flattens toward uniform.
    np.testing.assert_allclose(hot, 1.0 / 3.0, atol=0.01)
    # Small tau sharpens toward the largest merged coordinate.
    assert cold[0] > hot[0]


def test_fuse_invariants_bulk():
    # Simplex validity, target-class sharpening, non-target halving, and
    # non-target rank preservation over 10^4 random cases.
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        k = int(rng.integers(2, 6))
        label = int(rng.integers(0, k))
        y = np.zeros(k)
        y[label] = 1.0
        p = rng.dirichlet(np.ones(k))
        fused = fuse_one(y, p, LITERAL)

        assert abs(fused.sum() - 1.0) < 1e-9
        assert np.all(fused >= -1e-9)
        # Target coordinate becomes (1 + p_k)/2, never below p_k.
        assert fused[label] == pytest.approx((1.0 + p[label]) / 2.0, abs=1e-12)
        assert fused[label] >= p[label] - 1e-12
        others = np.arange(k) != label
        # Non-target mass is exactly halved, which preserves their order.
        np.testing.assert_allclose(fused[others], p[others] / 2.0, atol=1e-12)
        order_before = np.argsort(p[others], kind="stable")
        order_after = np.argsort(fused[others], kind="stable")
        np.testing.assert_array_equal(order_before, order_after)


def test_fuse_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fuse_labels_batch(np.array([1.0, 0.0]), np.array([0.5, 0.5]), LITERAL)
    with pytest.raises(ValueError):
        fuse_labels_batch(np.eye(2), np.full((2, 3), 1.0 / 3.0), LITERAL)
    with pytest.raises(ValueError):
        FuseConfig(tau=0.0)
    with pytest.raises(ValueError):
        FuseConfig(variant="nope")


def test_fuse_batch_matches_rowwise():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 4, size=8)
    y = one_hot(labels, 4)
    p = rng.dirichlet(np.ones(4), size=8)
    batch = fuse_labels_batch(y, p, LITERAL)
    for i in range(8):
        np.testing.assert_array_equal(batch[i], fuse_one(y[i], p[i], LITERAL))
    np.testing.assert_allclose(batch, (y + p) / 2.0, atol=1e-15)


def _stats(dim):
    return NormStats(mean=np.zeros(dim), std=np.ones(dim))


def test_perturb_zero_noise_is_exact_standardization():
    stats = NormStats(mean=np.array([1.0, -2.0]), std=np.array([2.0, 0.5]))
    batch = np.array([[3.0, -1.0], [1.0, -2.0]])
    out = distill._normalized(batch, stats)
    np.testing.assert_array_equal(out, [[1.0, 2.0], [0.0, 0.0]])


def test_perturb_noise_moments():
    # Law of large numbers on the injected noise: with mu=0, delta=10 the
    # empirical mean of (output - input) sits near 0 and its std near 10.
    rng = np.random.default_rng(99)
    batch = np.zeros((10_000, 2))
    out = perturb_inputs(batch, _stats(2), NoiseSpec(mu=0.0, delta=10.0), rng=rng)
    assert abs(out.mean()) < 0.3
    assert abs(out.std() - 10.0) < 0.3


def test_perturb_not_clipped_and_seeded():
    batch = np.zeros((200, 2))
    a = perturb_inputs(batch, _stats(2), NoiseSpec(delta=5.0, seed=3))
    b = perturb_inputs(batch, _stats(2), NoiseSpec(delta=5.0, seed=3))
    np.testing.assert_array_equal(a, b)
    # delta=5 noise must escape [-1, 1] by a wide margin somewhere.
    assert np.abs(a).max() > 3.0


def test_perturb_stacked_deltas_equal_normal_draws():
    # one standard-normal draw scaled per model gives each model the bits
    # of its own Generator.normal draw
    stats = NormStats(mean=np.array([1.0, -2.0, 0.5]), std=np.array([2.0, 0.5, 3.0]))
    batch = np.random.default_rng(1).normal(size=(7, 3))
    deltas = np.array([0.02, 2.0, 10.0, 1e300])
    stacked = perturb_inputs(batch, stats, NoiseSpec(mu=0.3, delta=deltas[:, None, None]),
                             rng=np.random.default_rng(4))
    normalized = distill._normalized(batch, stats)
    assert stacked.shape == (4, 7, 3)
    for delta, rows in zip(deltas, stacked):
        draw = np.random.default_rng(4).normal(0.3, delta, size=batch.shape)
        np.testing.assert_array_equal(rows, normalized + draw)
        np.testing.assert_array_equal(rows, perturb_inputs(
            batch, stats, NoiseSpec(mu=0.3, delta=delta), rng=np.random.default_rng(4)))


def test_perturb_zero_std_warns_and_substitutes():
    stats = NormStats(mean=np.array([0.0, 0.0]), std=np.array([1.0, 0.0]))
    with pytest.warns(RuntimeWarning):
        out = distill._normalized(np.array([[2.0, 2.0]]), stats)
    np.testing.assert_array_equal(out, [[2.0, 2.0]])


def test_classify_inner_outer():
    teacher = np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
    np.testing.assert_array_equal(inner_mask(teacher, np.array([0, 0])), [True, False])
    # Tie resolves to the lowest index, which is not the labeled class 1.
    np.testing.assert_array_equal(inner_mask(np.array([[0.5, 0.5]]), np.array([1])), [False])
    mask = inner_mask(np.array([[0.7, 0.3], [0.3, 0.7]]), np.array([0, 0]))
    np.testing.assert_array_equal(mask, [True, False])


def _problem(seed=0, n=12, dim=3, k=4):
    rng = np.random.default_rng(seed)
    spec = NetworkSpec((dim, 6, k), activation="tanh")
    student = init_network(spec, seed=seed + 1)
    teacher = init_network(spec, seed=seed + 2)
    batch = rng.normal(size=(n, dim))
    labels = rng.integers(0, k, size=n)
    return spec, student, teacher, batch, labels


def _oracle_terms(student, teacher, spec, batch, labels, noise_seed, fuse, weight):
    """Independent recomputation of both loss terms from first principles."""
    t_clean = forward(teacher, spec, batch)
    y = one_hot(labels, spec.num_classes)
    merged = y + t_clean
    fused = merged / merged.sum(axis=1, keepdims=True)
    s_clean = forward(student, spec, batch)
    learn = cross_entropy_rows(fused, s_clean).mean()

    rng = np.random.default_rng(noise_seed)
    perturbed = batch + rng.normal(0.0, 2.0, size=batch.shape)
    t_pert = forward(teacher, spec, perturbed)
    s_pert = forward(student, spec, perturbed)
    distill = cross_entropy_rows(t_pert, s_pert).mean()
    return float(learn), float(distill), float(learn + weight * distill)


def test_distillation_loss_matches_scripted_oracle():
    spec, student, teacher, batch, labels = _problem(seed=11)
    stats = _stats(3)
    noise = NoiseSpec(mu=0.0, delta=2.0, seed=42)
    terms, grad = distillation_loss(
        student, teacher, spec, batch, labels, stats, noise, LITERAL, weight=0.7
    )
    learn, distill, total = _oracle_terms(
        student, teacher, spec, batch, labels, noise_seed=42, fuse=LITERAL, weight=0.7
    )
    assert terms.learn_term == pytest.approx(learn, abs=1e-8)
    assert terms.distill_term == pytest.approx(distill, abs=1e-8)
    assert terms.total == pytest.approx(total, abs=1e-8)
    assert grad.shape == student.shape


def test_distillation_loss_weight_affinity():
    # total is affine in the weight with identical per-term values as long
    # as the same noise draw is used.
    spec, student, teacher, batch, labels = _problem(seed=2)
    stats = _stats(3)
    noise = NoiseSpec(seed=7)
    collected = {}
    for w in (0.5, 1.0, 2.0):
        terms, _ = distillation_loss(
            student, teacher, spec, batch, labels, stats, noise, LITERAL, weight=w
        )
        collected[w] = terms
        assert terms.total == pytest.approx(terms.learn_term + w * terms.distill_term, abs=1e-12)
    assert collected[0.5].learn_term == collected[2.0].learn_term
    assert collected[0.5].distill_term == collected[2.0].distill_term


def test_distillation_loss_zero_weight_skips_noise():
    # weight=0 must not consume randomness or depend on the noise config.
    spec, student, teacher, batch, labels = _problem(seed=3)
    stats = _stats(3)
    t1, g1 = distillation_loss(
        student, teacher, spec, batch, labels, stats, NoiseSpec(seed=1), LITERAL, weight=0.0
    )
    t2, g2 = distillation_loss(
        student, teacher, spec, batch, labels, stats, NoiseSpec(seed=999, delta=50.0), LITERAL, weight=0.0
    )
    assert t1.distill_term == t2.distill_term == 0.0
    assert t1.learn_term == t2.learn_term
    np.testing.assert_array_equal(g1, g2)
    with pytest.raises(ValueError):
        distillation_loss(
            student, teacher, spec, batch, labels, stats, NoiseSpec(), LITERAL, weight=-0.1
        )


def test_distillation_gradient_finite_difference():
    # The returned gradient is d(total)/d(student) with teacher outputs
    # held constant; central differences with a replayed noise draw agree.
    spec, student, teacher, batch, labels = _problem(seed=4, n=6, dim=2, k=3)
    stats = _stats(2)
    noise = NoiseSpec(seed=13)

    def total_at(params):
        terms, _ = distillation_loss(
            params, teacher, spec, batch, labels, stats, noise,
            LITERAL, weight=0.3, rng=np.random.default_rng(555),
        )
        return terms.total

    _, grad = distillation_loss(
        student, teacher, spec, batch, labels, stats, noise,
        LITERAL, weight=0.3, rng=np.random.default_rng(555),
    )
    h = 1e-6
    fd = np.zeros_like(grad)
    for j in range(student.size):
        up = student.copy()
        up[j] += h
        down = student.copy()
        down[j] -= h
        fd[j] = (total_at(up) - total_at(down)) / (2 * h)
    rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8)
    assert rel < 1e-4


@pytest.mark.parametrize(
    "assign, clean_target",
    [(LabelAssignment(), [1 / 6, 1 / 6, 2 / 3]),
     (LabelAssignment(inner="one_hot", outer="one_hot"), [0.0, 0.0, 1.0])],
)
def test_gradient_exact_below_old_probability_floor(assign, clean_target):
    # The student gives the labeled class probability ~1e-30 on every input
    # (logits are its output biases); the teacher is uniform. Each term's
    # output-bias gradient is mean(p - t) exactly, with no probability floor.
    spec = NetworkSpec((2, 3))
    student = np.zeros(spec.num_params)
    student[-3:] = [0.0, 0.0, -69.0]
    teacher = np.zeros(spec.num_params)
    batch = np.random.default_rng(1).normal(size=(5, 2))
    labels = np.full(5, 2)
    p = np.exp(student[-3:]) / np.exp(student[-3:]).sum()
    assert p[2] < 1e-29

    def bias_grad(weight):
        _, grad = distillation_loss(student, teacher, spec, batch, labels, _stats(2),
                                    NoiseSpec(seed=3), LITERAL, weight, assign=assign)
        return grad[-3:]

    learn = bias_grad(0.0)
    np.testing.assert_allclose(learn, p - np.array(clean_target), rtol=0, atol=1e-12)
    distill = (bias_grad(0.5) - learn) / 0.5
    np.testing.assert_allclose(distill, p - 1 / 3, rtol=0, atol=1e-12)


def test_distill_term_is_entropy_when_student_equals_teacher():
    spec, _, teacher, batch, labels = _problem(seed=6)
    stats = _stats(3)
    noise = NoiseSpec(seed=21)
    terms, _ = distillation_loss(
        teacher.copy(), teacher, spec, batch, labels, stats, noise, LITERAL, weight=1.0
    )
    rng = np.random.default_rng(21)
    perturbed = batch + rng.normal(0.0, 2.0, size=batch.shape)
    t_pert = forward(teacher, spec, perturbed)
    entropy = float(-(t_pert * np.log(t_pert)).sum(axis=1).mean())
    assert terms.distill_term == pytest.approx(entropy, abs=1e-9)


def test_assignment_rules_change_clean_targets():
    spec, student, teacher, batch, labels = _problem(seed=8)
    stats = _stats(3)
    noise = NoiseSpec(seed=2)

    def learn_term(assign):
        terms, _ = distillation_loss(
            student, teacher, spec, batch, labels, stats, noise,
            LITERAL, weight=0.0, assign=assign,
        )
        return terms.learn_term

    plain = learn_term(LabelAssignment(inner="one_hot", outer="one_hot"))
    y = one_hot(labels, spec.num_classes)
    s_clean = forward(student, spec, batch)
    assert plain == pytest.approx(float(cross_entropy_rows(y, s_clean).mean()), abs=1e-12)

    teacher_only = learn_term(LabelAssignment(inner="teacher", outer="teacher"))
    t_clean = forward(teacher, spec, batch)
    assert teacher_only == pytest.approx(
        float(cross_entropy_rows(t_clean, s_clean).mean()), abs=1e-12
    )

    fused_both = learn_term(LabelAssignment())
    assert fused_both not in (plain, teacher_only)

    # Mixed rule applies per-row according to the teacher's correctness.
    mixed = learn_term(LabelAssignment(inner="one_hot", outer="fused"))
    mask = inner_mask(t_clean, labels)
    merged = y + t_clean
    fused = merged / merged.sum(axis=1, keepdims=True)
    targets = np.where(mask[:, None], y, fused)
    assert mixed == pytest.approx(float(cross_entropy_rows(targets, s_clean).mean()), abs=1e-12)


def test_loss_terms_total_property():
    terms = DistillLossTerms(learn_term=1.5, distill_term=0.25, weight=2.0)
    assert terms.total == 2.0
    with pytest.raises(ValueError):
        LabelAssignment(inner="soft")
    with pytest.raises(ValueError):
        NoiseSpec(delta=0.0)


def test_noise_spec_rejects_a_non_finite_delta_in_an_array():
    NoiseSpec(delta=np.array([0.5, 2.0])[:, None, None])
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        NoiseSpec(delta=np.array([0.5, np.inf])[:, None, None])
