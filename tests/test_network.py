"""Network core: init, forward, cross-entropy, analytic gradients, SGD."""

import numpy as np
import pytest

from boundary_distill import network
from boundary_distill.network import (
    PROB_FLOOR,
    NetworkSpec,
    Trainer,
    backward,
    cross_entropy_rows,
    forward,
    init_network,
    loss_and_grad,
    one_hot,
    sgd_step,
    softmax,
    unpack_params,
)


def test_spec_param_count():
    spec = NetworkSpec((2, 4, 3))
    # 2*4+4 weights+biases for layer 1, 4*3+3 for layer 2.
    assert spec.num_params == 27
    assert spec.input_dim == 2
    assert spec.num_classes == 3
    assert spec.layer_dims == [(2, 4), (4, 3)]


def test_spec_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        NetworkSpec((2,))
    with pytest.raises(ValueError):
        NetworkSpec((2, 0, 3))
    with pytest.raises(ValueError):
        NetworkSpec((2, -4, 3))
    with pytest.raises(ValueError):
        NetworkSpec((2, 4, 3), activation="sigmoid")


def test_init_shape_determinism_and_bounds():
    spec = NetworkSpec((3, 5, 4, 2))
    p1 = init_network(spec, seed=11)
    p2 = init_network(spec, seed=11)
    p3 = init_network(spec, seed=12)
    assert p1.shape == (spec.num_params,)
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, p3)
    for (w, b), (fan_in, _) in zip(unpack_params(p1, spec), spec.layer_dims):
        bound = 1.0 / np.sqrt(fan_in)
        assert np.all(np.abs(w) <= bound)
        assert np.all(b == 0.0)


def test_softmax_stability_and_rows():
    logits = np.array([[1e3, 1e3, 1e3], [-1e3, 0.0, 1e3]])
    p = softmax(logits)
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(p[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    # Shift invariance: softmax(z + c) == softmax(z).
    np.testing.assert_allclose(softmax(logits + 123.456), p, atol=1e-12)


@pytest.mark.parametrize("classes", [2, 3, 4, 7, 8, 10])
@pytest.mark.parametrize("lead", [(64,), (300,), (2, 64), (5, 64)],
                         ids=["flat64", "flat300", "stacked2", "stacked5"])
def test_class_axis_reductions_match_numpy(classes, lead):
    # below 8 classes and from 256 rows on, the row max and the row sums go
    # one class column at a time; that must give NumPy's bits, over
    # magnitudes from 1e-3 to 1e3
    rng = np.random.default_rng(classes)
    logits = rng.standard_normal(lead + (classes,)) * 10.0 ** rng.integers(-3, 4, lead + (1,))
    np.testing.assert_array_equal(network._row_reduce(np.maximum, logits),
                                  logits.max(axis=-1, keepdims=True))
    np.testing.assert_array_equal(network._row_reduce(np.add, logits),
                                  logits.sum(axis=-1, keepdims=True))
    shifted = logits - logits.max(axis=-1, keepdims=True)
    total = np.exp(shifted).sum(axis=-1, keepdims=True)
    probs = np.exp(shifted) / total
    np.testing.assert_array_equal(softmax(logits), probs)
    targets = rng.dirichlet(np.ones(classes), size=lead)
    # an identity layer passes the logits through unchanged
    identity = np.concatenate([np.eye(classes).ravel(), np.zeros(classes)])
    trainer = Trainer(np.tile(identity, lead[:-1] + (1,)), NetworkSpec((classes, classes)))
    log_probs = np.where(probs < PROB_FLOOR, shifted - np.log(total),
                         np.log(np.maximum(probs, PROB_FLOOR)))
    np.testing.assert_array_equal(trainer.loss_rows(logits, targets, 1.0),
                                  -(targets * log_probs).sum(axis=-1))


def test_forward_uniform_for_zero_params():
    spec = NetworkSpec((2, 3))
    params = np.zeros(spec.num_params)
    probs, _ = forward(params, spec, np.array([[0.5, -2.0], [3.0, 1.0]]))
    np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-12)


def test_forward_row_independence_and_promotion():
    spec = NetworkSpec((3, 6, 4), activation="tanh")
    params = init_network(spec, seed=5)
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(7, 3))
    probs, _ = forward(params, spec, batch)
    for i in range(7):
        row_probs, _ = forward(params, spec, batch[i])
        # Not bitwise: BLAS picks different kernels for 1-row matmuls.
        np.testing.assert_allclose(row_probs[0], probs[i], rtol=1e-12, atol=0)
    assert probs[0].sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        forward(params, spec, np.zeros((2, 4)))


def test_forward_finite_for_large_inputs():
    for act in ("relu", "tanh"):
        spec = NetworkSpec((2, 8, 3), activation=act)
        params = init_network(spec, seed=3)
        x = np.array([[1e3, -1e3], [0.0, 1e3], [-1e3, -1e3]])
        probs, _ = forward(params, spec, x)
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def _ce(target, predicted):
    """Soft cross-entropy of one distribution pair, as a one-row batch."""
    return float(cross_entropy_rows(np.array([target]), np.array([predicted]))[0])


def test_soft_cross_entropy_frozen_values():
    # One-hot target against p_target=0.75 is exactly -ln(0.75).
    got = _ce([1.0, 0.0, 0.0], [0.75, 0.15, 0.10])
    assert got == pytest.approx(0.2876820724517809, abs=1e-15)
    # Uniform two-class prediction against a one-hot target: ln 2.
    got = _ce([1.0, 0.0], [0.5, 0.5])
    assert got == pytest.approx(0.6931471805599453, abs=1e-15)
    # Self-CE equals the entropy of the distribution.
    q = [0.3, 0.7]
    assert _ce(q, q) == pytest.approx(0.6108643020548935, abs=1e-15)


def test_soft_cross_entropy_clamps_zero_probs():
    val = _ce([1.0, 0.0], [0.0, 1.0])
    assert np.isfinite(val)
    assert val == pytest.approx(-np.log(PROB_FLOOR), abs=1e-9)
    with pytest.raises(ValueError):
        _ce([1.0, 0.0], [0.5, 0.25, 0.25])


def test_cross_entropy_rows_matches_scalar():
    rng = np.random.default_rng(42)
    t = rng.dirichlet(np.ones(4), size=6)
    p = rng.dirichlet(np.ones(4), size=6)
    rows = cross_entropy_rows(t, p)
    for i in range(6):
        assert rows[i] == pytest.approx(-(t[i] * np.log(p[i])).sum(), abs=1e-12)
        assert rows[i] == _ce(t[i], p[i])


def _fd_gradient(params, spec, batch, targets, h=1e-5):
    """Central finite differences on the mean-CE objective."""
    grad = np.zeros_like(params)
    for j in range(params.size):
        up = params.copy()
        up[j] += h
        down = params.copy()
        down[j] -= h
        lu = cross_entropy_rows(targets, forward(up, spec, batch)[0]).mean()
        ld = cross_entropy_rows(targets, forward(down, spec, batch)[0]).mean()
        grad[j] = (lu - ld) / (2 * h)
    return grad


def test_gradient_matches_finite_differences():
    # >= 20 random small architectures, both activations. Central
    # differences are invalid within ~h of a relu kink, so relu trials
    # resample the batch until every pre-activation clears a margin.
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        depth = int(rng.integers(2, 5))
        sizes = tuple(int(rng.integers(2, 9)) for _ in range(depth))
        act = "relu" if trial % 2 == 0 else "tanh"
        spec = NetworkSpec(sizes, activation=act)
        params = init_network(spec, seed=trial)
        n = int(rng.integers(2, 7))
        for _ in range(200):
            batch = rng.normal(size=(n, spec.input_dim))
            if act == "tanh":
                break
            _, cache = forward(params, spec, batch)
            if all(np.abs(z).min() > 1e-3 for z in cache.pre_activations[:-1]):
                break
        else:
            pytest.fail(f"could not find kink-free batch for trial {trial}")
        labels = rng.integers(0, spec.num_classes, size=n)
        targets = one_hot(labels, spec.num_classes)

        _, grad = loss_and_grad(params, spec, batch, targets)
        fd = _fd_gradient(params, spec, batch, targets)
        denom = max(np.abs(fd).max(), 1e-8)
        rel = np.abs(grad - fd).max() / denom
        worst = max(worst, rel)
    assert worst < 1e-4


def test_gradient_soft_targets_finite_differences():
    rng = np.random.default_rng(7)
    spec = NetworkSpec((3, 5, 4), activation="tanh")
    params = init_network(spec, seed=1)
    batch = rng.normal(size=(5, 3))
    targets = rng.dirichlet(np.ones(4), size=5)
    _, grad = loss_and_grad(params, spec, batch, targets)
    fd = _fd_gradient(params, spec, batch, targets)
    assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-4


def test_gradient_zero_at_matching_targets():
    # dL/dlogits = p - t, so feeding the model's own probabilities back
    # as targets must produce a (numerically) zero gradient.
    spec = NetworkSpec((2, 4, 3))
    params = init_network(spec, seed=9)
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(6, 2))
    probs, _ = forward(params, spec, batch)
    _, grad = loss_and_grad(params, spec, batch, probs)
    assert np.abs(grad).max() < 1e-10


def test_gradient_duplicate_rows_invariance():
    spec = NetworkSpec((2, 5, 3))
    params = init_network(spec, seed=4)
    rng = np.random.default_rng(8)
    batch = rng.normal(size=(4, 2))
    targets = one_hot(rng.integers(0, 3, size=4), 3)
    loss1, grad1 = loss_and_grad(params, spec, batch, targets)
    loss2, grad2 = loss_and_grad(
        params, spec, np.vstack([batch, batch]), np.vstack([targets, targets])
    )
    assert loss2 == pytest.approx(loss1, abs=1e-12)
    np.testing.assert_allclose(grad2, grad1, atol=1e-12)


def test_backward_takes_logit_gradient():
    # backward() with dL/dlogits = (p - t)/n gives loss_and_grad's gradient
    spec = NetworkSpec((3, 5, 4), activation="tanh")
    params = init_network(spec, seed=2)
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(6, 3))
    targets = rng.dirichlet(np.ones(4), size=6)
    probs, cache = forward(params, spec, batch)
    _, grad = loss_and_grad(params, spec, batch, targets)
    np.testing.assert_allclose(backward(params, spec, cache, (probs - targets) / 6), grad,
                               rtol=0, atol=1e-15)


def test_gradient_exact_below_old_probability_floor():
    # The target class gets probability ~1e-30, far below PROB_FLOOR. The
    # loss is -log p exactly and the output-bias gradient is mean(p - t);
    # a clipped gradient would scale the target row by p / PROB_FLOOR.
    spec = NetworkSpec((2, 3))
    params = np.zeros(spec.num_params)
    params[-3:] = [0.0, 0.0, -69.0]  # logits independent of the input
    batch = np.random.default_rng(0).normal(size=(4, 2))
    targets = one_hot(np.full(4, 2), 3)
    p = softmax(params[None, -3:])[0]
    assert p[2] < 1e-29
    loss, grad = loss_and_grad(params, spec, batch, targets)
    assert loss == pytest.approx(-np.log(p[2]), rel=1e-14)
    np.testing.assert_allclose(grad[-3:], p - targets[0], rtol=0, atol=1e-12)


def test_backward_rejects_shape_mismatch():
    spec = NetworkSpec((2, 3))
    params = init_network(spec, seed=0)
    _, cache = forward(params, spec, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        backward(params, spec, cache, np.zeros((3, 3)))


def test_sgd_step_edges():
    params = np.array([1.0, 2.0, 3.0])
    grad = np.array([0.5, -1.0, 0.0])
    assert sgd_step(params, grad, 0.0) is params
    np.testing.assert_array_equal(params, [1.0, 2.0, 3.0])
    # the update is in place
    sgd_step(params, grad, 0.1)
    np.testing.assert_allclose(params, [0.95, 2.1, 3.0])
    with pytest.raises(ValueError):
        sgd_step(params, grad, -0.1)
    with pytest.raises(ValueError):
        sgd_step(params, np.zeros(2), 0.1)


def test_one_hot_and_validation():
    oh = one_hot(np.array([0, 2, 1]), 3)
    np.testing.assert_array_equal(
        oh, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    )
    with pytest.raises(ValueError):
        one_hot(np.array([0, 3]), 3)
    with pytest.raises(ValueError):
        one_hot(np.array([-1, 0]), 3)
    with pytest.raises(ValueError):
        one_hot(np.array([[0, 1]]), 3)


def test_forward_bitwise_deterministic():
    spec = NetworkSpec((4, 6, 5), activation="relu")
    params = init_network(spec, seed=21)
    batch = np.random.default_rng(1).normal(size=(9, 4))
    a, _ = forward(params, spec, batch)
    b, _ = forward(params, spec, batch)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(("sizes", "activation"), [
    ((2, 16, 4), "relu"),
    ((2, 8, 8, 4), "tanh"),
    ((32, 128, 10), "relu"),
])
@pytest.mark.parametrize("count", [1, 3])
def test_stacked_trainer_equals_flat_trainers(sizes, activation, count):
    # Each epoch: the first batch steps the whole stack, the second the
    # first count - 1 models as a stack of their own and the last model on
    # its flat vector, and the short last batch each model on its flat
    # vector.
    spec = NetworkSpec(sizes, activation)
    rng = np.random.default_rng(3)
    rows = 2 * 16 + 5
    x = rng.normal(size=(count, rows, sizes[0]))
    t = np.stack([one_hot(rng.integers(0, sizes[-1], rows), sizes[-1]) for _ in range(count)])
    init = init_network(spec, seed=1)
    expected = []
    for m in range(count):
        params = init.copy()
        trainer = Trainer(params, spec)
        for _ in range(3):
            for start in range(0, rows, 16):
                batch = x[m, start : start + 16]
                trainer.step(batch, t[m, start : start + 16], 1.0 / len(batch), 0.3)
        expected.append(params)

    stack = np.tile(init, (count, 1))
    stacked, head = Trainer(stack, spec), Trainer(stack[:-1], spec)
    flat = [Trainer(params, spec) for params in stack]
    for _ in range(3):
        losses = stacked.step(x[:, :16], t[:, :16], 1.0 / 16, 0.3)
        assert losses.shape == (count, 16)
        if count > 1:
            head.step(x[:-1, 16:32], t[:-1, 16:32], 1.0 / 16, 0.3)
        flat[-1].step(x[-1, 16:32], t[-1, 16:32], 1.0 / 16, 0.3)
        for m in range(count):
            flat[m].step(x[m, 32:], t[m, 32:], 1.0 / 5, 0.3)
    for m in range(count):
        assert np.array_equal(stack[m], expected[m])
