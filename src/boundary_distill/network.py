"""Feedforward softmax classifier with exact analytic gradients.

All parameters live in one flat float64 vector with a fixed layout
(per layer: weight matrix in row-major order, then biases). The flat
layout is what lets teacher and student models be blended elementwise
during consolidation.

Training goes through `Trainer`: per-layer views on the parameter vector
and on a gradient buffer are made once, the loss is the exact
cross-entropy (log-softmax where p is below PROB_FLOOR), its gradient is
taken in logit space (p - t per row, exact for every target row that is
a distribution, however small p is), and the update is applied in place.
A Trainer also takes a stack of vectors (M, P), one model per row; the
same forward and backward code then runs on (M, B, d) batches, and each
model gets the bits it would get alone. `forward` gives the class
probabilities that evaluation and the teacher use; `backward` and
`cross_entropy_rows` are the standalone forms of the gradient and loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# cross_entropy_rows clips probabilities to this floor inside logs.
# Training takes log-softmax below it instead, and clips no gradient.
PROB_FLOOR = 1e-12

_ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture: (input dim, hidden widths..., num classes) + activation.

    The output layer is always a softmax over the fixed class set; the
    class count never changes between incremental phases.
    """

    layer_sizes: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError(
                f"layer_sizes needs at least (input_dim, num_classes), got {sizes}"
            )
        if any(s <= 0 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {_ACTIVATIONS}, got {self.activation!r}"
            )

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        return list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))

    @property
    def num_params(self) -> int:
        return sum((fi + 1) * fo for fi, fo in self.layer_dims)


@dataclass(frozen=True)
class ForwardCache:
    """Intermediate values of one forward pass, consumed by backward().

    activations[i] is the input to layer i (activations[0] is the batch);
    pre_activations[i] is the affine output of layer i before its
    nonlinearity (the logits, for the last layer).
    """

    inputs: np.ndarray
    pre_activations: tuple[np.ndarray, ...]
    activations: tuple[np.ndarray, ...]
    probs: np.ndarray


def init_network(spec: NetworkSpec, seed: int) -> np.ndarray:
    """Deterministic flat parameter vector for the given architecture.

    Weights are uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], biases zero.
    """
    rng = np.random.default_rng(seed)
    parts: list[np.ndarray] = []
    for fan_in, fan_out in spec.layer_dims:
        bound = 1.0 / np.sqrt(fan_in)
        parts.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).ravel())
        parts.append(np.zeros(fan_out))
    return np.concatenate(parts)


def unpack_params(params: np.ndarray, spec: NetworkSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of a flat vector (P,), or of a stack of them (M, P), as
    per-layer (W, b) pairs: W of shape (..., fan_in, fan_out), b of shape
    (..., 1, fan_out). No copies."""
    params = np.asarray(params, dtype=np.float64)
    if params.ndim not in (1, 2) or params.shape[-1] != spec.num_params:
        raise ValueError(
            f"parameter array of shape {params.shape}, spec wants (..., {spec.num_params})"
        )
    lead = params.shape[:-1]
    layers = []
    offset = 0
    for fan_in, fan_out in spec.layer_dims:
        w = params[..., offset : offset + fan_in * fan_out].reshape(
            (*lead, fan_in, fan_out), copy=False
        )
        offset += fan_in * fan_out
        b = params[..., None, offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def _row_reduce(ufunc: np.ufunc, z: np.ndarray) -> np.ndarray:
    """ufunc.reduce over the last (class) axis, keeping it. Below 8 classes
    and from 256 rows on (a stack's rows counted together) it goes one class
    column at a time: NumPy's per-row loop over so short a row then costs
    more, several times more for a stack of ten. That is exact, since
    NumPy's pairwise sum adds fewer than 8 elements in order, and a maximum
    does not depend on the order. With more classes or fewer rows NumPy's
    reduction is as fast or faster."""
    classes = z.shape[-1]
    if not 2 <= classes < 8 or z.size < 256 * classes:
        return ufunc.reduce(z, axis=-1, keepdims=True)
    out = ufunc(z[..., :1], z[..., 1:2])
    for c in range(2, classes):
        ufunc(out, z[..., c : c + 1], out=out)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, stabilized by subtracting the row max."""
    e = np.exp(logits - _row_reduce(np.maximum, logits))
    e /= _row_reduce(np.add, e)
    return e


def _as_batch(batch: np.ndarray, spec: NetworkSpec) -> np.ndarray:
    """The batch as float64 rows (B, d) of the spec's input width, or a
    stack of them (M, B, d), one per model."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim not in (2, 3) or x.shape[-1] != spec.input_dim:
        raise ValueError(
            f"batch shape {np.shape(batch)} does not match input dim {spec.input_dim}"
        )
    return x


def _forward_layers(
    layers: list[tuple[np.ndarray, np.ndarray]], activation: str, x: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(activations, pre_activations) of a forward pass; see ForwardCache.

    x is (B, d) for flat layers or (M, B, d) for stacked ones.
    """
    activations = [x]
    pre_activations = []
    a = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = a @ w
        z += b
        pre_activations.append(z)
        if i < last:
            a = np.maximum(z, 0.0) if activation == "relu" else np.tanh(z)
            activations.append(a)
    return activations, pre_activations


def _backward_layers(
    layers: list[tuple[np.ndarray, np.ndarray]],
    grad_layers: list[tuple[np.ndarray, np.ndarray]],
    activation: str,
    activations: list[np.ndarray] | tuple[np.ndarray, ...],
    pre_activations: list[np.ndarray] | tuple[np.ndarray, ...],
    dz: np.ndarray,
) -> None:
    """Write the parameter gradient for logit gradient dz into grad_layers."""
    for i in range(len(layers) - 1, -1, -1):
        dw, db = grad_layers[i]
        np.matmul(activations[i].swapaxes(-1, -2), dz, out=dw)
        dz.sum(axis=-2, keepdims=True, out=db)
        if i > 0:
            da = dz @ layers[i][0].swapaxes(-1, -2)
            if activation == "relu":
                da *= pre_activations[i - 1] > 0.0
            else:
                da *= 1.0 - activations[i] ** 2
            dz = da


def forward(params: np.ndarray, spec: NetworkSpec, batch: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Class probabilities for a batch, plus the cache for backward().

    Rows are processed independently; each output row sums to 1. A stack
    of models (M, P) takes a batch (B, d) that every model sees, or one
    batch per model (M, B, d), and gives (M, B, classes).
    """
    x = _as_batch(batch, spec)
    activations, pre_activations = _forward_layers(
        unpack_params(params, spec), spec.activation, x
    )
    probs = softmax(pre_activations[-1])
    cache = ForwardCache(
        inputs=x,
        pre_activations=tuple(pre_activations),
        activations=tuple(activations),
        probs=probs,
    )
    return probs, cache


def cross_entropy_rows(targets: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Per-row soft cross-entropy for batched distributions."""
    t = np.asarray(targets, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if t.shape != p.shape or t.ndim != 2:
        raise ValueError(f"expected matching 2-d arrays, got {t.shape} vs {p.shape}")
    return -(t * np.log(np.clip(p, PROB_FLOOR, 1.0))).sum(axis=1)


def backward(
    params: np.ndarray,
    spec: NetworkSpec,
    cache: ForwardCache,
    dlogits: np.ndarray,
) -> np.ndarray:
    """Exact gradient of a scalar batch loss w.r.t. the flat parameters.

    `dlogits` is the gradient of the loss w.r.t. the logits, one row per
    batch row (already scaled by any mean-reduction factor). For soft
    cross-entropy against a target distribution t it is (p - t) per row.
    """
    dz = np.asarray(dlogits, dtype=np.float64)
    if dz.shape != cache.probs.shape:
        raise ValueError(f"dlogits shape {dz.shape} != logits shape {cache.probs.shape}")
    grad = np.empty(spec.num_params)
    _backward_layers(unpack_params(params, spec), unpack_params(grad, spec), spec.activation,
                     cache.activations, cache.pre_activations, dz)
    return grad


class Trainer:
    """SGD on a flat parameter vector (P,), or on a stack of them (M, P),
    updated in place.

    A flat trainer takes (B, d) batches; a stacked one takes (M, B, d)
    batches, one per model, and each model gets the bits it would get
    alone. Per-layer views on `params` and on the gradient buffer `grad`
    are made once, here, so a step costs only its arithmetic. `params` must
    be writable float64; it is the model (or the stack) being trained, not
    a copy.
    """

    def __init__(self, params: np.ndarray, spec: NetworkSpec):
        self.params = params
        self.spec = spec
        self.grad = np.empty_like(params)
        self._layers = unpack_params(params, spec)
        self._grad_layers = unpack_params(self.grad, spec)

    def loss_rows(
        self, batch: np.ndarray, targets: np.ndarray, scale: float | np.ndarray
    ) -> np.ndarray:
        """Per-row soft cross-entropy of the batch against `targets`.

        Leaves in `grad` the gradient of sum_i scale_i * loss_i, where
        `scale` is one number or a column with one entry per row. Its
        logit gradient is scale_i * (p_i - t_i), which is exact because
        every target row sums to one.
        """
        activations, pre_activations = _forward_layers(self._layers, self.spec.activation, batch)
        logits = pre_activations[-1]
        shifted = logits - _row_reduce(np.maximum, logits)
        dz = np.exp(shifted)
        total = _row_reduce(np.add, dz)
        dz /= total  # softmax
        # log p of the probabilities themselves, which keeps the loss bit
        # for bit where it was exact before; log-softmax below PROB_FLOOR,
        # where p may underflow to zero
        log_probs = np.log(np.maximum(dz, PROB_FLOOR))
        tail = dz < PROB_FLOOR
        if tail.any():
            log_probs[tail] = (shifted - np.log(total))[tail]
        log_probs *= targets
        losses = -_row_reduce(np.add, log_probs)[..., 0]
        dz -= targets
        dz *= scale
        _backward_layers(self._layers, self._grad_layers, self.spec.activation,
                         activations, pre_activations, dz)
        return losses

    def step(
        self, batch: np.ndarray, targets: np.ndarray, scale: float | np.ndarray, lr: float
    ) -> np.ndarray:
        """loss_rows, then one in-place update of `params`; returns the
        per-row losses."""
        losses = self.loss_rows(batch, targets, scale)
        sgd_step(self.params, self.grad, lr)
        return losses


def loss_and_grad(
    params: np.ndarray,
    spec: NetworkSpec,
    batch: np.ndarray,
    targets: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mean soft cross-entropy over the batch and its parameter gradient."""
    x = _as_batch(batch, spec)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != (x.shape[0], spec.num_classes):
        raise ValueError(f"targets shape {t.shape} does not match {x.shape[0]} rows "
                         f"of {spec.num_classes} classes")
    trainer = Trainer(np.asarray(params, dtype=np.float64), spec)
    losses = trainer.loss_rows(x, t, 1.0 / x.shape[0])
    return float(losses.mean()), trainer.grad


def sgd_step(params: np.ndarray, gradient: np.ndarray, lr: float) -> np.ndarray:
    """One plain gradient-descent update, in place: params -= lr * gradient.

    Returns `params` itself.
    """
    if params.shape != gradient.shape:
        raise ValueError(f"shape mismatch {params.shape} vs {gradient.shape}")
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    params -= lr * gradient
    return params


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot rows for integer class labels."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-d")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out
