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
Targets are distributions, or integer labels, whose loss -log p[label]
and gradient p - 1 at the label are those of one-hot rows bit for bit.
A Trainer also takes a stack of vectors (M, P), one model per row; it
then trains on batch-major rows (B, M, d), or on rows (B, d) that every
model sees, keeps each layer as (B, M, h), and runs each model's matmul
with the shapes it has alone, so each model gets the bits it would get
alone. `forward` gives the class probabilities that evaluation and the
teacher use, through the same forward pass; `backward` and
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
    (..., fan_out). No copies."""
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
        b = params[..., offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def _row_reduce(ufunc: np.ufunc, z: np.ndarray) -> np.ndarray:
    """ufunc.reduce over the last (class) axis, keeping it. Below 8 classes
    and from 256 rows on (a stack's rows counted together), or from 128
    rows on for the maximum, it goes one class column at a time: NumPy's
    per-row loop over so short a row then costs more, several times more
    for a stack of ten. That is exact, since NumPy's pairwise sum adds
    fewer than 8 elements in order, and a maximum does not depend on the
    order. With more classes or fewer rows NumPy's reduction is as fast or
    faster."""
    classes = z.shape[-1]
    if not 2 <= classes < 8 or z.size < (128 if ufunc is np.maximum else 256) * classes:
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


def _by_model(x: np.ndarray) -> np.ndarray:
    """The model-major view (M, B, k) of batch-major rows (B, M, k); rows
    (B, k) are returned as they are."""
    return x.swapaxes(0, -2)


def _matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ w of each model, batch-major: rows (B, d), or (B, M, d) for
    one batch per model, times weights (d, h) or a stack (M, d, h) give
    (B, h) or (B, M, h). Each model's product is the (B, d) @ (d, h)
    matmul it has alone, so it gets the same bits. NumPy takes a width-1
    product (h = 1) as a matrix-vector one, whose bits depend on the
    strides, so that one runs on each model's contiguous rows, as alone."""
    if a.ndim == w.ndim == 2:  # one model
        return a @ w
    if w.shape[-1] == 1:
        z = np.matmul(np.ascontiguousarray(_by_model(a)), w)
        return np.ascontiguousarray(_by_model(z))
    out = np.empty((*a.shape[:-1], w.shape[-1]) if a.ndim == 3
                   else (a.shape[0], *w.shape[:-2], w.shape[-1]))
    np.matmul(_by_model(a), w, out=_by_model(out))
    return out


def _forward_layers(
    layers: list[tuple[np.ndarray, np.ndarray]], activation: str, x: np.ndarray
) -> list[np.ndarray]:
    """The layers of a forward pass, which training keeps for the backward
    pass: x, then each hidden layer, activated in place, then the logits.

    x is batch-major: (B, d), or (B, M, d) for stacked layers (see
    _matmul); every layer after it is (B, h) or (B, M, h).
    """
    act, args = (np.maximum, (0.0,)) if activation == "relu" else (np.tanh, ())
    outs = [x]
    for i, (w, b) in enumerate(layers):
        if i:  # outs[-1] is then this pass's own hidden layer, never the rows x
            act(outs[-1], *args, out=outs[-1])
        z = _matmul(outs[-1], w)
        z += b
        outs.append(z)
    return outs


def _backward_layers(
    layers: list[tuple[np.ndarray, np.ndarray]],
    grad_layers: list[tuple[np.ndarray, np.ndarray]],
    activation: str,
    outs: list[np.ndarray],
    dz: np.ndarray,
) -> None:
    """Write the parameter gradient for the batch-major logit gradient dz
    into grad_layers, from the layers `outs` of _forward_layers. A bias
    gradient sums dz over the rows in row order, along the contiguous
    (M, h) tail of each row. The ReLU mask is taken from the activation:
    max(z, 0) > 0 is z > 0, signed zeros included."""
    for i in range(len(layers) - 1, -1, -1):
        dw, db = grad_layers[i]
        a, d = _by_model(outs[i]), _by_model(dz)
        if 1 in (a.shape[-1], d.shape[-1]):
            # a width-1 layer: NumPy multiplies a matrix by a vector and sums
            # a column pairwise, with bits that depend on the strides, so
            # each model's rows are made contiguous, as alone
            a, d = np.ascontiguousarray(a), np.ascontiguousarray(d)
        np.matmul(a.swapaxes(-1, -2), d, out=dw)
        np.add.reduce(d, axis=-2, out=db)
        if i > 0:
            da = _matmul(dz, layers[i][0].swapaxes(-1, -2))
            if activation == "relu":
                da *= outs[i] > 0.0
            else:
                da *= 1.0 - outs[i] ** 2
            dz = da


def _probabilities(
    layers: list[tuple[np.ndarray, np.ndarray]], activation: str, x: np.ndarray
) -> np.ndarray:
    """Class probabilities of batch-major rows x: the softmax of the
    training forward pass's logits. Its hidden layers are dropped before
    the softmax."""
    return softmax(_forward_layers(layers, activation, x)[-1])


def forward(params: np.ndarray, spec: NetworkSpec, batch: np.ndarray) -> np.ndarray:
    """Class probabilities for a batch, through the training forward pass
    (_forward_layers, then softmax).

    Rows are processed independently; each output row sums to 1. A stack
    of models (M, P) takes a batch (B, d) that every model sees, or one
    batch per model (M, B, d), and gives (M, B, classes).
    """
    x = _by_model(_as_batch(batch, spec))  # batch-major
    return _by_model(_probabilities(unpack_params(params, spec), spec.activation, x))


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
    batch: np.ndarray,
    dlogits: np.ndarray,
) -> np.ndarray:
    """Exact gradient of a scalar batch loss w.r.t. the flat parameters.

    `dlogits` is the gradient of the loss w.r.t. the logits of `batch`
    (recomputed here), one row per batch row, already scaled by any
    mean-reduction factor. For soft cross-entropy against a target
    distribution t it is (p - t) per row.
    """
    layers = unpack_params(params, spec)
    outs = _forward_layers(layers, spec.activation, _as_batch(batch, spec))
    dz = np.asarray(dlogits, dtype=np.float64)
    if dz.shape != outs[-1].shape:
        raise ValueError(f"dlogits shape {dz.shape} != logits shape {outs[-1].shape}")
    grad = np.empty(spec.num_params)
    _backward_layers(layers, unpack_params(grad, spec), spec.activation, outs, dz)
    return grad


class Trainer:
    """SGD on a flat parameter vector (P,), or on a stack of them (M, P),
    updated in place.

    A flat trainer takes rows (B, d); a stacked one takes batch-major rows
    (B, M, d), one batch per model, or rows (B, d) that every model sees,
    and each model gets the bits it would get alone. Per-layer views on
    `params` and on the gradient buffer `grad` are made once, here, so a
    step costs only its arithmetic. `params` must be writable float64; it
    is the model (or the stack) being trained, not a copy.
    """

    def __init__(self, params: np.ndarray, spec: NetworkSpec):
        self.params = params
        self.spec = spec
        self.grad = np.empty_like(params)
        self._layers = unpack_params(params, spec)
        self._grad_layers = unpack_params(self.grad, spec)
        self._starts: dict[int, np.ndarray] = {}

    def _row_starts(self, size: int, classes: int) -> np.ndarray:
        """The flat index of each row's first class in logits of `size`
        entries, made once per batch shape."""
        if size not in self._starts:
            self._starts[size] = np.arange(0, size, classes)
        return self._starts[size]

    def loss_rows(
        self, batch: np.ndarray, targets: np.ndarray, scale: float | np.ndarray
    ) -> np.ndarray:
        """Per-row cross-entropy of the batch against `targets`: target
        rows (B, classes), (B, M, classes) or any shape that broadcasts
        against the logits, or integer labels (B,) or (B, M). Returns the
        losses model-major, (B,) or (M, B).

        Leaves in `grad` the gradient of sum_i scale_i * loss_i, where
        `scale` is one number or a column with one entry per row. Its
        logit gradient is scale_i * (p_i - t_i), which is exact because
        every target row sums to one. A label's loss is -log p[label] and
        its logit gradient subtracts 1 at the label only, the bits of its
        one-hot row, whose product adds only exact zeros.
        """
        if batch.ndim == 3 and batch.shape[1:2] != self.params.shape[:-1] or (
                batch.ndim not in (2, 3)):
            raise ValueError(f"rows of shape {batch.shape} for a stack of "
                             f"{self.params.shape[:-1] or 'no'} models")
        outs = _forward_layers(self._layers, self.spec.activation, batch)
        shifted = outs[-1]  # the logits, which the backward pass does not read
        shifted -= _row_reduce(np.maximum, shifted)
        dz = np.exp(shifted)
        total = _row_reduce(np.add, dz)
        dz /= total  # softmax
        # log p of the probabilities themselves, which keeps the loss bit
        # for bit where it was exact before; log-softmax below PROB_FLOOR,
        # where p may underflow to zero
        if targets.dtype.kind in "iu":
            # the label column of every row, through one flat index
            label = targets.ravel() + self._row_starts(dz.size, dz.shape[-1])
            probs = dz.reshape(-1)
            p = probs[label]
            log_p = np.log(np.maximum(p, PROB_FLOOR))
            tail = p < PROB_FLOOR
            if tail.any():
                np.copyto(log_p, shifted.reshape(-1)[label] - np.log(total.reshape(-1)),
                          where=tail)
            probs[label] = p - 1.0
            log_p = log_p.reshape(targets.shape)
        else:
            log_probs = np.log(np.maximum(dz, PROB_FLOOR))
            tail = dz < PROB_FLOOR
            if tail.any():
                np.copyto(log_probs, shifted - np.log(total), where=tail)
            log_probs *= targets
            log_p = _row_reduce(np.add, log_probs)[..., 0]
            dz -= targets
        losses = np.empty(log_p.shape[::-1])
        np.negative(log_p, out=losses.T)  # model-major, for the pairwise mean over rows
        dz *= scale
        _backward_layers(self._layers, self._grad_layers, self.spec.activation, outs, dz)
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
