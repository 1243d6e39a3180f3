"""Fully connected classifier trained from scratch in float64: ReLU hidden
layers, softmax-cross-entropy output, analytic backprop, mini-batch Adam,
and a line-oriented text serialization with a SHA-256 digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .anomaly import N_CLASSES, N_FEATURES
from .errors import (ConfigurationError, DataFormatError, DomainError, TrainingError,
                     check_fields, names_file)

MODEL_MAGIC = "RANTWIN-MLP v1"

# Adam's moment decay rates and the term that keeps its step finite.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class MlpModel:
    layer_dims: list[int]
    weights: list[np.ndarray]  # weights[l] has shape (dims[l+1], dims[l])
    biases: list[np.ndarray]


@dataclass(frozen=True)
class TrainConfig:
    epochs: Annotated[int, ">= 1"] = 200
    batch_size: Annotated[int, ">= 1"] = 32
    learning_rate: Annotated[float, "> 0"] = 1e-3
    seed: Annotated[int, ">= 0"] = 21

    def __post_init__(self):
        check_fields(self, ConfigurationError)


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)
    initial_loss: float = float("nan")
    final_loss: float = float("nan")
    final_model_hash: str = ""


def init_model(hidden_dims: list[int], seed: int) -> MlpModel:
    """He-scaled Gaussian weights, zero biases, dims [N_FEATURES, *hidden, N_CLASSES].

    An empty hidden list degenerates to multinomial logistic regression.
    """
    for d in hidden_dims:
        if d < 1:
            raise ConfigurationError(f"hidden layer dims must be >= 1, got {d}")
    dims = [N_FEATURES, *hidden_dims, N_CLASSES]
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_dims=dims, weights=weights, biases=biases)


def _softmax(logits: np.ndarray) -> np.ndarray:
    # The ufunc reductions are what .max() and .sum() call, without the
    # Python-level method wrappers.
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _forward_batch(model: MlpModel, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Returns the post-activation value of every layer and the logits."""
    activations = [x]
    a = x
    n_layers = len(model.weights)
    for l in range(n_layers - 1):
        a = np.maximum(0.0, a @ model.weights[l].T + model.biases[l])
        activations.append(a)
    logits = a @ model.weights[-1].T + model.biases[-1]
    return activations, logits


def _checked_logits(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Logits (n, classes) of an (n, inputs) matrix with finite values."""
    if not np.isfinite(x).all():
        raise DomainError("input contains non-finite values")
    return _forward_batch(model, x)[1]


def forward_rows(model: MlpModel, x) -> np.ndarray:
    """Class probabilities (n, classes) for an (n, inputs) matrix; each row
    sums to 1. Each layer is one gemm over the whole batch, so a row's last
    bits depend on the batch's shape and on the BLAS build."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.layer_dims[0]:
        raise DomainError(f"input must have shape (n, {model.layer_dims[0]}), got {x.shape}")
    return _softmax(_checked_logits(model, x))


def forward(model: MlpModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Single-sample pass returning (logits, probs), the one-row batch of
    `forward_rows`; probs sum to 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.layer_dims[0],):
        raise DomainError(f"input must have shape ({model.layer_dims[0]},), got {x.shape}")
    logits = _checked_logits(model, x[None, :])
    return logits[0], _softmax(logits)[0]


def predict_batch(model: MlpModel, x) -> np.ndarray:
    """The class code of every row: the argmax of `forward_rows`."""
    return np.argmax(forward_rows(model, x), axis=1)


def _mean_cross_entropy(probs: np.ndarray, y: np.ndarray, rows: np.ndarray) -> float:
    """Mean of -log probs[i, y[i]] over the rows of probs; `rows` is
    `np.arange(len(y))`."""
    return float(-np.add.reduce(np.log(np.maximum(probs[rows, y], 1e-300))) / len(y))


def _dataset_loss(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    """The loss of `loss_and_grads`, without the backward pass."""
    return _mean_cross_entropy(_softmax(_forward_batch(model, x)[1]), y, np.arange(len(y)))


def loss_and_grads(
    model: MlpModel, x: np.ndarray, y: np.ndarray, grad_w=None, grad_b=None, rows=None
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean cross-entropy of the (n, inputs) matrix x with class codes y,
    and its per-layer weight and bias gradients.

    The gradients are written into `grad_w` and `grad_b`, arrays shaped like
    the model's weights and biases, or into fresh arrays when they are not
    given. `rows` is `np.arange(n)` for the n rows of x, or a longer arange.
    """
    n = x.shape[0]
    rows = np.arange(n) if rows is None else rows[:n]
    activations, logits = _forward_batch(model, x)
    probs = _softmax(logits)
    loss = _mean_cross_entropy(probs, y, rows)

    delta = probs
    delta[rows, y] -= 1.0
    delta /= n

    if grad_w is None:
        grad_w = [np.empty(w.shape) for w in model.weights]
        grad_b = [np.empty(b.shape) for b in model.biases]
    for l in range(len(model.weights) - 1, -1, -1):
        np.matmul(delta.T, activations[l], out=grad_w[l])
        np.add.reduce(delta, axis=0, out=grad_b[l])
        if l > 0:
            delta = (delta @ model.weights[l]) * (activations[l] > 0.0)
    return loss, grad_w, grad_b


def _layer_views(flat: np.ndarray, model: MlpModel) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Views of `flat` shaped like the model's weights and biases, laid out
    W0, b0, W1, b1, ... in layer order."""
    weights, biases = [], []
    pos = 0
    for w, b in zip(model.weights, model.biases):
        weights.append(flat[pos:pos + w.size].reshape(w.shape))
        pos += w.size
        biases.append(flat[pos:pos + b.size].reshape(b.shape))
        pos += b.size
    return weights, biases


def _as_arrays(batch, what: str) -> tuple[np.ndarray, np.ndarray]:
    if len(batch) == 0:
        raise DomainError(f"{what} must be non-empty")
    xs, ys = [], []
    for features, label in batch:
        xs.append(np.asarray(features, dtype=np.float64))
        ys.append(int(label))
    x = np.stack(xs)
    y = np.array(ys, dtype=np.int64)
    if ((y < 0) | (y >= N_CLASSES)).any():
        bad = y[(y < 0) | (y >= N_CLASSES)][0]
        raise DomainError(f"label code {bad} outside 0..{N_CLASSES - 1}")
    return x, y


def train(
    model: MlpModel, train_samples, test_samples, config: TrainConfig
) -> tuple[MlpModel, TrainReport]:
    """Mini-batch Adam with a seeded shuffle per epoch.

    Trains the model's own weight and bias arrays in place and returns the
    model. Raises TrainingError on non-finite loss (naming the epoch) or when
    the full-dataset loss fails to decrease over the run.

    The parameters, their gradients and both Adam moments live in flat
    buffers, and the layer arrays are views of them, so one Adam step is a
    few ufunc calls over all parameters. Each call is the elementwise IEEE
    operation the per-layer update applies, in the same order, so every
    element gets the same bits; the gradient matmuls keep their per-layer
    shapes.
    """
    x_train, y_train = _as_arrays(train_samples, "train set")
    x_test, y_test = _as_arrays(test_samples, "test set")
    n = x_train.shape[0]
    batch_size = config.batch_size
    rng = np.random.default_rng(config.seed)
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, config.learning_rate

    size = sum(w.size + b.size for w, b in zip(model.weights, model.biases))
    theta, grad, m, v, scratch1, scratch2 = np.zeros((6, size))
    work = MlpModel(model.layer_dims, *_layer_views(theta, model))
    grad_w, grad_b = _layer_views(grad, model)
    for dst, src in zip(work.weights + work.biases, model.weights + model.biases):
        np.copyto(dst, src)
    rows = np.arange(min(batch_size, n))

    report = TrainReport()
    report.initial_loss = _dataset_loss(work, x_train, y_train)

    step_count = 0
    try:
        for epoch in range(config.epochs):
            perm = rng.permutation(n)
            x_epoch, y_epoch = x_train[perm], y_train[perm]
            epoch_losses = []
            for start in range(0, n, batch_size):
                loss, _, _ = loss_and_grads(
                    work, x_epoch[start:start + batch_size], y_epoch[start:start + batch_size],
                    grad_w, grad_b, rows,
                )
                if not np.isfinite(loss):
                    raise TrainingError(f"non-finite loss at epoch {epoch + 1}")
                epoch_losses.append(loss)
                step_count += 1
                corr1 = 1.0 - b1 ** step_count
                corr2 = 1.0 - b2 ** step_count
                # m = b1*m + (1-b1)*g
                np.multiply(m, b1, out=m)
                np.multiply(grad, 1 - b1, out=scratch1)
                np.add(m, scratch1, out=m)
                # v = b2*v + (1-b2)*g**2
                np.multiply(v, b2, out=v)
                np.square(grad, out=scratch1)
                np.multiply(scratch1, 1 - b2, out=scratch1)
                np.add(v, scratch1, out=v)
                # theta -= lr*(m/corr1) / (sqrt(v/corr2) + eps); reordering any
                # of these, as in lr/corr1*m, moves the last bits.
                np.divide(m, corr1, out=scratch1)
                np.multiply(scratch1, lr, out=scratch1)
                np.divide(v, corr2, out=scratch2)
                np.sqrt(scratch2, out=scratch2)
                np.add(scratch2, eps, out=scratch2)
                np.divide(scratch1, scratch2, out=scratch1)
                np.subtract(theta, scratch1, out=theta)
            report.train_loss.append(float(np.mean(epoch_losses)))
            report.test_accuracy.append(float((predict_batch(work, x_test) == y_test).mean()))
    finally:
        # The caller's arrays get whatever training reached and share no
        # memory with the buffers.
        for dst, src in zip(model.weights + model.biases, work.weights + work.biases):
            np.copyto(dst, src)

    report.final_loss = _dataset_loss(model, x_train, y_train)
    if not np.isfinite(report.final_loss):
        raise TrainingError(f"non-finite loss at epoch {config.epochs}")
    if report.final_loss >= report.initial_loss:
        raise TrainingError(
            f"training failed to reduce the loss ({report.initial_loss} -> {report.final_loss})"
        )
    report.final_model_hash = model_digest(model)
    return model, report


def serialize_model(model: MlpModel) -> str:
    """Canonical text form: magic, dims, then per layer the weight rows and a
    bias line. Values use shortest round-trip decimal formatting."""
    lines = [MODEL_MAGIC, " ".join(str(d) for d in model.layer_dims)]
    for w, b in zip(model.weights, model.biases):
        for row in w:
            lines.append(" ".join(repr(float(v)) for v in row))
        lines.append(" ".join(repr(float(v)) for v in b))
    return "\n".join(lines) + "\n"


def model_digest(model: MlpModel) -> str:
    return hashlib.sha256(serialize_model(model).encode("utf-8")).hexdigest()


def save_model(model: MlpModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_model(model))


def _parse_vector(line: str, expected: int, what: str) -> np.ndarray:
    parts = line.split()
    if len(parts) != expected:
        raise DataFormatError(f"{what}: expected {expected} values, got {len(parts)}")
    try:
        return np.array([float(v) for v in parts], dtype=np.float64)
    except ValueError as e:
        raise DataFormatError(f"{what}: {e}") from e


@names_file("model")
def load_model(path) -> MlpModel:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise DataFormatError(f"bad magic line, expected {MODEL_MAGIC!r}")
    if len(lines) < 2:
        raise DataFormatError("truncated file: missing dims line")
    try:
        dims = [int(v) for v in lines[1].split()]
    except ValueError as e:
        raise DataFormatError(f"dims line: {e}") from e
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise DataFormatError(f"dims must be >= 2 positive integers, got {dims}")
    if dims[0] != N_FEATURES or dims[-1] != N_CLASSES:
        raise DataFormatError(
            f"dims: model must map {N_FEATURES} inputs to {N_CLASSES} classes, got {dims}"
        )
    weights = []
    biases = []
    pos = 2
    for l, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        if pos + fan_out + 1 > len(lines):
            raise DataFormatError(f"truncated file: layer {l} incomplete")
        rows = [
            _parse_vector(lines[pos + r], fan_in, f"layer {l} weight row {r}")
            for r in range(fan_out)
        ]
        weights.append(np.stack(rows))
        biases.append(_parse_vector(lines[pos + fan_out], fan_out, f"layer {l} bias"))
        pos += fan_out + 1
    if any(line.strip() for line in lines[pos:]):
        raise DataFormatError(f"trailing content after layer {len(dims) - 2}")
    model = MlpModel(layer_dims=dims, weights=weights, biases=biases)
    if not all(np.isfinite(w).all() for w in weights) or not all(
        np.isfinite(b).all() for b in biases
    ):
        raise DataFormatError("model parameters must be finite")
    return model
