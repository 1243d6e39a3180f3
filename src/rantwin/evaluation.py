"""Classifier evaluation: the confusion matrix and its accuracy, an exact
O(n^2) t-SNE for embedding the network outputs in 2-D, and the mean
silhouette score used to quantify cluster separation in that embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anomaly import CLASS_NAMES, AnomalyClass, N_CLASSES
from .errors import ConfigurationError, DomainError, NumericError

_EPS = np.finfo(np.float64).eps

# Gradient-descent momentum during early exaggeration and after it, and the
# factor P is exaggerated by.
MOMENTUM = 0.5
FINAL_MOMENTUM = 0.8
EARLY_EXAGGERATION = 12.0
# Entropy tolerance (nats) and step limit of the per-point bandwidth search.
PERPLEXITY_TOL = 1e-5
PERPLEXITY_MAX_STEPS = 50
# Rows per block of the n x n passes, whose scratch has this many rows, not n.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[true][pred] over the four anomaly classes."""

    counts: np.ndarray

    def total(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total()

    def recall(self) -> np.ndarray:
        row = self.counts.sum(axis=1)
        return np.divide(
            np.diag(self.counts), row, out=np.zeros(N_CLASSES), where=row > 0
        )

    def precision(self) -> np.ndarray:
        col = self.counts.sum(axis=0)
        return np.divide(
            np.diag(self.counts), col, out=np.zeros(N_CLASSES), where=col > 0
        )

    def to_csv(self) -> str:
        names = [CLASS_NAMES[AnomalyClass(i)] for i in range(N_CLASSES)]
        lines = ["true\\pred," + ",".join(names)]
        for i, name in enumerate(names):
            lines.append(name + "," + ",".join(str(int(v)) for v in self.counts[i]))
        return "\n".join(lines) + "\n"


def confusion(predictions, labels) -> ConfusionMatrix:
    if len(predictions) != len(labels):
        raise DomainError(f"length mismatch: {len(predictions)} vs {len(labels)}")
    if len(predictions) == 0:
        raise DomainError("cannot score an empty prediction list")
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for p, t in zip(predictions, labels):
        counts[int(t), int(p)] += 1
    return ConfusionMatrix(counts=counts)


@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 200.0
    exaggeration_iters: int = 250
    seed: int = 33

    def __post_init__(self):
        if not (math.isfinite(self.perplexity) and self.perplexity > 1.0):
            raise ConfigurationError(f"perplexity must be finite and > 1, got {self.perplexity}")
        if self.iterations < 1:
            raise ConfigurationError(f"iterations must be >= 1, got {self.iterations}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.exaggeration_iters < 0:
            raise ConfigurationError("exaggeration_iters must be >= 0")


@dataclass(frozen=True)
class Embedding2D:
    points: np.ndarray
    initial_kl: float
    final_kl: float


def _squared_distances(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared distances, clipped at 0, with a zero diagonal, into `out`
    if given. It first holds the gram g = x @ x.T (numpy's syrk call whatever
    `out` is); sq_i + sq_j - 2g replaces g one row block at a time."""
    sq = (x * x).sum(axis=1)
    d2 = np.matmul(x, x.T, out=out)
    rows = np.empty((min(_BLOCK_ROWS, len(sq)), len(sq)))
    for start in range(0, len(sq), _BLOCK_ROWS):
        g = d2[start:start + _BLOCK_ROWS]
        np.multiply(2.0, g, out=g)
        s = np.add(sq[start:start + _BLOCK_ROWS, None], sq[None, :], out=rows[:len(g)])
        np.subtract(s, g, out=g)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0, out=d2)


def conditional_gaussian_probs(d2: np.ndarray, perplexity: float) -> np.ndarray:
    """Per-row Gaussian conditionals whose entropy matches log(perplexity).

    The precision beta_i = 1/(2 sigma_i^2) is found by bisection with
    doubling/halving expansion, at most PERPLEXITY_MAX_STEPS steps, to within
    PERPLEXITY_TOL. Returns P_conditional.
    """
    n = d2.shape[0]
    target_entropy = np.log(perplexity)
    p = np.zeros((n, n))
    for i in range(n):
        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        di = np.delete(d2[i], i)
        for _ in range(PERPLEXITY_MAX_STEPS):
            expd = np.exp(-di * beta)
            sum_e = expd.sum()
            if sum_e <= 0.0:
                entropy = 0.0
                pi = np.zeros_like(di)
            else:
                pi = expd / sum_e
                entropy = np.log(sum_e) + beta * float((di * pi).sum())
            diff = entropy - target_entropy
            if abs(diff) <= PERPLEXITY_TOL:
                break
            if diff > 0:
                beta_min = beta
                beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == -np.inf else (beta + beta_min) / 2.0
        if sum_e <= 0.0:
            pi = np.full_like(di, 1.0 / (n - 1))
        row = np.insert(pi, i, 0.0)
        p[i] = row
    return p


def joint_probabilities(points: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized affinities P = (P(j|i) + P(i|j)) / 2n; sums to 1."""
    x = np.asarray(points, dtype=np.float64)
    d2 = _squared_distances(x)
    p_cond = conditional_gaussian_probs(d2, perplexity)
    p = np.add(p_cond, p_cond.T, out=d2)
    return np.divide(p, 2.0 * x.shape[0], out=p)


def _student_t_kernel(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w = 1 / (1 + |y_i - y_j|^2) in place, with a zero diagonal."""
    _squared_distances(y, out=w)
    np.divide(1.0, np.add(1.0, w, out=w), out=w)
    np.fill_diagonal(w, 0.0)
    return w


def _kl_divergence(p: np.ndarray, w: np.ndarray) -> float:
    """KL(P || Q) over the entries where P > 0, with Q = w / w.sum(); overwrites w.

    Q and then P / max(Q, eps) are formed in place in w. Each row block's
    P > 0 terms are packed in row order at the front of w, short of the rows
    of later blocks, so the sum runs over the vector P[P > 0] * log(...)
    with its pairwise tree."""
    q = np.divide(w, w.sum(), out=w)
    ratio = np.divide(p, np.maximum(q, _EPS, out=q), out=q)
    terms = w.reshape(-1)
    end = 0
    for start in range(0, len(p), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        kept = p[rows] > 0
        block = ratio[rows][kept]
        np.log(block, out=block)
        terms[end:end + len(block)] = np.multiply(p[rows][kept], block, out=block)
        end += len(block)
    return float(terms[:end].sum())


def tsne(points: np.ndarray, config: TsneConfig) -> Embedding2D:
    """Exact t-SNE to 2-D.

    Pipeline: pairwise squared distances; per-point bandwidth search to the
    configured perplexity; symmetrized P; seeded Gaussian init (sigma 1e-4);
    gradient descent on KL(P||Q) with a Student-t(1) Q, momentum switching
    from MOMENTUM to FINAL_MOMENTUM when early exaggeration ends, and
    per-coordinate adaptive gains. Returns the embedding plus the KL at
    initialization and after the last iteration (both unexaggerated).
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 4:
        raise ConfigurationError(f"need at least 4 points, got shape {x.shape}")
    n = x.shape[0]
    if config.perplexity >= (n - 1) / 3.0:
        raise ConfigurationError(
            f"perplexity {config.perplexity} infeasible for {n} points "
            f"(must be < (n-1)/3 = {(n - 1) / 3.0:.2f})"
        )

    p = joint_probabilities(x, config.perplexity)
    rng = np.random.default_rng(config.seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2))

    # Besides P, the descent keeps one n x n buffer, w: y @ y.T, the squared
    # distances, the Student-t kernel, then (P - Q) * w. Q = w / w.sum() and
    # P * EARLY_EXAGGERATION exist only as row blocks, in q_rows and p_rows.
    w = np.empty((n, n))
    initial_kl = _kl_divergence(p, _student_t_kernel(y, w))

    q_rows, p_rows = np.empty((2, min(_BLOCK_ROWS, n), n))
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    min_gain = 0.01
    for it in range(config.iterations):
        exaggerating = it < config.exaggeration_iters
        momentum = MOMENTUM if exaggerating else FINAL_MOMENTUM

        s = _student_t_kernel(y, w).sum()
        for start in range(0, n, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            w_rows = w[block]
            q = np.divide(w_rows, s, out=q_rows[:len(w_rows)])
            p_eff = (np.multiply(p[block], EARLY_EXAGGERATION, out=p_rows[:len(w_rows)])
                     if exaggerating else p[block])
            np.multiply(np.subtract(p_eff, q, out=q), w_rows, out=w_rows)
        grad = 4.0 * (w.sum(axis=1)[:, None] * y - w @ y)

        same_sign = (grad > 0) == (velocity > 0)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        np.clip(gains, min_gain, None, out=gains)
        velocity = momentum * velocity - config.learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)
        if not np.isfinite(y).all():
            raise NumericError(f"non-finite embedding at iteration {it + 1}")

    final_kl = _kl_divergence(p, _student_t_kernel(y, w))
    return Embedding2D(points=y, initial_kl=initial_kl, final_kl=final_kl)


def silhouette(points: np.ndarray, labels) -> float:
    """Mean silhouette with Euclidean distance.

    Singleton clusters contribute 0, as do points with a == b == 0.
    """
    x = np.asarray(points, dtype=np.float64)
    labels = np.asarray([int(v) for v in labels])
    if x.shape[0] != labels.shape[0]:
        raise DomainError("points and labels must have equal length")
    # np.unique would import numpy.ma, about 1 MB, on its first call
    classes = sorted(set(labels.tolist()))
    if len(classes) < 2:
        raise DomainError("silhouette requires at least 2 distinct labels")

    d = _squared_distances(x)
    np.sqrt(d, out=d)
    scores = np.zeros(x.shape[0])
    members = {c: np.flatnonzero(labels == c) for c in classes}
    for i in range(x.shape[0]):
        own = members[labels[i]]
        if own.size <= 1:
            continue
        a = d[i, own].sum() / (own.size - 1)
        b = min(d[i, members[c]].mean() for c in classes if c != labels[i])
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())
