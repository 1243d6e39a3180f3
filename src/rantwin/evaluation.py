"""Classifier evaluation: the confusion matrix and its accuracy, an exact
O(n^2) t-SNE for embedding the network outputs in 2-D, and the mean
silhouette score used to quantify cluster separation in that embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .anomaly import CLASS_NAMES, N_CLASSES, write_csv
from .errors import ConfigurationError, DomainError, NumericError, check_fields

# Gradient-descent momentum during early exaggeration and after it, the
# factor P is exaggerated by and the iterations it is exaggerated for.
MOMENTUM = 0.5
FINAL_MOMENTUM = 0.8
EARLY_EXAGGERATION = 12.0
EXAGGERATION_ITERS = 250
# Entropy tolerance (nats) and step limit of the per-point bandwidth search.
PERPLEXITY_TOL = 1e-5
PERPLEXITY_MAX_STEPS = 50
# Rows per block of the n x n passes, whose scratch has this many rows, not n.
# No result depends on it.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[true][pred] over the N_CLASSES anomaly classes."""

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


def write_confusion_csv(cm: ConfusionMatrix, path) -> None:
    """Write `cm` as a header of predicted class names, then one row per true
    class: its name and its counts."""
    names = list(CLASS_NAMES.values())
    write_csv(path, ",".join(["true\\pred", *names]),
              ([name, *row] for name, row in zip(names, cm.counts.tolist())))


def confusion(predictions, labels) -> ConfusionMatrix:
    if len(predictions) != len(labels):
        raise DomainError(f"length mismatch: {len(predictions)} vs {len(labels)}")
    if len(predictions) == 0:
        raise DomainError("cannot score an empty prediction list")
    codes = np.array([predictions, labels], dtype=np.int64)
    outside = (codes < 0) | (codes >= N_CLASSES)
    if outside.any():
        raise DomainError(f"class code {codes[outside][0]} outside 0..{N_CLASSES - 1}")
    counts = np.bincount(codes[1] * N_CLASSES + codes[0], minlength=N_CLASSES * N_CLASSES)
    return ConfusionMatrix(counts=counts.reshape(N_CLASSES, N_CLASSES))


@dataclass(frozen=True)
class TsneConfig:
    perplexity: Annotated[float, "> 1"] = 30.0
    iterations: Annotated[int, ">= 1"] = 1000
    learning_rate: Annotated[float, "> 0"] = 200.0
    seed: Annotated[int, ">= 0"] = 33

    def __post_init__(self):
        check_fields(self, ConfigurationError)


@dataclass(frozen=True)
class Embedding2D:
    points: np.ndarray
    initial_kl: float
    final_kl: float


def _row_blocks(n: int):
    """Slices of at most _BLOCK_ROWS consecutive rows covering range(n)."""
    for start in range(0, n, _BLOCK_ROWS):
        yield slice(start, min(start + _BLOCK_ROWS, n))


def _squared_distances(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                       scratch: np.ndarray) -> np.ndarray:
    """out[i, j] = |a_i - b_j|^2, summed coordinate by coordinate from the
    differences a_ik - b_jk; scratch has out's shape.

    No gram matrix: every entry is >= 0 and a point is exactly 0 from
    itself. Each coordinate's differences are the product
    [a_ik, 1] @ [1, -b_jk], about three times faster than a broadcast
    subtraction. Both of its products are exact, so whatever the BLAS
    kernel, blocking or thread count, it rounds once, as a_ik - b_jk does."""
    a_one = np.ones((len(a), 2))
    one_b = np.ones((2, len(b)))
    for k in range(a.shape[1]):
        a_one[:, 0] = a[:, k]
        np.negative(b[:, k], out=one_b[1])
        diff = np.matmul(a_one, one_b, out=out if k == 0 else scratch)
        np.multiply(diff, diff, out=diff)
        if k:
            np.add(out, diff, out=out)
    return out


def conditional_gaussian_probs(d2: np.ndarray, perplexity: float) -> np.ndarray:
    """Per-row Gaussian conditionals whose entropy matches log(perplexity),
    each row written over the distance row it came from; returns d2.

    The precision beta_i = 1/(2 sigma_i^2) is found by bisection with
    doubling/halving expansion, at most PERPLEXITY_MAX_STEPS steps, to within
    PERPLEXITY_TOL.
    """
    n = d2.shape[0]
    target_entropy = np.log(perplexity)
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
        d2[i] = np.insert(pi, i, 0.0)
    return d2


def joint_probabilities(points: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized affinities P = (P(j|i) + P(i|j)) / 2n; sums to 1.

    P is the one n x n array: it holds the distances, then the conditionals,
    and is symmetrized in place one pair of row blocks at a time."""
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    p = np.empty((n, n))
    scratch = np.empty((min(_BLOCK_ROWS, n), n))
    for rows in _row_blocks(n):
        _squared_distances(x[rows], x, p[rows], scratch[:rows.stop - rows.start])
    conditional_gaussian_probs(p, perplexity)
    pair = scratch[:, :min(_BLOCK_ROWS, n)]
    blocks = list(_row_blocks(n))
    for i, upper in enumerate(blocks):
        for lower in blocks[i:]:
            s = np.add(p[upper, lower], p[lower, upper].T,
                       out=pair[:upper.stop - upper.start, :lower.stop - lower.start])
            np.divide(s, 2.0 * n, out=s)
            p[upper, lower] = s
            p[lower, upper] = s.T
    return p


def _kernel_blocks(y: np.ndarray, w_rows: np.ndarray, scratch: np.ndarray):
    """Yield (rows, w) for each row block: w[r, j] = 1 / (1 + |y_i - y_j|^2)
    for i = rows.start + r, with w[r, i] = 0, in the first rows of w_rows.
    scratch is free again by the time a block is yielded."""
    n = len(y)
    for rows in _row_blocks(n):
        m = rows.stop - rows.start
        w = _squared_distances(y[rows], y, w_rows[:m], scratch[:m])
        np.add(w, 1.0, out=w)
        np.divide(1.0, w, out=w)
        w.reshape(-1)[rows.start::n + 1] = 0.0
        yield rows, w


def _kl_divergence(p: np.ndarray, y: np.ndarray, w_rows: np.ndarray,
                   scratch: np.ndarray) -> float:
    """KL(P || Q) over the entries where P > 0, with Q = w / Z, in one kernel
    pass: as P sums to 1, KL = sum P log(P / w) + log Z."""
    z_rows = np.empty(len(y))
    kl_rows = np.empty(len(y))
    for rows, w in _kernel_blocks(y, w_rows, scratch):
        z_rows[rows] = w.sum(axis=1)
        p_rows = p[rows]
        terms = scratch[:len(w)]
        terms.fill(1.0)
        np.divide(p_rows, w, out=terms, where=p_rows > 0)
        np.multiply(p_rows, np.log(terms, out=terms), out=terms)
        kl_rows[rows] = terms.sum(axis=1)
    return float(kl_rows.sum() + np.log(z_rows.sum()))


def _gradient(p: np.ndarray, y: np.ndarray, exaggeration: float,
              w_rows: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """dKL/dy = 4 (exaggeration * attr - rep / Z) in one kernel pass, with
    attr_i = sum_j p_ij w_ij (y_i - y_j), rep_i = sum_j w_ij^2 (y_i - y_j)
    and Z = sum w.

    Each row's sum over j of a_ij y_j is an einsum over contiguous rows, not
    a gemm: OpenBLAS rounds a gemm row differently with the block's height
    and the thread count."""
    y_cols = np.ascontiguousarray(y.T)
    z_rows = np.empty(len(y))
    attr = np.empty_like(y)
    rep = np.empty_like(y)
    for rows, w in _kernel_blocks(y, w_rows, scratch):
        z_rows[rows] = w.sum(axis=1)
        pw = np.multiply(p[rows], w, out=scratch[:len(w)])
        attr[rows] = pw.sum(axis=1)[:, None] * y[rows] - np.einsum("ij,kj->ik", pw, y_cols)
        w2 = np.multiply(w, w, out=w)
        rep[rows] = w2.sum(axis=1)[:, None] * y[rows] - np.einsum("ij,kj->ik", w2, y_cols)
    return 4.0 * (exaggeration * attr - rep / z_rows.sum())


def tsne(points: np.ndarray, config: TsneConfig) -> Embedding2D:
    """Exact t-SNE to 2-D.

    Pipeline: pairwise squared distances; per-point bandwidth search to the
    configured perplexity; symmetrized P; seeded Gaussian init (sigma 1e-4);
    gradient descent on KL(P||Q) with a Student-t(1) Q, momentum switching
    from MOMENTUM to FINAL_MOMENTUM when early exaggeration ends, and
    per-coordinate adaptive gains. Returns the embedding plus the KL at
    initialization and after the last iteration (both unexaggerated).

    Besides P, only row-block scratch is held: the n x n kernel is streamed
    one block of rows at a time, once per iteration.
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

    w_rows, scratch = np.empty((2, min(_BLOCK_ROWS, n), n))
    initial_kl = _kl_divergence(p, y, w_rows, scratch)

    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    min_gain = 0.01
    for it in range(config.iterations):
        exaggerating = it < EXAGGERATION_ITERS
        momentum = MOMENTUM if exaggerating else FINAL_MOMENTUM
        grad = _gradient(p, y, EARLY_EXAGGERATION if exaggerating else 1.0, w_rows, scratch)

        same_sign = (grad > 0) == (velocity > 0)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        np.clip(gains, min_gain, None, out=gains)
        velocity = momentum * velocity - config.learning_rate * gains * grad
        y = y + velocity
        y = y - y.mean(axis=0)
        if not np.isfinite(y).all():
            raise NumericError(f"non-finite embedding at iteration {it + 1}")

    final_kl = _kl_divergence(p, y, w_rows, scratch)
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

    n = x.shape[0]
    scores = np.zeros(n)
    members = {c: np.flatnonzero(labels == c) for c in classes}
    d_rows, scratch = np.empty((2, min(_BLOCK_ROWS, n), n))
    for rows in _row_blocks(n):
        m = rows.stop - rows.start
        d = _squared_distances(x[rows], x, d_rows[:m], scratch[:m])
        np.sqrt(d, out=d)
        for r, i in enumerate(range(rows.start, rows.stop)):
            own = members[labels[i]]
            if own.size <= 1:
                continue
            a = d[r, own].sum() / (own.size - 1)
            b = min(d[r, members[c]].mean() for c in classes if c != labels[i])
            denom = max(a, b)
            scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())
