"""Multinomial logistic regression over sparse TF-IDF rows.

Plain gradient descent with optional L2 penalty from zero initialization.
Training takes each distinct row once, with `rows` mapping every record to
its row: full batch (`batch_size` 0) weights each row by its count, takes one
`loss_and_grad` per epoch and draws no permutation, so its runs are
seed-free; mini-batch permutes the records every epoch.  Full batch also
takes rows cut in `Halves`, each held by a server that may be a forked
peer: each epoch's loss and gradients are then the sums of the halves'.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import _fork
from ._rng import OP_LINEAR_TRAIN, substream

N_CLASSES = 3

CHECKPOINT_FORMAT = "finsent-linear"
CHECKPOINT_VERSION = 1


def softmax(logits, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max-subtraction).  The rows of a 2-D array
    are reduced class-major, on a contiguous transposed copy: much faster than
    over a few-wide last axis, and bit-identical for up to 7 classes."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim == 2 and axis in (1, -1):
        return softmax(np.ascontiguousarray(z.T), axis=0).T
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    e = z - z.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


@dataclass
class LinearParams:
    W: np.ndarray  # (n_classes, dim)
    b: np.ndarray  # (n_classes,)

    @classmethod
    def zeros(cls, dim: int, n_classes: int = N_CLASSES) -> "LinearParams":
        return cls(W=np.zeros((n_classes, dim)), b=np.zeros(n_classes))

    @property
    def dim(self) -> int:
        return self.W.shape[1]


def _as_2d(x):
    if sp.issparse(x):
        return x
    arr = np.asarray(x, dtype=np.float64)
    return arr[None, :] if arr.ndim == 1 else arr


def forward(params: LinearParams, features) -> tuple[np.ndarray, np.ndarray]:
    """Logits W.x + b and softmax probabilities; accepts sparse or dense rows."""
    X = _as_2d(features)
    if X.shape[1] != params.dim:
        raise ValueError(f"feature dim {X.shape[1]} != model dim {params.dim}")
    logits = X @ params.W.T + params.b
    logits = np.asarray(logits)
    probs = softmax(logits, axis=-1)
    if not sp.issparse(features) and np.asarray(features).ndim == 1:
        return logits[0], probs[0]
    return logits, probs


def loss_and_grad(params: LinearParams, X, y, l2: float = 0.0, weights=None):
    """Cross-entropy and its exact gradients over a batch, each row's term
    weighted by `weights` (default: the mean, 1/N each).

    X: (N, dim) sparse or dense; y: integer class indices (N,); weights:
    (N,) floats, `counts / counts.sum()` to stand for rows repeated `counts`
    times.  With l2 > 0 the penalty l2 * ||W||^2 (and its gradient) is added.
    Logits, probabilities and their gradient are held class-major, (3, N)
    and contiguous: reductions over a 3-wide last axis are slow.
    """
    X = _as_2d(X)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if X.shape[1] != params.dim:
        raise ValueError(f"feature dim {X.shape[1]} != model dim {params.dim}")

    g = softmax(np.asarray(X @ params.W.T + params.b), axis=1).T  # (3, N), contiguous
    at_label = y * n + np.arange(n)  # flat indices of each row's label entry
    g_flat = g.reshape(-1)
    log_p = np.log(g_flat[at_label])
    g_flat[at_label] -= 1.0
    if weights is None:
        loss = -float(np.mean(log_p))
        g /= n
    else:  # no BLAS dot: waking its threads costs more than the sum
        weights = np.asarray(weights, dtype=np.float64)
        loss = -float(np.sum(log_p * weights))
        g *= weights
    return _with_l2(params, l2, loss, np.asarray(X.T @ g.T).T, g.sum(axis=1))


def _with_l2(params: LinearParams, l2: float, loss: float, dW, db):
    """(loss, dW, db) with the penalty l2 * ||W||^2 and its gradient added."""
    if l2:
        loss += l2 * float(np.sum(params.W ** 2))
        dW = dW + 2.0 * l2 * params.W
    return loss, dW, db


@dataclass(frozen=True)
class Halves:
    """Distinct rows cut in two for full-batch training, each half held by
    one of two servers (a `_fork.Peer`, or `_fork.InProcess` for a half held
    here) that answers `send("grad", W, b)` with `loss_and_grad` over its
    rows, each weighted by its share of all the records, l2 left out.
    `shape` is that of all the rows, the first server's first."""

    servers: tuple
    shape: tuple[int, int]

    def loss_and_grad(self, params: LinearParams, l2: float = 0.0):
        """`loss_and_grad` over all the rows: the halves' sums, the penalty
        added once."""
        (loss, dW, db), (loss2, dW2, db2) = _fork.ask(self.servers, "grad",
                                                      params.W, params.b)
        return _with_l2(params, l2, loss + loss2, dW + dW2, db + db2)


@dataclass(frozen=True)
class LinearTrainConfig:
    lr: float = 0.5
    epochs: int = 100
    batch_size: int = 0  # 0 = full batch
    l2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if min(self.epochs, self.batch_size, self.l2) < 0:
            raise ValueError("epochs, batch_size and l2 must be non-negative")


def train(X, y, hyper: LinearTrainConfig,
          rows=None) -> tuple[LinearParams, list[float]]:
    """Gradient descent from zero init over records that may repeat.

    X and y hold the distinct rows, and record i is row `rows[i]` (default:
    every row one record).  Returns the trained parameters and the loss over
    all records recorded at the end of every epoch.  Full batch weights each
    row by its share of the records, so one pass over the distinct rows gives
    the mean over all records, summed in another order; the full-set
    `loss_and_grad` that ends one epoch also gives the next epoch's step,
    epochs + 1 calls in all, and no permutation is drawn.  X may be
    `Halves` (full batch only), whose servers hold their own labels and
    weights; y and rows then only size the set.  Mini-batch steps over a
    seeded per-epoch permutation of the records, gathering each batch's
    rows, so its steps are those of the expanded matrix; then it recomputes
    the full-set loss.
    """
    if not isinstance(X, Halves):
        X = _as_2d(X)
    elif hyper.batch_size:
        raise ValueError("rows cut in halves train full batch only")
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] != len(y):
        raise ValueError(f"{X.shape[0]} feature rows vs {len(y)} labels")
    weights = None
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) == 0 or rows.min() < 0 or rows.max() >= len(y):
            raise ValueError(f"record rows must be a non-empty list of 0..{len(y) - 1}")
        weights = np.bincount(rows, minlength=len(y)) / len(rows)
    n = len(y) if rows is None else len(rows)

    params = LinearParams.zeros(X.shape[1])

    def whole():
        if isinstance(X, Halves):
            return X.loss_and_grad(params, hyper.l2)
        return loss_and_grad(params, X, y, hyper.l2, weights)

    batch = hyper.batch_size
    trace: list[float] = []
    full = None  # (loss, dW, db) over the whole set at the current params
    for epoch in range(hyper.epochs):
        if batch > 0:  # lazy, so that each batch's gradient sees the last step
            order = substream(hyper.seed, OP_LINEAR_TRAIN, epoch).permutation(n)
            if rows is not None:
                order = rows[order]
            steps = (loss_and_grad(params, X[idx], y[idx], hyper.l2)
                     for idx in (order[s:s + batch] for s in range(0, n, batch)))
        else:
            steps = [full or whole()]
        for _, dW, db in steps:
            params.W -= hyper.lr * dW
            params.b -= hyper.lr * db
        full = whole()
        trace.append(full[0])
    return params, trace


def predict(params: LinearParams, X) -> np.ndarray:
    """Argmax class index per row."""
    logits, _ = forward(params, _as_2d(X))
    return np.argmax(logits, axis=1)


def save_checkpoint(params: LinearParams, path) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "n_classes": params.W.shape[0],
        "dim": params.W.shape[1],
        "W": params.W.tolist(),
        "b": params.b.tolist(),
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_checkpoint(path) -> LinearParams:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a linear checkpoint: {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {doc.get('version')}")
    W = np.array(doc["W"], dtype=np.float64)
    b = np.array(doc["b"], dtype=np.float64)
    if W.shape != (doc["n_classes"], doc["dim"]) or b.shape != (doc["n_classes"],):
        raise ValueError("checkpoint tensor shapes do not match header")
    return LinearParams(W, b)
