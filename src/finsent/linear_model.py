"""Multinomial logistic regression over sparse TF-IDF rows.

Plain gradient descent with optional L2 penalty from zero initialization.
Full batch (`batch_size` 0) takes one `loss_and_grad` per epoch and draws no
permutation, so its runs are seed-free; mini-batch permutes every epoch.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

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
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


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


def loss_and_grad(params: LinearParams, X, y, l2: float = 0.0):
    """Mean cross-entropy and its exact gradients over a batch.

    X: (N, dim) sparse or dense; y: integer class indices (N,).
    With l2 > 0 the penalty l2 * ||W||^2 (and its gradient) is added.
    """
    X = _as_2d(X)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if X.shape[1] != params.dim:
        raise ValueError(f"feature dim {X.shape[1]} != model dim {params.dim}")

    logits = np.asarray(X @ params.W.T + params.b)
    probs = softmax(logits, axis=1)
    loss = float(-np.mean(np.log(probs[np.arange(n), y])))

    g = probs.copy()
    g[np.arange(n), y] -= 1.0
    g /= n
    dW = np.asarray((X.T @ g).T)
    db = g.sum(axis=0)
    if l2:
        loss += l2 * float(np.sum(params.W ** 2))
        dW = dW + 2.0 * l2 * params.W
    return loss, dW, db


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


def train(X, y, hyper: LinearTrainConfig) -> tuple[LinearParams, list[float]]:
    """Gradient descent from zero init.

    Returns the trained parameters and the full-training-set loss recorded
    at the end of every epoch.  Full batch ignores the permutation: the
    full-set `loss_and_grad` that ends one epoch also gives the next epoch's
    step, epochs + 1 calls in all.  Mini-batch steps over a seeded per-epoch
    permutation, then recomputes the full-set loss.
    """
    X = _as_2d(X)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    if n != len(y):
        raise ValueError(f"{n} feature rows vs {len(y)} labels")

    params = LinearParams.zeros(X.shape[1])
    batch = hyper.batch_size
    trace: list[float] = []
    full = None  # (loss, dW, db) over the whole set at the current params
    for epoch in range(hyper.epochs):
        if batch > 0:  # lazy, so that each batch's gradient sees the last step
            order = substream(hyper.seed, OP_LINEAR_TRAIN, epoch).permutation(n)
            steps = (loss_and_grad(params, X[idx], y[idx], hyper.l2)
                     for idx in (order[s:s + batch] for s in range(0, n, batch)))
        else:
            steps = [full or loss_and_grad(params, X, y, hyper.l2)]
        for _, dW, db in steps:
            params.W -= hyper.lr * dW
            params.b -= hyper.lr * db
        full = loss_and_grad(params, X, y, hyper.l2)
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
