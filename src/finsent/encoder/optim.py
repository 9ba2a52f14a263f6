"""AdamW with decoupled weight decay and the linear warmup/decay schedule."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamWConfig:
    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")


@dataclass
class OptimizerState:
    """First/second moment accumulators per tensor, plus the step counter."""

    hyper: AdamWConfig = field(default_factory=AdamWConfig)
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def adamw_step(tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: OptimizerState, lr: float | None = None) -> OptimizerState:
    """One bias-corrected AdamW update, in place, on the tensors named in grads.

    The moments are updated in place and the update is built in two
    buffers per tensor, with the same operations, in the same order, as
    the textbook formula, so the results are bit-identical to it.

    Decoupled weight decay applies to matrices only (2-D and higher);
    biases and layernorm gains are 1-D and decay-free.  A non-finite
    gradient aborts before any tensor is touched.
    """
    if lr is None:
        lr = state.hyper.lr
    check_grads(tensors, grads)
    h = state.hyper
    state.step += 1
    t = state.step
    bc1 = 1.0 - h.beta1 ** t
    bc2 = 1.0 - h.beta2 ** t
    for name, g in grads.items():
        p = tensors[name]
        if name not in state.m:  # the moments are made once, at a tensor's first step
            state.m[name], state.v[name] = np.zeros_like(p), np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        # Two buffers hold every temporary of
        # update = (m/bc1) / (sqrt(v/bc2) + eps) [+ wd*p];  p -= lr*update.
        a, b = np.empty_like(p), np.empty_like(p)
        m *= h.beta1
        m += np.multiply(g, 1.0 - h.beta1, out=a)
        v *= h.beta2
        v += np.multiply(np.multiply(g, g, out=a), 1.0 - h.beta2, out=a)
        np.sqrt(np.divide(v, bc2, out=a), out=a)
        a += h.eps
        np.divide(np.divide(m, bc1, out=b), a, out=b)
        if h.weight_decay and p.ndim >= 2:
            b += np.multiply(p, h.weight_decay, out=a)
        p -= np.multiply(b, lr, out=b)
    return state


def check_grads(tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
    """Raises on the first gradient, in order, that names no tensor, has
    another shape than its tensor, or holds a non-finite value."""
    for name, g in grads.items():
        if name not in tensors:
            raise KeyError(f"gradient for unknown tensor {name!r}")
        if tensors[name].shape != np.shape(g):
            raise ValueError(f"gradient shape {np.shape(g)} != tensor shape "
                             f"{tensors[name].shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for {name!r}; step aborted")


def lr_at(step: int, total_steps: int, base_lr: float, warmup_ratio: float) -> float:
    """Linear ramp 0 -> base_lr over ceil(warmup_ratio * total) steps, then
    linear decay to 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if not 0.0 <= warmup_ratio < 1.0:
        raise ValueError("warmup_ratio must lie in [0, 1)")
    warmup = math.ceil(warmup_ratio * total_steps)
    if warmup > 0 and step <= warmup:
        return base_lr * step / warmup
    if total_steps == warmup:
        return base_lr
    return base_lr * (total_steps - step) / (total_steps - warmup)
