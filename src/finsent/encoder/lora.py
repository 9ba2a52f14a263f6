"""Low-rank adapters: frozen base weight W plus trainable delta (alpha/r) B A."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._rng import OP_ADAPTER_INIT, substream
from .model import EncoderParams, param_shapes

#: Adapters attach to attention query/value projections unless configured.
DEFAULT_TARGETS = ("W_Q", "W_V")

#: Weight names an adapter may attach to ('W_o' is the classifier head).
VALID_TARGETS = ("W_Q", "W_K", "W_V", "W_O", "W1", "W2", "W_o")


@dataclass
class LoraAdapter:
    """A: (r, n), B: (m, r) for an (m, n) base weight; B starts at zero."""

    A: np.ndarray
    B: np.ndarray
    rank: int
    alpha: float

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("adapter rank must be at least 1")
        if self.A.shape[0] != self.rank or self.B.shape[1] != self.rank:
            raise ValueError(f"adapter tensors {self.A.shape}/{self.B.shape} "
                             f"inconsistent with rank {self.rank}")

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    def delta(self) -> np.ndarray:
        return self.scale * (self.B @ self.A)


def init_adapter(shape: tuple[int, int], rank: int, alpha: float,
                 rng: np.random.Generator) -> LoraAdapter:
    """A ~ uniform(+-1/sqrt(r)), B = 0, so the initial delta is exactly zero."""
    m, n = shape
    bound = 1.0 / math.sqrt(rank)
    return LoraAdapter(A=rng.uniform(-bound, bound, size=(rank, n)),
                       B=np.zeros((m, rank)), rank=rank, alpha=alpha)


def merge_adapter(W: np.ndarray, adapter: LoraAdapter) -> np.ndarray:
    """W + (alpha/r) B A as a dense matrix; the adapted forward is unchanged."""
    if (adapter.B.shape[0], adapter.A.shape[1]) != W.shape:
        raise ValueError(f"adapter {adapter.B.shape}x{adapter.A.shape} does not "
                         f"fit weight {W.shape}")
    return W + adapter.delta()


def init_adapters(config, targets=DEFAULT_TARGETS, rank: int = 4,
                  alpha: float = 8.0, seed: int = 0) -> dict[str, LoraAdapter]:
    """One adapter per requested weight, keyed by flat parameter name.

    Per-layer targets apply to every layer; 'W_o' targets the output head.
    """
    for t in targets:
        if t not in VALID_TARGETS:
            raise ValueError(f"unknown adapter target {t!r} "
                             f"(expected one of {VALID_TARGETS})")
    shapes = param_shapes(config)
    names = [f"layers.{li}.{t}" for li in range(config.n_layers)
             for t in targets if t != "W_o"]
    if "W_o" in targets:
        names.append("W_o")
    adapters: dict[str, LoraAdapter] = {}
    for counter, name in enumerate(names):
        rng = substream(seed, OP_ADAPTER_INIT, counter)
        adapters[name] = init_adapter(shapes[name], rank, alpha, rng)
    return adapters


def merge_all(params: EncoderParams, adapters: dict[str, LoraAdapter]) -> EncoderParams:
    """New EncoderParams with every adapter folded into its base weight."""
    merged = params.copy()
    for target, ad in adapters.items():
        merged[target] = merge_adapter(merged[target], ad)
    return merged
