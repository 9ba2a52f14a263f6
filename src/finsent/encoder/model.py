"""Transformer-encoder classifier in plain numpy with exact manual gradients.

Architecture: learned token + position embeddings, `n_layers` post-norm
blocks (multi-head self-attention, then a GELU feed-forward, each wrapped
as LayerNorm(residual + sublayer)), masked mean-pooling over the final
states, and a dense 3-class head.  Every weight matrix can carry a
low-rank adapter; the forward then computes X@W + scale*((X@B)@A).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import erf

from .._rng import OP_ENCODER_INIT, substream
from .lora import LoraAdapter

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int = 32
    n_heads: int = 4
    d_ff: int = 64
    n_layers: int = 2
    max_seq_len: int = 32
    n_classes: int = 3
    layernorm_eps: float = 1e-5

    def __post_init__(self):
        if min(self.vocab_size, self.d_model, self.n_heads, self.d_ff,
               self.max_seq_len, self.n_classes) < 1:
            raise ValueError("all encoder dimensions must be at least 1")
        if self.n_layers < 0:
            raise ValueError("n_layers must be non-negative")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model={self.d_model} not divisible by "
                             f"n_heads={self.n_heads}")

    @property
    def d_k(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class LayerParams:
    W_Q: np.ndarray
    W_K: np.ndarray
    W_V: np.ndarray
    W_O: np.ndarray
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray


@dataclass
class EncoderParams:
    W_e: np.ndarray  # (vocab_size, d_model)
    P: np.ndarray    # (max_seq_len, d_model)
    layers: list[LayerParams]
    W_o: np.ndarray  # (d_model, n_classes)
    b_o: np.ndarray  # (n_classes,)

    def to_dict(self) -> dict[str, np.ndarray]:
        """Flat name->tensor view (references, not copies)."""
        out = {"W_e": self.W_e, "P": self.P, "W_o": self.W_o, "b_o": self.b_o}
        for i, layer in enumerate(self.layers):
            for f in fields(LayerParams):
                out[f"layers.{i}.{f.name}"] = getattr(layer, f.name)
        return out

    @classmethod
    def from_dict(cls, tensors: dict[str, np.ndarray], n_layers: int) -> "EncoderParams":
        layers = [
            LayerParams(**{f.name: tensors[f"layers.{i}.{f.name}"]
                           for f in fields(LayerParams)})
            for i in range(n_layers)
        ]
        return cls(W_e=tensors["W_e"], P=tensors["P"], layers=layers,
                   W_o=tensors["W_o"], b_o=tensors["b_o"])

    def copy(self) -> "EncoderParams":
        return EncoderParams.from_dict(
            {k: v.copy() for k, v in self.to_dict().items()}, len(self.layers))


def init_params(config: EncoderConfig, seed: int) -> EncoderParams:
    """uniform(+-1/sqrt(fan_in)) weights; embeddings use fan_in = d_model;
    layernorm gains 1, all biases 0."""
    rng = substream(seed, OP_ENCODER_INIT)
    d = config.d_model

    def uni(shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    layers = []
    for _ in range(config.n_layers):
        layers.append(LayerParams(
            W_Q=uni((d, d), d), W_K=uni((d, d), d),
            W_V=uni((d, d), d), W_O=uni((d, d), d),
            W1=uni((d, config.d_ff), d), b1=np.zeros(config.d_ff),
            W2=uni((config.d_ff, d), config.d_ff), b2=np.zeros(d),
            ln1_gain=np.ones(d), ln1_bias=np.zeros(d),
            ln2_gain=np.ones(d), ln2_bias=np.zeros(d),
        ))
    return EncoderParams(
        W_e=uni((config.vocab_size, d), d),
        P=uni((config.max_seq_len, d), d),
        layers=layers,
        W_o=uni((d, config.n_classes), d),
        b_o=np.zeros(config.n_classes),
    )


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    phi = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    Phi = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return Phi + x * phi


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row softmax tolerating -inf entries (fully -inf rows are invalid)."""
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> np.ndarray:
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis."""
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def attention(Q, K, V, mask=None, return_weights: bool = False):
    """softmax(Q K^T / sqrt(d_k)) V with masked key positions at -inf.

    `mask` is a length-n 0/1 vector over positions; at least one position
    must be unmasked.
    """
    Q = np.asarray(Q, dtype=np.float64)
    K = np.asarray(K, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    scores = Q @ K.T / math.sqrt(Q.shape[1])
    if mask is not None:
        mask = np.asarray(mask)
        if not mask.any():
            raise ValueError("all positions are masked")
        scores = np.where(mask[None, :] != 0, scores, -np.inf)
    weights = softmax_rows(scores)
    out = weights @ V
    return (out, weights) if return_weights else out


# -- linear layers with optional low-rank adapters ---------------------------

def _lin_fwd(X, W, adapter: LoraAdapter | None):
    if adapter is None:
        return X @ W, None
    U = X @ adapter.B
    return X @ W + adapter.scale * (U @ adapter.A), U


def _lin_bwd(X, W, adapter: LoraAdapter | None, U, dH):
    dX = dH @ W.T
    dW = X.T @ dH
    if adapter is None:
        return dX, dW, None, None
    dHA = dH @ adapter.A.T
    dX += adapter.scale * (dHA @ adapter.B.T)
    dA = adapter.scale * (U.T @ dH)
    dB = adapter.scale * (X.T @ dHA)
    return dX, dW, dA, dB


def multi_head_attention(X, layer: LayerParams, n_heads: int, mask=None) -> np.ndarray:
    """Heads on column slices of the Q/K/V projections, concatenated, then W_O."""
    X = np.asarray(X, dtype=np.float64)
    d_model = X.shape[1]
    if d_model % n_heads != 0:
        raise ValueError("d_model not divisible by n_heads")
    d_k = d_model // n_heads
    Q, K, V = X @ layer.W_Q, X @ layer.W_K, X @ layer.W_V
    out = np.empty_like(X)
    for h in range(n_heads):
        sl = slice(h * d_k, (h + 1) * d_k)
        out[:, sl] = attention(Q[:, sl], K[:, sl], V[:, sl], mask)
    return out @ layer.W_O


def _ln_fwd(x, gain, bias, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return xhat * gain + bias, (xhat, inv)


def _ln_bwd(dy, gain, ln_cache):
    xhat, inv = ln_cache
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    dxhat = dy * gain
    dx = inv * (dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dgain, dbias


def _check_inputs(ids, mask, config: EncoderConfig):
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.int64)
    if ids.ndim != 1 or mask.shape != ids.shape:
        raise ValueError("ids and mask must be equal-length 1-D sequences")
    if ids.size == 0 or not mask.any():
        raise ValueError("empty unmasked sequence")
    if ids.size > config.max_seq_len:
        raise ValueError(f"sequence length {ids.size} exceeds max_seq_len "
                         f"{config.max_seq_len}")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError("token id out of range")
    return ids, mask


def encoder_forward(ids, mask, params: EncoderParams, config: EncoderConfig,
                    adapters: dict[str, LoraAdapter] | None = None,
                    return_cache: bool = False):
    """Class logits for one sequence; optionally the activation cache."""
    ids, mask = _check_inputs(ids, mask, config)
    adapters = adapters or {}
    n = ids.size
    scale = 1.0 / math.sqrt(config.d_k)
    fmask = mask.astype(np.float64)

    X = params.W_e[ids] + params.P[:n]
    cache = {"ids": ids, "mask": mask, "X0": X, "layers": []}

    for li, layer in enumerate(params.layers):
        pref = f"layers.{li}."
        lc: dict = {"X_in": X}
        Q, lc["UQ"] = _lin_fwd(X, layer.W_Q, adapters.get(pref + "W_Q"))
        K, lc["UK"] = _lin_fwd(X, layer.W_K, adapters.get(pref + "W_K"))
        V, lc["UV"] = _lin_fwd(X, layer.W_V, adapters.get(pref + "W_V"))
        Pw = np.empty((config.n_heads, n, n))
        O = np.empty_like(X)
        for h in range(config.n_heads):
            sl = slice(h * config.d_k, (h + 1) * config.d_k)
            S = Q[:, sl] @ K[:, sl].T * scale
            S = np.where(mask[None, :] != 0, S, -np.inf)
            Pw[h] = softmax_rows(S)
            O[:, sl] = Pw[h] @ V[:, sl]
        M, lc["UO"] = _lin_fwd(O, layer.W_O, adapters.get(pref + "W_O"))
        A1 = X + M
        Z, lc["ln1"] = _ln_fwd(A1, layer.ln1_gain, layer.ln1_bias, config.layernorm_eps)
        U1, lc["UW1"] = _lin_fwd(Z, layer.W1, adapters.get(pref + "W1"))
        U1 = U1 + layer.b1
        G = gelu(U1)
        F, lc["UW2"] = _lin_fwd(G, layer.W2, adapters.get(pref + "W2"))
        F = F + layer.b2
        A2 = Z + F
        Xn, lc["ln2"] = _ln_fwd(A2, layer.ln2_gain, layer.ln2_bias, config.layernorm_eps)
        lc.update(Q=Q, K=K, V=V, Pw=Pw, O=O, Z=Z, U1=U1, G=G)
        cache["layers"].append(lc)
        X = Xn

    denom = fmask.sum()
    pooled = (X * fmask[:, None]).sum(axis=0) / denom
    head_out, Uo = _lin_fwd(pooled[None, :], params.W_o, adapters.get("W_o"))
    logits = head_out[0] + params.b_o

    if not return_cache:
        return logits
    cache.update(X_final=X, pooled=pooled, Uo=Uo, denom=denom, fmask=fmask)
    return logits, cache


def encoder_backward(dlogits, cache, params: EncoderParams, config: EncoderConfig,
                     adapters: dict[str, LoraAdapter] | None = None):
    """Gradients of a scalar loss given d(loss)/d(logits) and a forward cache.

    Returns a flat dict: base tensors under their parameter names, adapter
    tensors under 'adapters.<target>.A' / '.B'.
    """
    adapters = adapters or {}
    grads: dict[str, np.ndarray] = {}
    scale = 1.0 / math.sqrt(config.d_k)

    def put_adapter(target, dA, dB):
        if dA is not None:
            grads[f"adapters.{target}.A"] = dA
            grads[f"adapters.{target}.B"] = dB

    # head and pooling
    grads["b_o"] = np.asarray(dlogits, dtype=np.float64).copy()
    dhead = grads["b_o"][None, :]
    dpooled, dW_o, dA, dB = _lin_bwd(cache["pooled"][None, :], params.W_o,
                                     adapters.get("W_o"), cache["Uo"], dhead)
    grads["W_o"] = dW_o
    put_adapter("W_o", dA, dB)
    dX = np.outer(cache["fmask"] / cache["denom"], dpooled[0])

    for li in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[li]
        lc = cache["layers"][li]
        pref = f"layers.{li}."

        dA2, dg2, dc2 = _ln_bwd(dX, layer.ln2_gain, lc["ln2"])
        grads[pref + "ln2_gain"] = dg2
        grads[pref + "ln2_bias"] = dc2
        dZ = dA2.copy()
        dF = dA2
        grads[pref + "b2"] = dF.sum(axis=0)
        dG, dW2, dA, dB = _lin_bwd(lc["G"], layer.W2,
                                   adapters.get(pref + "W2"), lc["UW2"], dF)
        grads[pref + "W2"] = dW2
        put_adapter(pref + "W2", dA, dB)
        dU1 = dG * gelu_grad(lc["U1"])
        grads[pref + "b1"] = dU1.sum(axis=0)
        dZ2, dW1, dA, dB = _lin_bwd(lc["Z"], layer.W1,
                                    adapters.get(pref + "W1"), lc["UW1"], dU1)
        grads[pref + "W1"] = dW1
        put_adapter(pref + "W1", dA, dB)
        dZ += dZ2

        dA1, dg1, dc1 = _ln_bwd(dZ, layer.ln1_gain, lc["ln1"])
        grads[pref + "ln1_gain"] = dg1
        grads[pref + "ln1_bias"] = dc1
        dX = dA1.copy()
        dM = dA1
        dO, dW_O, dA, dB = _lin_bwd(lc["O"], layer.W_O,
                                    adapters.get(pref + "W_O"), lc["UO"], dM)
        grads[pref + "W_O"] = dW_O
        put_adapter(pref + "W_O", dA, dB)

        Q, K, V, Pw = lc["Q"], lc["K"], lc["V"], lc["Pw"]
        dQ = np.empty_like(Q)
        dK = np.empty_like(K)
        dV = np.empty_like(V)
        for h in range(config.n_heads):
            sl = slice(h * config.d_k, (h + 1) * config.d_k)
            dO_h = dO[:, sl]
            dPw = dO_h @ V[:, sl].T
            dS = Pw[h] * (dPw - (dPw * Pw[h]).sum(axis=-1, keepdims=True))
            dQ[:, sl] = dS @ K[:, sl] * scale
            dK[:, sl] = dS.T @ Q[:, sl] * scale
            dV[:, sl] = Pw[h].T @ dO_h

        X_in = lc["X_in"]
        for name, dH, U in (("W_Q", dQ, lc["UQ"]), ("W_K", dK, lc["UK"]),
                            ("W_V", dV, lc["UV"])):
            dXp, dW, dA, dB = _lin_bwd(X_in, getattr(layer, name),
                                       adapters.get(pref + name), U, dH)
            grads[pref + name] = dW
            put_adapter(pref + name, dA, dB)
            dX += dXp

    ids, n = cache["ids"], cache["ids"].size
    dW_e = np.zeros_like(params.W_e)
    np.add.at(dW_e, ids, dX)
    grads["W_e"] = dW_e
    dP = np.zeros_like(params.P)
    dP[:n] = dX
    grads["P"] = dP
    return grads


def loss_and_grad(params: EncoderParams, batch, config: EncoderConfig,
                  adapters: dict[str, LoraAdapter] | None = None,
                  peft_mode: bool = False):
    """Mean cross-entropy and gradients over a batch of (ids, mask, label).

    With peft_mode=True only adapter gradients are returned; base tensors
    are untouched by construction.
    """
    batch = list(batch)
    if not batch:
        raise ValueError("empty batch")
    if peft_mode and not adapters:
        raise ValueError("peft_mode requires adapters")
    total: dict[str, np.ndarray] = {}
    loss = 0.0
    for ids, mask, label in batch:
        logits, cache = encoder_forward(ids, mask, params, config, adapters,
                                        return_cache=True)
        probs = softmax_rows(logits)
        loss -= math.log(probs[label])
        dlogits = probs.copy()
        dlogits[label] -= 1.0
        grads = encoder_backward(dlogits, cache, params, config, adapters)
        for name, g in grads.items():
            if name in total:
                total[name] += g
            else:
                total[name] = g
    b = len(batch)
    for name in total:
        total[name] /= b
    if peft_mode:
        total = {k: v for k, v in total.items() if k.startswith("adapters.")}
    return loss / b, total


def batch_loss(params: EncoderParams, batch, config: EncoderConfig,
               adapters: dict[str, LoraAdapter] | None = None) -> float:
    """Mean cross-entropy without gradients (forward only)."""
    batch = list(batch)
    if not batch:
        raise ValueError("empty batch")
    loss = 0.0
    for ids, mask, label in batch:
        logits = encoder_forward(ids, mask, params, config, adapters)
        loss -= math.log(softmax_rows(logits)[label])
    return loss / len(batch)
