"""Transformer-encoder classifier in plain numpy with exact manual gradients.

Architecture: learned token + position embeddings, `n_layers` post-norm
blocks (multi-head self-attention, then a GELU feed-forward, each wrapped
as LayerNorm(residual + sublayer)), masked mean-pooling over the final
states, and a dense 3-class head.  Every weight matrix can carry a
low-rank adapter; the forward then computes X@W + scale*((X@B)@A).

Parameters live in one flat name->tensor store, `EncoderParams`: `W_e`
(token embeddings), `P` (positions), `W_o` and `b_o` (the head), then
`layers.<i>.<name>` for each block's W_Q, W_K, W_V, W_O, W1, b1, W2, b2,
ln1_gain, ln1_bias, ln2_gain and ln2_bias.  `param_shapes(config)` lists
every name with its shape in that order; gradients, AdamW, adapters and
checkpoints all use these names.

`encoder_forward` runs a (B, n) batch of ids and 0/1 masks (1-D ones
are the B = 1 case).  Activations travel between layers as (B·n, d_model)
rows, so each linear layer is one 2-D GEMM; only attention reshapes them,
to (B, n_heads, n, d_k), with the key mask broadcast per row.
The batch is first trimmed to the last column any row's mask uses, which
is exact: masked keys get softmax weight 0 and padded positions pooling
weight 0, so their gradient is 0 in every layer.  `loss_and_grad`,
`batch_loss` and `batch_logits` run batches of any size in sub-batches of
rows sorted by real length, each within rows x trimmed length x d_model
<= SUB_BATCH_BUDGET (12,288) elements, which bounds the activations a
backward pass caches per layer.  The budget is in elements, not tokens:
the cache grows with d_model, and at d_model 32 it holds 384 tokens, so
a training group of 8 rows of 32 tokens stays one sub-batch.

Only `encoder_forward(..., return_cache=True)` keeps per-layer
activations; forward-only passes (`batch_logits`, the eval hook, predict)
keep none.  `encoder_backward` consumes the cache, dropping each layer's
activations once that layer's gradients are done, and can add its
gradients in place into the set of an earlier sub-batch.

`attention`, `_ln_fwd` (with `layer_norm` as its public view) and
`multi_head_attention` are the kernels that `encoder_forward` runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import erf

from .._rng import OP_ENCODER_INIT, substream

if TYPE_CHECKING:
    from .lora import LoraAdapter

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

#: Most activations (rows x trimmed length x d_model) one sub-batch holds.
SUB_BATCH_BUDGET = 12288


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
        if not self.layernorm_eps > 0:
            raise ValueError("layernorm_eps must be positive")

    @property
    def d_k(self) -> int:
        return self.d_model // self.n_heads


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter name with its shape, in store (and checkpoint) order."""
    d, f = config.d_model, config.d_ff
    shapes = {"W_e": (config.vocab_size, d), "P": (config.max_seq_len, d),
              "W_o": (d, config.n_classes), "b_o": (config.n_classes,)}
    block = {"W_Q": (d, d), "W_K": (d, d), "W_V": (d, d), "W_O": (d, d),
             "W1": (d, f), "b1": (f,), "W2": (f, d), "b2": (d,),
             "ln1_gain": (d,), "ln1_bias": (d,), "ln2_gain": (d,), "ln2_bias": (d,)}
    for i in range(config.n_layers):
        shapes.update({f"layers.{i}.{name}": shape for name, shape in block.items()})
    return shapes


class EncoderParams(dict):
    """The flat name->tensor parameter store, keyed as `param_shapes` lists."""

    def to_dict(self) -> "EncoderParams":
        """The store itself (references, not copies)."""
        return self

    def copy(self) -> "EncoderParams":
        """A deep copy: every tensor is copied."""
        return EncoderParams((name, t.copy()) for name, t in self.items())


def init_params(config: EncoderConfig, seed: int) -> EncoderParams:
    """uniform(+-1/sqrt(fan_in)) weights; embeddings use fan_in = d_model;
    layernorm gains 1, all biases 0.

    Matrices are drawn block by block, then W_e, P and W_o.
    """
    rng = substream(seed, OP_ENCODER_INIT)
    shapes = param_shapes(config)
    tensors = {}
    for name in sorted(shapes, key=lambda k: not k.startswith("layers.")):
        shape = shapes[name]
        if len(shape) == 2:
            fan_in = config.d_model if name in ("W_e", "P") else shape[0]
            bound = 1.0 / math.sqrt(fan_in)
            tensors[name] = rng.uniform(-bound, bound, size=shape)
        else:
            tensors[name] = np.ones(shape) if name.endswith("_gain") else np.zeros(shape)
    return EncoderParams((name, tensors[name]) for name in shapes)


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


def _ln_fwd(x, gain, bias, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return xhat * gain + bias, (xhat, inv)


def _add(grads: dict, name: str, g) -> None:
    """grads[name] += g in place, or grads[name] = g for a new name."""
    if name in grads:
        grads[name] += g
    else:
        grads[name] = g


def _ln_bwd(dy, name: str, params, ln_cache, grads: dict):
    """dx for (rows, d) dy; adds the `<name>_gain` and `<name>_bias`
    gradients, summed over every row, into grads."""
    xhat, inv = ln_cache
    _add(grads, name + "_gain", (dy * xhat).sum(axis=0))
    _add(grads, name + "_bias", dy.sum(axis=0))
    dxhat = dy * params[name + "_gain"]
    return inv * (dxhat
                  - dxhat.mean(axis=-1, keepdims=True)
                  - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))


def layer_norm(x, gain, bias, eps: float = 1e-5) -> np.ndarray:
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis."""
    return _ln_fwd(np.asarray(x, dtype=np.float64), gain, bias, eps)[0]


def attention(Q, K, V, mask=None, return_weights: bool = False):
    """softmax(Q K^T / sqrt(d_k)) V with masked key positions at -inf.

    Q, K, V are (n, d_k) for one head, with any leading axes, such as
    (B, n_heads, n, d_k) for a batch of stacked heads.  `mask` is a 0/1
    array over key positions that broadcasts against the (..., n, n)
    scores, e.g. (n,) or (B, 1, 1, n); each row needs an unmasked key.
    """
    Q = np.asarray(Q, dtype=np.float64)
    K = np.asarray(K, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    scores = Q @ np.swapaxes(K, -1, -2) * (1.0 / math.sqrt(Q.shape[-1]))
    if mask is not None:
        mask = np.asarray(mask)
        if not np.any(mask != 0, axis=-1).all():
            raise ValueError("all positions are masked")
        scores = np.where(mask != 0, scores, -np.inf)
    weights = softmax_rows(scores)
    out = weights @ V
    return (out, weights) if return_weights else out


def _split_heads(X, B: int, n_heads: int) -> np.ndarray:
    """(B·n, d_model) rows -> (B, n_heads, n, d_k) view; head h holds columns
    h*d_k:(h+1)*d_k."""
    rows, d = X.shape
    return X.reshape(B, rows // B, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(Y) -> np.ndarray:
    """(B, n_heads, n, d_k) -> (B·n, d_model) rows, the heads side by side."""
    B, h, n, d_k = Y.shape
    return Y.transpose(0, 2, 1, 3).reshape(B * n, h * d_k)


# -- linear layers with optional low-rank adapters ---------------------------

def _lin_fwd(X, name: str, params, adapters, cache: dict):
    """X @ params[name] on (rows, d_in) X, plus scale * (X @ B) @ A if an
    adapter sits on it; then cache[name] keeps X @ B for `_lin_bwd`."""
    adapter = adapters.get(name)
    if adapter is None:
        return X @ params[name]
    cache[name] = X @ adapter.B
    return X @ params[name] + adapter.scale * (cache[name] @ adapter.A)


def _lin_bwd(X, name: str, params, adapters, cache: dict, dH, grads: dict,
             base: bool = True):
    """Adds the gradients of `_lin_fwd`'s adapter, and of its weight if
    `base`, summed over the rows of X, into grads; returns dX."""
    adapter = adapters.get(name)
    dX = dH @ params[name].T
    if base:
        _add(grads, name, X.T @ dH)
    if adapter is not None:
        dHA = dH @ adapter.A.T
        dX += adapter.scale * (dHA @ adapter.B.T)
        _add(grads, f"adapters.{name}.A", adapter.scale * (cache[name].T @ dH))
        _add(grads, f"adapters.{name}.B", adapter.scale * (X.T @ dHA))
    return dX


def multi_head_attention(X, params: EncoderParams, layer: int, n_heads: int,
                         mask=None, adapters: dict[str, LoraAdapter] | None = None,
                         cache: dict | None = None) -> np.ndarray:
    """The attention sublayer of block `layer`: every head at once on the
    Q/K/V projections, the heads concatenated, then W_O.

    X is (n, d_model), or (B, n, d_model) with a (B, n) key `mask`.
    `cache`, when given, receives the activations `encoder_backward` needs.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] % n_heads != 0:
        raise ValueError("d_model not divisible by n_heads")
    B = 1 if X.ndim == 2 else len(X)
    rows = X.reshape(-1, X.shape[-1])
    adapters = adapters or {}
    cache = {} if cache is None else cache
    p = f"layers.{layer}."
    Qh, Kh, Vh = (_split_heads(_lin_fwd(rows, p + name, params, adapters, cache), B, n_heads)
                  for name in ("W_Q", "W_K", "W_V"))
    mask = None if mask is None else np.reshape(mask, (B, 1, 1, -1))
    Oh, Pw = attention(Qh, Kh, Vh, mask, return_weights=True)
    cache.update(Qh=Qh, Kh=Kh, Vh=Vh, Pw=Pw, O=_merge_heads(Oh))
    return _lin_fwd(cache["O"], p + "W_O", params, adapters, cache).reshape(X.shape)


def _check_inputs(ids, mask, config: EncoderConfig):
    """ids and mask as (B, n) arrays, each row checked."""
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.int64)
    if ids.ndim not in (1, 2) or mask.shape != ids.shape:
        raise ValueError("ids and mask must have one shape, (n,) or (B, n)")
    ids, mask = np.atleast_2d(ids, mask)
    if ids.size == 0 or not mask.any(axis=1).all():
        raise ValueError("empty unmasked sequence")
    if ids.shape[1] > config.max_seq_len:
        raise ValueError(f"sequence length {ids.shape[1]} exceeds max_seq_len "
                         f"{config.max_seq_len}")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError("token id out of range")
    return ids, mask


def _real_lengths(mask) -> np.ndarray:
    """Per row of a (B, n) mask, one past its last unmasked column."""
    return mask.shape[1] - np.argmax(mask[:, ::-1] != 0, axis=1)


def encoder_forward(ids, mask, params: EncoderParams, config: EncoderConfig,
                    adapters: dict[str, LoraAdapter] | None = None,
                    return_cache: bool = False):
    """Class logits, (B, n_classes) for (B, n) ids and mask or (n_classes,)
    for 1-D ones; with return_cache=True, also the activation cache that
    `encoder_backward` consumes (only then are per-layer activations kept)."""
    single = np.ndim(ids) == 1
    ids, mask = _check_inputs(ids, mask, config)
    n = int(_real_lengths(mask).max())
    ids, mask = ids[:, :n], mask[:, :n]
    B = len(ids)
    adapters = adapters or {}
    eps = config.layernorm_eps
    fmask = mask.astype(np.float64)

    X = (params["W_e"][ids] + params["P"][:n]).reshape(B * n, -1)
    cache = {"ids": ids, "layers": []}
    for li in range(config.n_layers):
        p = f"layers.{li}."
        lc: dict = {"X_in": X}
        A1 = X + multi_head_attention(X.reshape(B, n, -1), params, li, config.n_heads,
                                      mask, adapters, lc).reshape(X.shape)
        if not return_cache:
            lc = {}  # a forward-only pass frees the attention activations here
        Z, lc["ln1"] = _ln_fwd(A1, params[p + "ln1_gain"], params[p + "ln1_bias"], eps)
        U1 = _lin_fwd(Z, p + "W1", params, adapters, lc) + params[p + "b1"]
        G = gelu(U1)
        A2 = Z + (_lin_fwd(G, p + "W2", params, adapters, lc) + params[p + "b2"])
        X, lc["ln2"] = _ln_fwd(A2, params[p + "ln2_gain"], params[p + "ln2_bias"], eps)
        if return_cache:
            lc.update(Z=Z, U1=U1, G=G)
            cache["layers"].append(lc)

    denom = fmask.sum(axis=1, keepdims=True)
    pooled = (X.reshape(B, n, -1) * fmask[:, :, None]).sum(axis=1) / denom
    logits = _lin_fwd(pooled, "W_o", params, adapters, cache) + params["b_o"]
    logits = logits[0] if single else logits
    cache.update(pooled=pooled, denom=denom, fmask=fmask)
    return (logits, cache) if return_cache else logits


def encoder_backward(dlogits, cache, params: EncoderParams, config: EncoderConfig,
                     adapters: dict[str, LoraAdapter] | None = None,
                     peft_mode: bool = False, grads: dict | None = None):
    """Gradients of a scalar loss given d(loss)/d(logits) and a forward cache.

    Returns a flat dict, summed over the batch: base tensors under their
    parameter names, adapter tensors under 'adapters.<target>.A' / '.B'.
    peft_mode=True returns the adapter gradients only, and computes no
    weight-matrix or embedding gradient; dX still flows through every layer.
    `grads`, when given, is such a dict from earlier sub-batches: the new
    gradients are added into its arrays in place, and it is returned.
    The cache is consumed: each layer's activations leave it once that
    layer's gradients are done.
    """
    adapters = adapters or {}
    base = not peft_mode
    grads = {} if grads is None else grads
    base_grads = grads if base else {}  # peft_mode drops the bias and layernorm ones
    scale = 1.0 / math.sqrt(config.d_k)
    ids = cache["ids"]
    B, n = ids.shape
    dlogits = np.asarray(dlogits, dtype=np.float64).reshape(B, -1)
    _add(base_grads, "b_o", dlogits.sum(axis=0))
    dpooled = _lin_bwd(cache["pooled"], "W_o", params, adapters, cache, dlogits,
                       grads, base)
    dX = ((cache["fmask"] / cache["denom"])[:, :, None]
          * dpooled[:, None, :]).reshape(B * n, -1)

    for li in range(config.n_layers - 1, -1, -1):
        lc = cache["layers"].pop()
        p = f"layers.{li}."
        dA2 = _ln_bwd(dX, p + "ln2", params, lc["ln2"], base_grads)
        _add(base_grads, p + "b2", dA2.sum(axis=0))
        dG = _lin_bwd(lc["G"], p + "W2", params, adapters, lc, dA2, grads, base)
        dU1 = dG * gelu_grad(lc["U1"])
        _add(base_grads, p + "b1", dU1.sum(axis=0))
        dZ = dA2 + _lin_bwd(lc["Z"], p + "W1", params, adapters, lc, dU1, grads, base)
        dA1 = _ln_bwd(dZ, p + "ln1", params, lc["ln1"], base_grads)

        dOh = _split_heads(_lin_bwd(lc["O"], p + "W_O", params, adapters, lc, dA1,
                                    grads, base), B, config.n_heads)
        Qh, Kh, Vh, Pw = lc["Qh"], lc["Kh"], lc["Vh"], lc["Pw"]
        dPw = dOh @ np.swapaxes(Vh, -1, -2)
        dS = Pw * (dPw - (dPw * Pw).sum(axis=-1, keepdims=True))
        dX = dA1
        for name, dH in (("W_Q", dS @ Kh * scale),
                         ("W_K", np.swapaxes(dS, -1, -2) @ Qh * scale),
                         ("W_V", np.swapaxes(Pw, -1, -2) @ dOh)):
            dX = dX + _lin_bwd(lc["X_in"], p + name, params, adapters, lc,
                               _merge_heads(dH), grads, base)

    if base:
        if "W_e" not in grads:
            grads["W_e"] = np.zeros_like(params["W_e"])
            grads["P"] = np.zeros_like(params["P"])
        np.add.at(grads["W_e"], ids.ravel(), dX)
        grads["P"][:n] += dX.reshape(B, n, -1).sum(axis=0)
    return grads


def _sub_batches(mask, d_model: int) -> list[np.ndarray]:
    """Row indices of each sub-batch of a (B, n) mask: rows sorted by real
    length, cut so that rows x longest x d_model <= SUB_BATCH_BUDGET."""
    lengths = _real_lengths(mask)
    chunks = [[]]
    for i in np.argsort(lengths, kind="stable"):
        if chunks[-1] and (len(chunks[-1]) + 1) * lengths[i] * d_model > SUB_BATCH_BUDGET:
            chunks.append([])
        chunks[-1].append(i)
    return [np.array(rows) for rows in chunks]


def _stack(batch):
    """(ids, mask, label) examples as (B, n) ids and masks, short rows padded
    with masked id 0, and (B,) labels."""
    batch = list(batch)
    if not batch:
        raise ValueError("empty batch")
    ids = np.zeros((len(batch), max(len(row[0]) for row in batch)), dtype=np.int64)
    mask = np.zeros_like(ids)
    for i, (row_ids, row_mask, _) in enumerate(batch):
        if np.shape(row_mask) != np.shape(row_ids):
            raise ValueError("ids and mask must be equal-length 1-D sequences")
        ids[i, :len(row_ids)], mask[i, :len(row_ids)] = row_ids, row_mask
    return ids, mask, np.array([label for _, _, label in batch])


def batch_logits(ids, mask, params: EncoderParams, config: EncoderConfig,
                 adapters: dict[str, LoraAdapter] | None = None) -> np.ndarray:
    """(B, n_classes) logits for (B, n) ids and mask, in input order, from one
    `encoder_forward` per sub-batch."""
    ids, mask = _check_inputs(ids, mask, config)
    logits = np.empty((len(ids), config.n_classes))
    for rows in _sub_batches(mask, config.d_model):
        logits[rows] = encoder_forward(ids[rows], mask[rows], params, config, adapters)
    return logits


def _nll(probs, labels) -> np.ndarray:
    """-log(probs[i, labels[i]]) per row, or inf where that underflows to 0."""
    picked = probs[np.arange(len(labels)), labels]
    return np.array([-math.log(p) if p > 0 else math.inf for p in picked])


def mean_nll(logits, labels) -> float:
    """Mean cross-entropy of (B, n_classes) logits against (B,) labels."""
    return float(np.mean(_nll(softmax_rows(np.asarray(logits)), np.asarray(labels))))


def loss_and_grad(params: EncoderParams, batch, config: EncoderConfig,
                  adapters: dict[str, LoraAdapter] | None = None,
                  peft_mode: bool = False, weights=None):
    """Weighted cross-entropy and its gradients over a batch of (ids, mask, label).

    `weights` holds each example's weight (default 1/len(batch): the mean).
    Each sub-batch's gradients are added in place into one set of arrays,
    new to this call.  With peft_mode=True only adapter gradients are
    returned; base tensors are untouched by construction.
    """
    ids, mask, labels = _stack(batch)
    if peft_mode and not adapters:
        raise ValueError("peft_mode requires adapters")
    weights = (np.full(len(labels), 1.0 / len(labels)) if weights is None
               else np.asarray(weights, dtype=np.float64))
    grads: dict[str, np.ndarray] = {}
    nll = np.empty(len(labels))
    for rows in _sub_batches(mask, config.d_model):
        logits, cache = encoder_forward(ids[rows], mask[rows], params, config,
                                        adapters, return_cache=True)
        probs = softmax_rows(logits)
        nll[rows] = _nll(probs, labels[rows])
        probs[np.arange(len(rows)), labels[rows]] -= 1.0
        encoder_backward(probs * weights[rows, None], cache, params, config, adapters,
                         peft_mode=peft_mode, grads=grads)
    return float(weights @ nll), grads


def batch_loss(params: EncoderParams, batch, config: EncoderConfig,
               adapters: dict[str, LoraAdapter] | None = None) -> float:
    """Mean cross-entropy without gradients (forward only)."""
    ids, mask, labels = _stack(batch)
    return mean_nll(batch_logits(ids, mask, params, config, adapters), labels)
