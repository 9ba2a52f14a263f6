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

Every pass runs one layer body, and only `return_cache=True` keeps each
layer's activations; forward-only passes (`batch_logits`, the eval hook,
predict) drop the attention's as soon as its residual is added.  A layer
keeps U1 = Z@W1 + b1 and Φ(U1), the standard normal CDF, in place of
G = gelu(U1) = U1·Φ(U1): the backward rebuilds G (only where a W2 gradient
needs it) and takes gelu's slope Φ + U1·φ(U1) from Φ, so erf runs once.
`encoder_backward` consumes the cache, dropping each layer's activations
once that layer's gradients are done, and can add its gradients in place
into the set of an earlier sub-batch.  With peft_mode it computes only
what the adapters' gradients need (see its docstring).  `_accumulate`
runs both per sub-batch and writes each row's loss and hit (argmax = label).

`loss_and_grad` and `batch_logits` cut a batch's sub-batches (sorted by
length) into a first and a second part by token cost, rows x trimmed
length (`_parts`); a batch of one sub-batch is all second part.  Each
part's gradients accumulate in order, then the first part's sum is added
into the second's.  `train.train_loop` hands `loss_and_grad` its gradient
store, one flat vector with a view per trainable tensor (`GradStore`),
and the second part is written into it.  Inline, one process runs both
parts and adds the first part's sum tensor by tensor; with a peer
(`train.paired`), a forked process runs the first part of every training
step and eval pass, in a private vector of the store's layout, and adds
it into the shared store in one vector add.  Both ways give the same bits.

The kernels `encoder_forward` runs are `multi_head_attention` with
`attention` (scores scaled and masked in place, then `softmax_rows`,
which exponentiates and normalizes its own copy), `_ln_fwd` (one mean,
the rows centred once; `layer_norm` is its public view), and `_phi`,
through which `gelu` is defined.  Each is equal bit for bit to the
textbook formula as numpy evaluates it
(tests/test_encoder_model.py::TestKernelsBitForBit).
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


def _phi(x: np.ndarray) -> np.ndarray:
    """Φ(x) = 0.5·(1 + erf(x/√2)), the standard normal CDF, in one new array."""
    cdf = x * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def gelu(x: np.ndarray) -> np.ndarray:
    return x * _phi(x)


def _gelu_slope(x, cdf) -> np.ndarray:
    """d gelu/dx = Φ(x) + x·φ(x), from the forward's Φ(x) in `cdf`."""
    slope = -0.5 * x
    slope *= x
    np.exp(slope, out=slope)
    slope *= _INV_SQRT_2PI
    slope *= x
    slope += cdf
    return slope


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row softmax tolerating -inf entries (fully -inf rows are invalid);
    `scores` itself is left as it is."""
    e = np.subtract(scores, scores.max(axis=-1, keepdims=True),
                    dtype=np.result_type(scores, 1.0))  # integer scores give floats
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _ln_fwd(x, gain, bias, eps):
    """LayerNorm over the last axis, and the (xhat, 1/std) that `_ln_bwd`
    needs.  x is centred once, and the variance is the mean of the centred
    rows squared, which is the arithmetic of np.var."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    y = xhat * gain
    y += bias
    return y, (xhat, inv)


def _add(grads: dict, name: str, g) -> None:
    """grads[name] += g in place, or grads[name] = g for a new name."""
    if name in grads:
        grads[name] += g
    else:
        grads[name] = g


def _ln_bwd(dy, name: str, params, ln_cache, grads: dict, base: bool = True):
    """dx for (rows, d) dy; if `base`, adds the `<name>_gain` and
    `<name>_bias` gradients, summed over every row, into grads."""
    xhat, inv = ln_cache
    if base:
        _add(grads, name + "_gain", (dy * xhat).sum(axis=0))
        _add(grads, name + "_bias", dy.sum(axis=0))
    dx = dy * params[name + "_gain"]
    mean_dx = dx.mean(axis=-1, keepdims=True)
    proj = xhat * (dx * xhat).mean(axis=-1, keepdims=True)
    dx -= mean_dx
    dx -= proj
    dx *= inv
    return dx


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
    scores = Q @ np.swapaxes(K, -1, -2)
    scores *= 1.0 / math.sqrt(Q.shape[-1])
    if mask is not None:
        keep = np.asarray(mask) != 0
        if not keep.any(axis=-1).all():
            raise ValueError("all positions are masked")
        scores += np.where(keep, 0.0, -np.inf)  # a kept score + 0.0 keeps its value
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
    H = X @ params[name]
    if adapter is not None:
        cache[name] = X @ adapter.B
        H += adapter.scale * (cache[name] @ adapter.A)
    return H


def _lin_bwd(X, name: str, params, adapters, cache: dict, dH, grads: dict,
             base: bool = True, dx: bool = True):
    """Adds the gradients of `_lin_fwd`'s adapter, and of its weight if
    `base`, summed over the rows of X, into grads; returns dX, or None
    without `dx`.  X is read only for a gradient that needs it."""
    adapter = adapters.get(name)
    dX = dH @ params[name].T if dx else None
    if base:
        _add(grads, name, X.T @ dH)
    if adapter is not None:
        dHA = dH @ adapter.A.T
        if dx:
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
        A = multi_head_attention(X.reshape(B, n, -1), params, li, config.n_heads,
                                 mask, adapters, lc).reshape(X.shape)
        A += X
        if not return_cache:
            lc = {}  # frees the attention's activations, which raised predict's peak
        Z, lc["ln1"] = _ln_fwd(A, params[p + "ln1_gain"], params[p + "ln1_bias"], eps)
        U1 = _lin_fwd(Z, p + "W1", params, adapters, lc)
        U1 += params[p + "b1"]
        lc.update(Z=Z, U1=U1, Phi=_phi(U1))  # in place of G, which the backward rebuilds
        G = U1 * lc["Phi"]
        A = _lin_fwd(G, p + "W2", params, adapters, lc)
        A += params[p + "b2"]
        A += Z
        X, lc["ln2"] = _ln_fwd(A, params[p + "ln2_gain"], params[p + "ln2_bias"], eps)
        if return_cache:
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
    peft_mode=True returns the adapter gradients only.  It computes no
    weight-matrix, bias, layernorm or embedding gradient: layer 0 computes
    no gradient for its input, so there a W_Q, W_K or W_V without an adapter
    gets no dH, and with adapters on W_o alone no layer is differentiated.
    `grads`, when given, is such a dict from earlier sub-batches: the new
    gradients are added into its arrays in place, and it is returned.
    The cache is consumed: each layer's activations leave it once that
    layer's gradients are done.
    """
    adapters = adapters or {}
    base = not peft_mode
    grads = {} if grads is None else grads
    scale = 1.0 / math.sqrt(config.d_k)
    ids = cache["ids"]
    B, n = ids.shape
    first = config.n_layers if peft_mode and set(adapters) <= {"W_o"} else 0
    dlogits = np.asarray(dlogits, dtype=np.float64).reshape(B, -1)
    if base:
        _add(grads, "b_o", dlogits.sum(axis=0))
    dpooled = _lin_bwd(cache["pooled"], "W_o", params, adapters, cache, dlogits,
                       grads, base, dx=base or first < config.n_layers)
    if dpooled is not None:
        dX = ((cache["fmask"] / cache["denom"])[:, :, None]
              * dpooled[:, None, :]).reshape(B * n, -1)

    del cache["layers"][:first]
    for li in range(config.n_layers - 1, first - 1, -1):
        lc = cache["layers"].pop()
        p = f"layers.{li}."
        dx_in = base or li > 0
        dA2 = _ln_bwd(dX, p + "ln2", params, lc["ln2"], grads, base)
        if base:
            _add(grads, p + "b2", dA2.sum(axis=0))
        G = lc["U1"] * lc["Phi"] if base or p + "W2" in adapters else None
        dU1 = _gelu_slope(lc["U1"], lc["Phi"])
        dU1 *= _lin_bwd(G, p + "W2", params, adapters, lc, dA2, grads, base)
        if base:
            _add(grads, p + "b1", dU1.sum(axis=0))
        dZ = _lin_bwd(lc["Z"], p + "W1", params, adapters, lc, dU1, grads, base)
        dZ += dA2
        dA1 = _ln_bwd(dZ, p + "ln1", params, lc["ln1"], grads, base)

        need = [name for name in ("W_Q", "W_K", "W_V") if dx_in or p + name in adapters]
        dO = _lin_bwd(lc["O"], p + "W_O", params, adapters, lc, dA1, grads, base,
                      dx=bool(need))
        if not need:  # layer 0, with no adapter on W_Q, W_K or W_V
            continue
        dX = dA1
        dOh = _split_heads(dO, B, config.n_heads)
        Qh, Kh, Vh, Pw = lc["Qh"], lc["Kh"], lc["Vh"], lc["Pw"]
        if "W_Q" in need or "W_K" in need:
            dS = dOh @ np.swapaxes(Vh, -1, -2)  # d(weights), then d(scores) in place
            dS -= (dS * Pw).sum(axis=-1, keepdims=True)
            dS *= Pw
        for name in need:
            if name == "W_V":
                dH = np.swapaxes(Pw, -1, -2) @ dOh
            else:
                dH = dS @ Kh if name == "W_Q" else np.swapaxes(dS, -1, -2) @ Qh
                dH *= scale
            dXp = _lin_bwd(lc["X_in"], p + name, params, adapters, lc, _merge_heads(dH),
                           grads, base, dx=dx_in)
            if dx_in:
                dX += dXp

    if base:
        if "W_e" not in grads:
            grads["W_e"] = np.zeros_like(params["W_e"])
            grads["P"] = np.zeros_like(params["P"])
        np.add.at(grads["W_e"], ids.ravel(), dX)
        grads["P"][:n] += dX.reshape(B, n, -1).sum(axis=0)
    return grads


def fits_budget(rows: int, length: int, d_model: int) -> bool:
    """Whether rows x (trimmed) length x d_model <= SUB_BATCH_BUDGET."""
    return rows * length * d_model <= SUB_BATCH_BUDGET


def _sub_batches(mask, d_model: int) -> list[np.ndarray]:
    """Row indices of each sub-batch of a (B, n) mask: rows sorted by real
    length, each cut where the next row would leave `fits_budget`."""
    lengths = _real_lengths(mask)
    chunks = [[]]
    for i in np.argsort(lengths, kind="stable"):
        if chunks[-1] and not fits_budget(len(chunks[-1]) + 1, lengths[i], d_model):
            chunks.append([])
        chunks[-1].append(i)
    return [np.array(rows) for rows in chunks]


def _parts(subs: list[np.ndarray], mask) -> tuple[list, list]:
    """`subs` (in `_sub_batches` order) cut into a first and a second part at
    the point that best balances their token cost, rows x trimmed length;
    a single sub-batch is all second part."""
    if len(subs) < 2:
        return [], subs
    lengths = _real_lengths(mask)
    costs = np.cumsum([len(rows) * int(lengths[rows].max()) for rows in subs])
    cut = min(range(1, len(subs)),
              key=lambda k: max(costs[k - 1], costs[-1] - costs[k - 1]))
    return subs[:cut], subs[cut:]


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
                 adapters: dict[str, LoraAdapter] | None = None,
                 peer=None) -> np.ndarray:
    """(B, n_classes) logits for (B, n) ids and mask, in input order, from one
    `encoder_forward` per sub-batch.  With a `peer` (`train.paired`, forked
    with these params and adapters), it runs the first part (`_parts`).  A
    row's logits depend on its sub-batch alone, so they are the same bits."""
    ids, mask = _check_inputs(ids, mask, config)
    logits = np.empty((len(ids), config.n_classes))
    first, second = _parts(_sub_batches(mask, config.d_model), mask)
    if peer is not None and first:
        peer.send("logits", ids, mask, first)
    _forward(ids, mask, second if peer is not None else first + second, params,
             config, adapters, logits)
    if peer is not None and first:
        theirs = np.concatenate(first)
        logits[theirs] = peer.recv()[theirs]
    return logits


def _forward(ids, mask, subs, params, config, adapters, logits) -> np.ndarray:
    """Writes the logits of each sub-batch of `subs` (row indices) into `logits`."""
    for rows in subs:
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
                  peft_mode: bool = False, weights=None, peer=None, hits=None,
                  out: GradStore | None = None):
    """Weighted cross-entropy and its gradients over a batch of (ids, mask, label).

    `weights` holds each example's weight (default 1/len(batch): the mean).
    `hits`, when given, receives whether each example's argmax is its label.
    With peft_mode=True only adapter gradients are returned; base tensors
    are untouched by construction.

    The sub-batches are cut into two parts (`_parts`).  Each part's
    gradients are added in place, sub-batch by sub-batch, into one set of
    arrays; then the first part's set is added into the second's, tensor by
    tensor, and the second's is returned.  Without `out`, both sets are
    dicts of new arrays; with `out`, an empty `GradStore`, the second part
    is written into its views and `out` is returned.  With a `peer` as well
    (`train.paired`, forked with these params and adapters and with the
    vector of `out`), the peer computes the first part, in a private vector
    of `out`'s layout, while this process writes the second, and then adds
    it into `out` in one vector add.  Each way, the same sums in the same
    order give the same bits.  A batch of one sub-batch is all second part.
    """
    ids, mask, labels = _stack(batch)
    if peft_mode and not adapters:
        raise ValueError("peft_mode requires adapters")
    weights = (np.full(len(labels), 1.0 / len(labels)) if weights is None
               else np.asarray(weights, dtype=np.float64))
    nll = np.empty(len(labels))
    hits = np.empty(len(labels), dtype=bool) if hits is None else hits
    first, second = _parts(_sub_batches(mask, config.d_model), mask)
    peer = peer if out is not None and first else None
    if peer is not None:
        peer.send("grads", ids, mask, labels, weights, first)
    grads = _accumulate(ids, mask, labels, weights, second, params, config,
                        adapters, peft_mode, {} if out is None else out, nll, hits)
    if peer is not None:
        theirs = np.concatenate(first)
        their_nll, their_hits = peer.recv()
        nll[theirs], hits[theirs] = their_nll[theirs], their_hits[theirs]
        peer.send("add")
        peer.recv()
    elif first:
        part = _accumulate(ids, mask, labels, weights, first, params, config, adapters,
                           peft_mode, {}, nll, hits)
        for name, g in part.items():
            _add(grads, name, g)
    return float(weights @ nll), grads


def _accumulate(ids, mask, labels, weights, subs, params, config, adapters,
                peft_mode, grads: dict, nll, hits) -> dict:
    """Adds the gradients of each sub-batch of `subs` (row indices), in
    order, into `grads`, and writes each row's loss into `nll` and whether
    its logits' argmax is its label into `hits`."""
    for rows in subs:
        logits, cache = encoder_forward(ids[rows], mask[rows], params, config,
                                        adapters, return_cache=True)
        hits[rows] = logits.argmax(axis=1) == labels[rows]
        probs = softmax_rows(logits)
        nll[rows] = _nll(probs, labels[rows])
        probs[np.arange(len(rows)), labels[rows]] -= 1.0
        encoder_backward(probs * weights[rows, None], cache, params, config, adapters,
                         peft_mode=peft_mode, grads=grads)
    return grads


def flat_views(vec: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Views of the 1-D vector `vec`, one per name of `shapes`, laid end to
    end in that order and each reshaped to its shape."""
    out, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        out[name] = vec[offset:offset + size].reshape(shape)
        offset += size
    return out


class GradStore(dict):
    """A gradient dict whose tensors live in `views`: the `flat_views` of one
    float64 vector, `vec`, such as `train.train_loop`'s gradient store, which
    a `train.paired` peer shares.  It keeps `_add`'s semantics: a name's
    first value is copied into its view, not added to zeros (so a -0.0 stays
    -0.0), and later values are added into the view in place.  A name
    without a view fails, naming it.  Each step's gradients take a new,
    empty store over the same vector."""

    def __init__(self, vec: np.ndarray, views: dict[str, np.ndarray]):
        super().__init__()
        self.vec, self.views = vec, views

    def __setitem__(self, name: str, g) -> None:
        view = self.views.get(name)
        if view is None:
            raise KeyError(f"gradient for unknown tensor {name!r}")
        if g is not view:
            np.copyto(view, g)
        super().__setitem__(name, view)

    def scratch(self) -> GradStore:
        """An empty store of the same layout over a new, private vector (a
        `train.paired` peer's first part)."""
        vec = np.zeros_like(self.vec)
        return GradStore(vec, flat_views(vec, {name: view.shape
                                               for name, view in self.views.items()}))


def batch_loss(params: EncoderParams, batch, config: EncoderConfig,
               adapters: dict[str, LoraAdapter] | None = None) -> float:
    """Mean cross-entropy without gradients (forward only)."""
    ids, mask, labels = _stack(batch)
    return mean_nll(batch_logits(ids, mask, params, config, adapters), labels)
