"""Microbatched training loop with gradient accumulation and loss tracing,
over one flat vector of the trainable tensors (`Trainable`), inline or, for
steps wider than one sub-batch, paired with a forked peer (`paired`)."""
from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .. import _fork
from .._rng import OP_ENCODER_TRAIN, substream
from . import model
from .lora import LoraAdapter
from .model import (
    EncoderConfig,
    EncoderParams,
    _accumulate,
    _forward,
    batch_logits,
    loss_and_grad,
)
from .optim import AdamWConfig, OptimizerState, adamw_step, check_grads, lr_at


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 3
    per_device_batch: int = 1
    grad_accum_steps: int = 8
    base_lr: float = 2e-4
    warmup_ratio: float = 0.03
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.per_device_batch < 1 or self.grad_accum_steps < 1:
            raise ValueError("batch and accumulation sizes must be positive")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ValueError("warmup_ratio must lie in [0, 1)")


@dataclass
class TraceRow:
    step: int
    epoch: int
    lr: float
    loss: float
    train_acc: float | None = None
    val_loss: float | None = None
    val_acc: float | None = None


TRACE_HEADER = ("step", "epoch", "lr", "loss", "train_acc", "val_loss", "val_acc")


def trace_to_csv(rows: list[TraceRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for r in rows:
        writer.writerow([
            r.step, r.epoch, repr(r.lr), repr(r.loss),
            "" if r.train_acc is None else repr(r.train_acc),
            "" if r.val_loss is None else repr(r.val_loss),
            "" if r.val_acc is None else repr(r.val_acc),
        ])
    return buf.getvalue()


def train_loop(examples, params: EncoderParams, config: EncoderConfig,
               train_config: TrainConfig,
               adapters: dict[str, LoraAdapter] | None = None,
               peft_mode: bool = False,
               adamw: AdamWConfig | None = None,
               eval_hook=None) -> list[TraceRow]:
    """Train in place on `params` and the adapter objects; returns the
    per-optimizer-step loss trace.  The trainable tensors passed in are not
    updated: `Trainable` copies them into one vector and rebinds the
    `params` entries and the adapters' A and B to views of it, inline as
    well as paired, so a caller reads the trained weights through the dict
    and the adapters, not through arrays it kept from before.

    Each optimizer step averages gradients over up to `grad_accum_steps`
    microbatches of `per_device_batch` examples, in one weighted
    `loss_and_grad` call; the traced loss is the mean of microbatch means.
    The learning rate follows the warmup/decay schedule over the total
    number of optimizer steps.
    Each epoch's final trace row records `train_acc`: the share of the
    epoch's examples whose argmax was their label in the training pass, each
    under the weights of its own step (the running accuracy of Keras's `fit`).
    `eval_hook(logits)`, when given, runs after each epoch, where
    `logits(ids, mask)` is `batch_logits` under the current weights.  It
    may return a dict with train_acc / val_loss / val_acc entries that are
    recorded on that row, a train_acc in place of the counted one.
    The trainable tensors train as one flat vector (`Trainable`, which
    `paired` builds).  Each step zeroes the gradient vector of the same
    layout, `loss_and_grad` adds the step's gradients into its views, one
    `isfinite` pass checks it (`Trainable.check`), and one `adamw_step`
    call runs over the vector's entries, with flat moments.  When
    `paired` forks a peer, each step's sub-batches and each eval pass are
    shared with it (`loss_and_grad`, `batch_logits`), and after the check
    the two processes update the two halves of the vector, split at its
    middle element, each with its own moments.  The trace and the weights
    are the same bits either way, and the same as per-tensor AdamW's.
    """
    examples = list(examples)
    if not examples:
        raise ValueError("empty training set")
    if peft_mode and not adapters:
        raise ValueError("peft_mode requires adapters")

    n = len(examples)
    b = train_config.per_device_batch
    micro_per_epoch = math.ceil(n / b)
    steps_per_epoch = math.ceil(micro_per_epoch / train_config.grad_accum_steps)
    total_steps = train_config.epochs * steps_per_epoch

    with paired(examples, params, config, train_config, adapters, peft_mode) as flat:
        peer = flat.peer
        state = OptimizerState(hyper=adamw or AdamWConfig(lr=train_config.base_lr))

        def logits(ids, mask):
            return batch_logits(ids, mask, params, config, adapters, peer=peer)

        trace: list[TraceRow] = []
        step = 0
        for epoch in range(train_config.epochs):
            order = substream(train_config.seed, OP_ENCODER_TRAIN, epoch).permutation(n)
            micros = [order[s:s + b] for s in range(0, n, b)]
            epoch_hits = 0
            for g0 in range(0, len(micros), train_config.grad_accum_steps):
                group = micros[g0:g0 + train_config.grad_accum_steps]
                # One call per group; weights keep the mean of microbatch means.
                batch = [examples[i] for micro in group for i in micro]
                weights = [1.0 / (len(micro) * len(group)) for micro in group for _ in micro]
                hits = np.empty(len(batch), dtype=bool)
                flat.g.fill(0.0)
                loss, _ = loss_and_grad(params, batch, config, adapters, peft_mode=peft_mode,
                                        weights=weights, peer=peer, hits=hits, out=flat.grads)
                epoch_hits += int(hits.sum())
                step += 1
                if not math.isfinite(loss):
                    raise ValueError(f"non-finite training loss {loss} at optimizer "
                                     f"step {step} (epoch {epoch})")
                lr = lr_at(step, total_steps, train_config.base_lr,
                           train_config.warmup_ratio)
                flat.check()
                if peer is None:
                    flat.step(0, flat.g.size, state, lr)
                else:
                    peer.send("adamw", state.hyper, lr)
                    flat.step(0, flat.mid, state, lr)
                    peer.recv()
                trace.append(TraceRow(step=step, epoch=epoch, lr=lr, loss=loss))
            last = trace[-1]
            last.train_acc = epoch_hits / n
            if eval_hook is not None:
                metrics = eval_hook(logits) or {}
                last.train_acc = metrics.get("train_acc", last.train_acc)
                last.val_loss = metrics.get("val_loss", last.val_loss)
                last.val_acc = metrics.get("val_acc", last.val_acc)
        return trace


#: Most elements in one entry of a flat AdamW step: its two scratch buffers
#: take at most 256 KB each, however many elements train.
ADAMW_CHUNK = 1 << 15


def _entries(vec: np.ndarray, lo: int, hi: int, decay: int) -> dict[int, np.ndarray]:
    """Elements [lo, hi) of a flat vector whose first `decay` elements are
    matrices', as `adamw_step` entries keyed by offset: runs of at most
    ADAMW_CHUNK elements, the matrices' as one-row 2-D views, so that weight
    decay covers them and only them."""
    cuts = sorted({lo, hi, min(max(decay, lo), hi), *range(lo, hi, ADAMW_CHUNK)})
    return {a: vec[a:b][None] if b <= decay else vec[a:b]
            for a, b in zip(cuts, cuts[1:])}


def flat_views(vec: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Views of the 1-D vector `vec`, one per name of `shapes`, laid end to
    end in that order and each reshaped to its shape."""
    out, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        out[name] = vec[offset:offset + size].reshape(shape)
        offset += size
    return out


class Trainable:
    """The tensors `train_loop` trains (`model.trainable`), moved into one
    float64 vector `w`.  Matrices come first, so `w[:decay]` is the part
    weight decay covers.  The entries of `params` and the adapters'
    attributes become views of `w`, which `tensors` names; the frozen
    tensors stay where they are.  `g` is a gradient vector of the same
    layout, with views `grads`, which each step zeroes and
    `model.loss_and_grad` adds into (its `out`).  Both vectors
    are shared mappings (`_fork.shared`), so a peer forked afterwards reads
    and updates the same weights and gradients; `peer` is that peer, or
    None, and `mid` the first of its elements."""

    def __init__(self, params: EncoderParams, adapters: dict[str, LoraAdapter],
                 peft_mode: bool):
        trainable = model.trainable(params, adapters, peft_mode)
        shapes = {name: trainable[name].shape
                  for name in sorted(trainable, key=lambda k: trainable[k].ndim < 2)}
        size = sum(math.prod(shape) for shape in shapes.values())
        self.w, self.g = _fork.shared(size), _fork.shared(size)
        self.tensors = flat_views(self.w, shapes)
        self.grads = flat_views(self.g, shapes)
        for name, view in self.tensors.items():
            np.copyto(view, trainable[name])
        params.update({name: self.tensors[name] for name in params if name in shapes})
        for target, ad in adapters.items():
            ad.A, ad.B = (self.tensors[f"adapters.{target}.A"],
                          self.tensors[f"adapters.{target}.B"])
        self.decay = sum(t.size for t in self.tensors.values() if t.ndim >= 2)
        self.mid, self.peer = size // 2, None

    def check(self) -> None:
        """Raises unless `g` is all finite: one `isfinite` pass, and only on
        failure `check_grads` over `grads`, in order, to name the tensor."""
        if not np.isfinite(self.g).all():
            check_grads(self.tensors, self.grads)

    def step(self, lo: int, hi: int, state: OptimizerState, lr: float) -> None:
        """One `adamw_step` call over elements [lo, hi) of `w` and `g`."""
        adamw_step(_entries(self.w, lo, hi, self.decay),
                   _entries(self.g, lo, hi, self.decay), state, lr=lr)


@contextmanager
def paired(examples, params: EncoderParams, config: EncoderConfig,
           train_config: TrainConfig, adapters: dict[str, LoraAdapter] | None,
           peft_mode: bool):
    """Moves the trainable tensors into a `Trainable` and yields it for
    `train_loop`, with a forked peer as its `peer` or none (run inline).  It
    forks only for steps that span two sub-batches, where per_device_batch x
    grad_accum_steps rows of the longest example, trimmed as the cut trims
    it (`model._real_lengths`), leave `model.fits_budget`, with 2 usable
    CPUs (`_fork.usable_cpus`), and where `_fork.one_blas_thread` can pin
    numpy's OpenBLAS to one thread.

    The frozen tensors stay private; the fork's copy-on-write snapshot holds
    them.  The peer serves four requests: the first part of a step's
    sub-batches ("grads", which replies with their losses and hits, then
    "add", one vector add into the gradient vector), the first part of an
    eval pass ("logits"), and AdamW on the elements from `mid` on
    ("adamw").  It is reaped when the block ends, by success or error.
    """
    adapters = adapters or {}
    flat = Trainable(params, adapters, peft_mode)
    longest = max(int(model._real_lengths(np.atleast_2d(mask))[0]) for _, mask, _ in examples)
    if (model.fits_budget(train_config.per_device_batch * train_config.grad_accum_steps,
                          longest, config.d_model) or _fork.usable_cpus() < 2):
        yield flat
        return
    with _fork.one_blas_thread() as pinned:
        if not pinned:
            yield flat
            return
        flat.peer = _fork.Peer(lambda: _peer_handlers(flat, params, adapters, config, peft_mode))
        try:
            yield flat
        finally:
            flat.peer.close()


def _peer_handlers(flat: Trainable, params, adapters, config, peft_mode):
    """The requests a `paired` peer serves, built in the peer (`Peer`).
    Each first part's gradients go into the peer's own vector of `flat.g`'s
    layout, made here once and zeroed per request, which "add" adds into
    `flat.g`; AdamW updates the elements from `flat.mid` on."""
    state, scratch = OptimizerState(), np.empty_like(flat.g)
    views = flat_views(scratch, {name: g.shape for name, g in flat.grads.items()})

    def grads(ids, mask, labels, weights, subs):
        nll, hits = np.empty(len(labels)), np.empty(len(labels), dtype=bool)
        scratch.fill(0.0)
        _accumulate(ids, mask, labels, weights, subs, params, config, adapters, peft_mode,
                    views, nll, hits)
        return nll, hits

    def add():
        flat.g += scratch

    def adamw(hyper, lr):
        state.hyper = hyper
        flat.step(flat.mid, flat.g.size, state, lr)

    def logits(ids, mask, subs):
        return _forward(ids, mask, subs, params, config, adapters,
                        np.empty((len(ids), config.n_classes)))

    return {"grads": grads, "add": add, "adamw": adamw, "logits": logits}
