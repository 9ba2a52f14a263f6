"""Microbatched training loop with gradient accumulation and loss tracing,
inline or, for steps wider than one sub-batch, paired with a forked peer
(`paired`)."""
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
from .lora import LoraAdapter, adapters_to_dict
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
    """Train in place; returns the per-optimizer-step loss trace.

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
    When `paired` forks a peer, each step's sub-batches and each eval pass
    are shared with it (`loss_and_grad`, `batch_logits`); then every
    gradient is checked here, before either process updates a tensor, and
    each runs AdamW on its own half of the tensors, with its own moments.
    The trace and the weights are the same bits either way.
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

    with paired(examples, params, config, train_config, adapters, peft_mode) as peer:
        tensors = {**params, **adapters_to_dict(adapters or {})}
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
                loss, grads = loss_and_grad(params, batch, config, adapters,
                                            peft_mode=peft_mode, weights=weights, peer=peer,
                                            hits=hits)
                epoch_hits += int(hits.sum())
                step += 1
                if not math.isfinite(loss):
                    raise ValueError(f"non-finite training loss {loss} at optimizer "
                                     f"step {step} (epoch {epoch})")
                lr = lr_at(step, total_steps, train_config.base_lr,
                           train_config.warmup_ratio)
                if peer is None:
                    adamw_step(tensors, grads, state, lr=lr)
                else:
                    check_grads(tensors, grads)
                    peer.send("adamw", state.hyper, lr, list(grads))
                    adamw_step(tensors, {name: g for name, g in grads.items()
                                         if name in peer.parent_half}, state, lr=lr)
                    peer.recv()
                del grads  # not held while the next step's gradients are built
                trace.append(TraceRow(step=step, epoch=epoch, lr=lr, loss=loss))
            last = trace[-1]
            last.train_acc = epoch_hits / n
            if eval_hook is not None:
                metrics = eval_hook(logits) or {}
                last.train_acc = metrics.get("train_acc", last.train_acc)
                last.val_loss = metrics.get("val_loss", last.val_loss)
                last.val_acc = metrics.get("val_acc", last.val_acc)
        return trace


class Pair(_fork.Peer):
    """The parent's side of `paired`: the peer, with the views of the shared
    gradient store and the names whose AdamW update runs in the parent."""

    def __init__(self, handlers: dict, grad_views: dict[str, np.ndarray],
                 parent_half: frozenset[str]):
        super().__init__(handlers)
        self.grad_views, self.parent_half = grad_views, parent_half


@contextmanager
def paired(examples, params: EncoderParams, config: EncoderConfig,
           train_config: TrainConfig, adapters: dict[str, LoraAdapter] | None,
           peft_mode: bool):
    """Yields a `Pair` for `train_loop`, or None (run inline).  It forks a
    peer only for steps that span two sub-batches, where per_device_batch x
    grad_accum_steps x the longest example x d_model exceeds
    `model.SUB_BATCH_BUDGET`, with 2 usable CPUs (`_fork.usable_cpus`), and
    where `_fork.one_blas_thread` can pin numpy's OpenBLAS to one thread.

    Before the fork, the trainable tensors (every parameter, or under
    peft_mode the adapters' A and B only) move into one shared anonymous
    mapping: the entries of `params` and the adapters' attributes become
    views of it, so both processes read and update the same weights.  The
    frozen tensors stay private; the fork's copy-on-write snapshot holds
    them.  A second mapping is the gradient store.  The tensors are split
    between the processes, largest first to the side with fewer elements.
    The peer serves four requests: the first part of a step's sub-batches
    ("grads", which replies with their losses and hits, then "add" into the
    store), the first part of an eval pass ("logits"), and AdamW on its half
    ("adamw").  It is reaped when the block ends, by success or error.
    """
    longest = max(int(np.sum(mask)) for _, mask, _ in examples)
    if (train_config.per_device_batch * train_config.grad_accum_steps * longest
            * config.d_model <= model.SUB_BATCH_BUDGET or _fork.usable_cpus() < 2):
        yield None
        return
    with _fork.one_blas_thread() as pinned:
        if not pinned:
            yield None
            return
        adapters = adapters or {}
        trainable = {**({} if peft_mode else params), **adapters_to_dict(adapters)}
        shapes = {name: t.shape for name, t in trainable.items()}
        store = _fork.shared(shapes)
        for name, view in store.items():
            np.copyto(view, trainable[name])
        del trainable  # the private copies are not held for the stage
        params.update({name: store[name] for name in params if name in store})
        for target, ad in adapters.items():
            ad.A, ad.B = store[f"adapters.{target}.A"], store[f"adapters.{target}.B"]
        halves, sizes = ([], []), [0, 0]
        for name in sorted(store, key=lambda k: -store[k].size):
            side = int(sizes[1] <= sizes[0])  # 1: the peer's half
            halves[side].append(name)
            sizes[side] += store[name].size
        grad_views = _fork.shared(shapes)
        pair = Pair(_peer_handlers(store, params, adapters, config, peft_mode,
                                   grad_views, frozenset(halves[1])),
                    grad_views, frozenset(halves[0]))
        try:
            yield pair
        finally:
            pair.close()


def _peer_handlers(tensors, params, adapters, config, peft_mode, grad_views, half):
    """The requests a `paired` peer serves.  `tensors` and `grad_views` are
    the shared stores; AdamW updates the tensors of `half` here, with the
    peer's own moments."""
    state, pending = OptimizerState(), {}

    def grads(ids, mask, labels, weights, subs):
        nll, hits = np.empty(len(labels)), np.empty(len(labels), dtype=bool)
        pending["grads"] = _accumulate(ids, mask, labels, weights, subs, params, config,
                                       adapters, peft_mode, {}, nll, hits)
        return nll, hits

    def add():
        """Every sub-batch's backward yields the same gradient names, so the
        parent's part has already written each one into the store."""
        for name, g in pending.pop("grads").items():
            grad_views[name] += g

    def adamw(hyper, lr, names):
        state.hyper = hyper
        adamw_step(tensors, {name: grad_views[name] for name in names if name in half},
                   state, lr=lr)

    def logits(ids, mask, subs):
        return _forward(ids, mask, subs, params, config, adapters,
                        np.empty((len(ids), config.n_classes)))

    return {"grads": grads, "add": add, "adamw": adamw, "logits": logits}
