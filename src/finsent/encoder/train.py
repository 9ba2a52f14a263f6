"""Microbatched training loop with gradient accumulation and loss tracing."""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .._rng import OP_ENCODER_TRAIN, substream
from .lora import LoraAdapter, adapters_to_dict
from .model import EncoderConfig, EncoderParams, loss_and_grad
from .optim import AdamWConfig, OptimizerState, adamw_step, lr_at


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
    `eval_hook(epoch, params, adapters)`, when given, runs after each epoch
    and may return a mapping with train_acc / val_loss / val_acc entries
    that are recorded on the epoch's final trace row.  The mapping is read
    only after the next epoch's steps (after the last epoch: at the end),
    so it may be a lazy one whose values are computed meanwhile elsewhere
    (the CLI's forked eval); at most one is pending at a time.
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

    tensors = {**params, **adapters_to_dict(adapters or {})}
    state = OptimizerState(hyper=adamw or AdamWConfig(lr=train_config.base_lr))

    trace: list[TraceRow] = []
    pending = None  # (row, metrics) of the last eval, not read yet
    step = 0
    for epoch in range(train_config.epochs):
        order = substream(train_config.seed, OP_ENCODER_TRAIN, epoch).permutation(n)
        micros = [order[s:s + b] for s in range(0, n, b)]
        for g0 in range(0, len(micros), train_config.grad_accum_steps):
            group = micros[g0:g0 + train_config.grad_accum_steps]
            # One call per group; weights keep the mean of microbatch means.
            batch = [examples[i] for micro in group for i in micro]
            weights = [1.0 / (len(micro) * len(group)) for micro in group for _ in micro]
            loss, grads = loss_and_grad(params, batch, config, adapters,
                                        peft_mode=peft_mode, weights=weights)
            step += 1
            if not math.isfinite(loss):
                raise ValueError(f"non-finite training loss {loss} at optimizer "
                                 f"step {step} (epoch {epoch})")
            lr = lr_at(step, total_steps, train_config.base_lr,
                       train_config.warmup_ratio)
            adamw_step(tensors, grads, state, lr=lr)
            del grads  # not held while the next step's gradients are built
            trace.append(TraceRow(step=step, epoch=epoch, lr=lr, loss=loss))
        if pending is not None:
            _record(*pending)
        if eval_hook is not None and trace:
            pending = (trace[-1], eval_hook(epoch, params, adapters))
    if pending is not None:
        _record(*pending)
    return trace


def _record(row: TraceRow, metrics) -> None:
    if metrics is not None:  # not truth: that would read a lazy mapping now
        row.train_acc = metrics.get("train_acc", row.train_acc)
        row.val_loss = metrics.get("val_loss", row.val_loss)
        row.val_acc = metrics.get("val_acc", row.val_acc)
