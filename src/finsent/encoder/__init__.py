"""Desk-scale transformer encoder: model, adapters, optimizer, training."""
from .lora import (
    DEFAULT_TARGETS,
    LoraAdapter,
    adapters_to_dict,
    init_adapter,
    init_adapters,
    merge_adapter,
    merge_all,
)
from .model import (
    EncoderConfig,
    EncoderParams,
    attention,
    batch_logits,
    batch_loss,
    encoder_backward,
    encoder_forward,
    gelu,
    init_params,
    layer_norm,
    loss_and_grad,
    mean_nll,
    multi_head_attention,
    param_shapes,
)
from .optim import AdamWConfig, OptimizerState, adamw_step, lr_at
from .textclf import (
    EncoderTextClassifier,
    encoder_vocab_size,
    load_checkpoint,
    save_checkpoint,
)
from .train import TrainConfig, TraceRow, trace_to_csv, train_loop

__all__ = [
    "AdamWConfig", "DEFAULT_TARGETS", "EncoderConfig", "EncoderParams",
    "EncoderTextClassifier", "LoraAdapter", "OptimizerState", "TraceRow",
    "TrainConfig", "adamw_step", "adapters_to_dict", "attention", "batch_logits",
    "batch_loss", "encoder_backward", "encoder_forward", "encoder_vocab_size",
    "gelu", "init_adapter", "init_adapters", "init_params", "layer_norm",
    "load_checkpoint", "loss_and_grad", "lr_at", "mean_nll", "merge_adapter",
    "merge_all", "multi_head_attention", "param_shapes", "save_checkpoint",
    "trace_to_csv", "train_loop",
]
