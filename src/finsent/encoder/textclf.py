"""Headline classifier bundling an encoder with its vocabulary, plus checkpoints.

Token ids come from the shared alphanumeric tokenizer and vocabulary; two
ids are appended to the vocabulary: UNK (= len(vocab)) for out-of-
vocabulary tokens and PAD (= len(vocab)+1) for padding, so the encoder's
vocab_size is len(vocab) + 2.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..corpus import LABELS, SentimentLabel
from ..features import Vocabulary, pad_or_truncate, tokenize
from .lora import LoraAdapter, merge_all
from .model import EncoderConfig, EncoderParams, encoder_forward

CHECKPOINT_FORMAT = "finsent-encoder"
CHECKPOINT_VERSION = 1


def encoder_vocab_size(vocab: Vocabulary) -> int:
    return len(vocab) + 2


@dataclass
class EncoderTextClassifier:
    config: EncoderConfig
    params: EncoderParams
    vocab: Vocabulary
    max_len: int
    adapters: dict[str, LoraAdapter] | None = None

    @property
    def unk_id(self) -> int:
        return len(self.vocab)

    @property
    def pad_id(self) -> int:
        return len(self.vocab) + 1

    def ids_and_mask(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        toks = tokenize(text)
        ids = [self.vocab.index.get(t, self.unk_id) for t in toks] or [self.unk_id]
        return pad_or_truncate(ids, self.max_len, self.pad_id)

    def example(self, text: str, label: SentimentLabel) -> tuple[np.ndarray, np.ndarray, int]:
        ids, mask = self.ids_and_mask(text)
        return ids, mask, label.index

    def logits(self, text: str) -> np.ndarray:
        ids, mask = self.ids_and_mask(text)
        return encoder_forward(ids, mask, self.params, self.config, self.adapters)

    def predict_index(self, text: str) -> int:
        return int(np.argmax(self.logits(text)))

    def predict_label(self, text: str) -> SentimentLabel:
        return LABELS[self.predict_index(text)]


def save_checkpoint(clf: EncoderTextClassifier, path, merged: bool = False) -> None:
    """Versioned npz container: config, vocabulary, tensors, adapter tensors.

    merged=True folds adapters into the base weights and stores no adapter
    tensors (the exported model is a plain dense encoder).
    """
    params = clf.params
    adapters = clf.adapters or {}
    if merged and adapters:
        params = merge_all(params, adapters)
        adapters = {}
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(clf.config),
        "max_len": clf.max_len,
        "vocab": clf.vocab.to_dict(),
        "adapters": {target: {"rank": ad.rank, "alpha": ad.alpha}
                     for target, ad in adapters.items()},
    }
    arrays = {f"param::{k}": v for k, v in params.to_dict().items()}
    for target, ad in adapters.items():
        arrays[f"adapter::{target}::A"] = ad.A
        arrays[f"adapter::{target}::B"] = ad.B
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> EncoderTextClassifier:
    with np.load(path) as npz:
        meta = json.loads(bytes(npz["__meta__"]).decode("utf-8"))
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"not an encoder checkpoint: {path}")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version: {meta.get('version')}")
        config = EncoderConfig(**meta["config"])
        tensors = {name[len("param::"):]: npz[name] for name in npz.files
                   if name.startswith("param::")}
        params = EncoderParams.from_dict(tensors, config.n_layers)
        adapters = {}
        for target, info in meta["adapters"].items():
            adapters[target] = LoraAdapter(
                A=npz[f"adapter::{target}::A"],
                B=npz[f"adapter::{target}::B"],
                rank=info["rank"], alpha=info["alpha"])
    return EncoderTextClassifier(config=config, params=params,
                                 vocab=Vocabulary.from_dict(meta["vocab"]),
                                 max_len=meta["max_len"],
                                 adapters=adapters or None)
