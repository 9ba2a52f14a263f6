"""Headline classifier bundling an encoder with its vocabulary, plus checkpoints.

Token ids come from the shared alphanumeric tokenizer and vocabulary; two
ids are appended to the vocabulary: UNK (= len(vocab)) for out-of-
vocabulary tokens and PAD (= len(vocab)+1) for padding, so the encoder's
vocab_size is len(vocab) + 2.
"""
from __future__ import annotations

import json
import zipfile
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ..corpus import LABELS, SentimentLabel
from ..features import Vocabulary, pad_or_truncate, tokenize
from .lora import LoraAdapter, merge_all
from .model import (EncoderConfig, EncoderParams, batch_logits, encoder_forward,
                    param_shapes)

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

    def encode(self, texts) -> tuple[np.ndarray, np.ndarray]:
        """(len(texts), max_len) token ids and masks."""
        ids, mask = zip(*map(self.ids_and_mask, texts))
        return np.array(ids), np.array(mask)

    def logits(self, text: str) -> np.ndarray:
        ids, mask = self.ids_and_mask(text)
        return encoder_forward(ids, mask, self.params, self.config, self.adapters)

    def predict_labels(self, texts) -> list[SentimentLabel]:
        """One label per text, in input order, from sub-batched forward passes."""
        if not texts:
            return []
        ids, mask = self.encode(texts)
        logits = batch_logits(ids, mask, self.params, self.config, self.adapters)
        return [LABELS[i] for i in np.argmax(logits, axis=1)]


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
    arrays = {f"param::{k}": v for k, v in params.items()}
    for target, ad in adapters.items():
        arrays[f"adapter::{target}::A"] = ad.A
        arrays[f"adapter::{target}::B"] = ad.B
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


_JSON_TYPES = {"int": int, "float": (int, float)}


def _check_entry(path, name: str, doc, types: dict) -> None:
    """Raise a ValueError naming `name` and each key of `types` that `doc`
    lacks or holds with another type."""
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint {path}: {name} is not a mapping")
    bad = [key for key, kind in types.items()
           if isinstance(doc.get(key), bool) or not isinstance(doc.get(key), kind)]
    if bad:
        raise ValueError(f"checkpoint {path}: {name} lacks or mistypes {bad}")


def load_checkpoint(path) -> EncoderTextClassifier:
    """Read a `save_checkpoint` file, checking every tensor against the config.

    A `__meta__` member that is missing or no mapping, a missing or mistyped
    meta entry (config value, adapter rank or alpha, vocabulary field, token
    or document frequency),
    unknown or missing config key, member set, tensor shape, adapter shape,
    vocabulary size or `max_len` that does not fit raises a ValueError naming it,
    and so does a file that is no readable zip archive.
    """
    try:
        with np.load(path) as npz:
            if "__meta__" not in npz.files:
                raise ValueError(f"checkpoint {path} lacks its __meta__ member")
            meta = json.loads(bytes(npz["__meta__"]).decode("utf-8"))
            _check_entry(path, "__meta__", meta, {})
            if meta.get("format") != CHECKPOINT_FORMAT:
                raise ValueError(f"not an encoder checkpoint: {path}")
            if meta.get("version") != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version: {meta.get('version')}")
            _check_entry(path, "__meta__", meta,
                         {"config": dict, "max_len": int, "adapters": dict, "vocab": dict})
            _check_entry(path, "vocab", meta["vocab"],
                         {"tokens": list, "document_frequency": list, "n_documents": int})
            tokens, df = meta["vocab"]["tokens"], meta["vocab"]["document_frequency"]
            if len(tokens) != len(df) or not all(isinstance(t, str) for t in tokens) or any(
                    isinstance(n, bool) or not isinstance(n, int) for n in df):
                raise ValueError(f"checkpoint {path}: vocab needs one integer "
                                 "document_frequency per string token")
            unknown = sorted(set(meta["config"]) - {f.name for f in fields(EncoderConfig)})
            missing = [f.name for f in fields(EncoderConfig)
                       if f.default is MISSING and f.name not in meta["config"]]
            if unknown or missing:
                raise ValueError(f"checkpoint {path}: config has unknown keys {unknown}, "
                                 f"lacks keys {missing}")
            _check_entry(path, "config", meta["config"],
                         {f.name: _JSON_TYPES[f.type] for f in fields(EncoderConfig)
                          if f.name in meta["config"]})
            config = EncoderConfig(**meta["config"])
            shapes = param_shapes(config)
            expected = [f"param::{name}" for name in shapes] + [
                f"adapter::{target}::{part}" for target in meta["adapters"] for part in "AB"]
            missing = sorted(set(expected) - set(npz.files))
            unexpected = sorted(set(npz.files) - set(expected) - {"__meta__"})
            if missing or unexpected:
                raise ValueError(f"checkpoint {path}: missing tensors {missing}, "
                                 f"unexpected tensors {unexpected}")
            params = EncoderParams()
            for name, shape in shapes.items():
                params[name] = npz[f"param::{name}"]
                if params[name].shape != shape:
                    raise ValueError(f"checkpoint tensor {name} has shape "
                                     f"{params[name].shape}, expected {shape}")
            adapters = {}
            for target, info in meta["adapters"].items():
                _check_entry(path, f"adapter {target}", info,
                             {"rank": int, "alpha": (int, float)})
                A, B = npz[f"adapter::{target}::A"], npz[f"adapter::{target}::B"]
                rank, base = info["rank"], shapes.get(target, ())
                if len(base) != 2 or A.shape != (rank, base[1]) or B.shape != (base[0], rank):
                    raise ValueError(f"checkpoint adapter {target}: A {A.shape} and B "
                                     f"{B.shape} do not fit rank {rank} and base weight "
                                     f"{base or None}")
                adapters[target] = LoraAdapter(A=A, B=B, rank=rank, alpha=info["alpha"])
    except zipfile.BadZipFile as exc:  # truncated, or a member fails its CRC
        raise ValueError(f"checkpoint {path} is not a readable npz archive: {exc}") from None
    vocab = Vocabulary.from_dict(meta["vocab"])
    if config.vocab_size != encoder_vocab_size(vocab):
        raise ValueError(f"checkpoint config.vocab_size {config.vocab_size} does not "
                         f"match its vocabulary of {len(vocab)} tokens plus UNK and PAD")
    if meta["max_len"] > config.max_seq_len:
        raise ValueError(f"checkpoint max_len {meta['max_len']} exceeds "
                         f"config.max_seq_len {config.max_seq_len}")
    return EncoderTextClassifier(config=config, params=params, vocab=vocab,
                                 max_len=meta["max_len"], adapters=adapters or None)
