"""Command-line pipeline: ingest, split, upsample, augment, analyze, featurize,
train-linear, train-encoder, predict, evaluate, compare.

`STAGES` is the table of subcommands: the help text of each, and its flags
with the dotted config key each one overrides or the default input file
under `--out`.  `main` drives every stage alike: it fills each unset flag
from its config key or with its default file (a flag given on the command
line wins over the config), creates the output directory, calls
`cmd_<stage>(args, cfg, out)`, writes the `(params, inputs, outputs,
message)` it returns to `manifest_<command>.json` with content hashes, and
prints the message.

`DEFAULT_CONFIG` is the config schema: `load_config` checks every key against
the type of its default, `_POSITIVE` and `_CHOICES` (also the flags' choices),
so every stage fails on any bad key, read or not, before it runs.  Each
settings object is built from its section.  Three `prompt` keys, whose
defaults are `promptkit.DEFAULT_TEMPLATE`'s fields, make the generation
prompt's `PromptTemplate`; it checks the `{headline}` slot and the answer
marker when `predict` builds it, before it reads its input.

Exit codes: 0 success; 2 invalid config or usage (bad YAML, unknown,
mistyped, non-finite, empty, non-positive or negative keys or flag values, a
value outside its key's choices, values that the encoder, training,
augmentation, generation, template, adapter or linear-model settings reject,
a missing corpus or encoder checkpoint);
3 data errors (input that does not parse or cannot be read, a split the
corpus cannot fill, prediction and gold counts that differ, a corrupt
encoder checkpoint, a non-finite training loss); 4 backend errors.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict
from functools import reduce
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from . import analysis as analysis_mod
from . import augment as augment_mod
from . import encoder as enc
from . import features as features_mod
from . import linear_model as linear_mod
from . import metrics as metrics_mod
from . import promptkit
from .corpus import (
    ENCODINGS,
    FORMATS,
    LABELS,
    CorpusError,
    Dataset,
    SentimentLabel,
    class_counts,
    load_corpus,
    stratified_split,
    upsample,
    write_corpus,
)
from .encoder.lora import VALID_TARGETS

DEFAULT_SEED = 7

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_BACKEND = 4


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


DEFAULT_CONFIG: dict = {
    "paths": {
        "data": None,           # null -> bundled sample corpus
        "format": "csv_headered",
        "encoding": "utf8",
        "lexicon": None,        # null -> bundled thesaurus
        "stopwords": None,      # null -> bundled stopword list
        "output_dir": "runs/latest",
    },
    "seeds": {"master": DEFAULT_SEED},
    "split": {"train_total": 45, "test_total": 45},
    "upsample": {"target_per_class": 30},
    "augment": {"n_replace": 1, "n_insert": 1, "p_delete": 0.1, "n_swap": 1,
                "copies_per_record": 1},
    "analyze": {"top_k": 20},
    "features": {"min_df": 1, "max_vocab": 4000, "max_seq_len": 24},
    "linear": {"lr": 0.5, "epochs": 150, "batch_size": 0, "l2": 1e-4},
    "encoder": {
        "d_model": 32, "n_heads": 4, "d_ff": 64, "n_layers": 2,
        "layernorm_eps": 1e-5,
        # library TrainConfig defaults keep the reference fine-tuning rate
        # (2e-4); at desk scale only tiny adapters train, so runs default
        # to a larger rate.
        "train": {"epochs": 3, "per_device_batch": 1, "grad_accum_steps": 8,
                  "base_lr": 5e-3, "warmup_ratio": 0.03},
        "adamw": {"weight_decay": 0.01},
        "peft": {"rank": 4, "alpha": 8.0, "targets": ["W_Q", "W_V", "W_o"]},
    },
    "prompt": {"instruction": promptkit.DEFAULT_TEMPLATE.instruction,
               "answer_marker": promptkit.DEFAULT_TEMPLATE.answer_marker,
               "allowed_labels": list(promptkit.DEFAULT_TEMPLATE.allowed_labels),
               "max_new_tokens": 8, "temperature": 0.0},
    "backend": {"kind": "encoder", "url": None, "text_path": "text",
                "timeout": 10.0, "retries": 3, "auth_env": "FINSENT_API_TOKEN",
                "max_in_flight": 4, "fixed_text": "neutral"},
    "metrics": {"nolabel_policy": "count_as_error"},
}


# Keys that must be above zero, and counts not below it; settings objects check the rest.
_POSITIVE = {"analyze.top_k", "features.min_df", "features.max_vocab",
             "features.max_seq_len", "encoder.d_model", "encoder.n_heads", "encoder.d_ff",
             "encoder.peft.rank", "encoder.peft.alpha", "encoder.layernorm_eps",
             "prompt.max_new_tokens", "backend.timeout", "backend.retries",
             "backend.max_in_flight"}
_NON_NEGATIVE = {"split.train_total", "split.test_total", "upsample.target_per_class"}

# Keys whose value (each item, for a list) must be one of the listed words.
_LABEL_WORDS = tuple(lab.value for lab in LABELS)
_CHOICES = {"paths.format": FORMATS, "paths.encoding": ENCODINGS,
            "encoder.peft.targets": VALID_TARGETS,
            "prompt.allowed_labels": _LABEL_WORDS,
            "backend.kind": ("encoder", "http", "fixed"),
            "metrics.nolabel_policy": ("count_as_error", *_LABEL_WORDS)}


def _check_leaf(here: str, default, value):
    """`value`, checked against the type of its default: an int passes as a
    float and becomes one, a null default takes a string or null, list items
    take the type of the default's items, and a bool never passes as a number.
    Floats must be finite and lists non-empty."""
    if default is None:  # an optional key: null, or a string
        default = None if value is None else ""
    if isinstance(default, float) and type(value) is int:
        value = float(value)
    ok = type(value) is type(default)
    if ok and isinstance(value, list):
        ok = all(type(v) is type(default[0]) for v in value)
    if not ok:
        kind = type(default).__name__
        if isinstance(default, list):
            kind += f" of {type(default[0]).__name__}"
        raise ConfigError(f"config key {here} must be of type {kind}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config key {here} must be finite")
    if isinstance(value, list) and not value:
        raise ConfigError(f"config key {here} must not be empty")
    if here in _POSITIVE and value <= 0:
        raise ConfigError(f"config key {here} must be positive")
    if here in _NON_NEGATIVE and value < 0:
        raise ConfigError(f"config key {here} must be non-negative")
    choices = _CHOICES.get(here)
    if choices and not set(value if isinstance(value, list) else [value]) <= set(choices):
        raise ConfigError(f"config key {here} must be one of {', '.join(choices)}")
    return value


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {here} must be a mapping")
            out[key] = _deep_merge(base[key], value, here)
        else:
            out[key] = _check_leaf(here, base[key], value)
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(text) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config root in {path} must be a mapping")
    return _deep_merge(load_config(None), doc)


def _build(section: str, factory, *args, **kwargs):
    """`factory(*args, **kwargs)`, reporting a value it rejects as a config error."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {section} config: {exc}") from exc


def bundled_sample_path() -> Path:
    return Path(str(resources.files("finsent.data").joinpath("sample_corpus.csv")))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, params: dict,
                    inputs: dict[str, Path], outputs: dict[str, Path]) -> Path:
    doc = {
        "command": command,
        "params": params,
        "inputs": {name: {"file": p.name, "sha256": _sha256(p)}
                   for name, p in sorted(inputs.items())},
        "outputs": {name: {"file": p.name, "sha256": _sha256(p)}
                    for name, p in sorted(outputs.items())},
    }
    path = out_dir / f"manifest_{command.replace('-', '_')}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _load_canonical(path) -> Dataset:
    return load_corpus(Path(path), format="csv_headered", encoding="utf8")


def _write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_text(path: Path, text: str) -> Path:
    # Encoded a slice at a time: a large text never sits beside its full bytes.
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(text), 1 << 20):
            fh.write(text[start:start + (1 << 20)])
    return path


def _vocabulary(cfg, corpus) -> features_mod.Vocabulary:
    return features_mod.build_vocabulary(
        corpus, min_df=cfg["features"]["min_df"], max_size=cfg["features"]["max_vocab"])


def _train_tfidf(cfg, train_ds: Dataset):
    """The training set's vocabulary and TF-IDF matrix, from one tokenization."""
    docs = features_mod.token_lists(train_ds)
    vocab = _vocabulary(cfg, docs)
    return vocab, features_mod.tfidf(docs, vocab)


# ---------------------------------------------------------------------------
# stages: each returns (params, inputs, outputs, message)
# ---------------------------------------------------------------------------

def cmd_ingest(args, cfg, out):
    source = Path(args.data) if args.data else bundled_sample_path()
    if not source.exists():
        raise ConfigError(f"data file not found: {source}")
    ds = load_corpus(source, format=args.format, encoding=args.encoding)
    target = out / "dataset.csv"
    write_corpus(ds, target)
    counts = {lab.value: c for lab, c in class_counts(ds).items()}
    return ({"format": args.format, "encoding": args.encoding, "counts": counts},
            {"data": source}, {"dataset": target},
            f"ingested {len(ds)} records "
            f"({', '.join(f'{lab}={c}' for lab, c in counts.items())}) -> {target}")


def cmd_split(args, cfg, out):
    ds = _load_canonical(args.input)
    train, test = stratified_split(ds, args.train_total, args.test_total, args.seed)
    train_path, test_path = out / "train.csv", out / "test.csv"
    write_corpus(train, train_path)
    write_corpus(test, test_path)
    return ({"seed": args.seed, "train_total": args.train_total,
             "test_total": args.test_total},
            {"dataset": Path(args.input)}, {"train": train_path, "test": test_path},
            f"split {len(ds)} records into train={len(train)} test={len(test)}")


def cmd_upsample(args, cfg, out):
    up = upsample(_load_canonical(args.input), args.target, args.seed)
    target_path = out / "train_upsampled.csv"
    write_corpus(up, target_path)
    return ({"seed": args.seed, "target_per_class": args.target},
            {"train": Path(args.input)}, {"train_upsampled": target_path},
            f"upsampled to {len(up)} records ({args.target} per class)")


def cmd_augment(args, cfg, out):
    config = _build("augment", augment_mod.AugmentConfig, **dict(
        cfg["augment"], copies_per_record=args.copies, seed=args.seed))
    lexicon = (augment_mod.load_lexicon(args.lexicon) if args.lexicon
               else augment_mod.bundled_lexicon())
    ds = _load_canonical(args.input)
    augmented = augment_mod.augment_dataset(ds, config, lexicon)
    target = out / "train_augmented.csv"
    write_corpus(augmented, target)
    return (asdict(config), {"train": Path(args.input)}, {"train_augmented": target},
            f"augmented {len(ds)} -> {len(augmented)} records")


def cmd_analyze(args, cfg, out):
    ds = _load_canonical(args.input)
    stopwords = (analysis_mod.load_stopwords(args.stopwords) if args.stopwords
                 else analysis_mod.bundled_stopwords())
    counts, proportions = analysis_mod.class_distribution(ds)
    dist_path = _write_text(out / "class_distribution.json", json.dumps(
        {"counts": {lab.value: counts[lab] for lab in LABELS},
         "proportions": {lab.value: proportions[lab] for lab in LABELS}},
        indent=2, sort_keys=True) + "\n")

    names = analysis_mod.FIELD_NAMES
    docs = features_mod.token_lists(ds)
    matrix = analysis_mod.feature_matrix(ds, docs)
    feats_path = _write_csv(
        out / "derived_features.csv", ("label",) + names,
        ([rec.label.value] + row for rec, row in zip(ds, matrix.tolist())))
    corr = analysis_mod.correlation_matrix(matrix)
    corr_path = _write_csv(
        out / "correlation_matrix.csv", ("feature",) + names,
        ([name] + row for name, row in zip(names, corr.matrix.tolist())))
    keywords = analysis_mod.keyword_frequencies(ds, args.top_k, stopwords, docs)
    kw_path = _write_csv(
        out / "keyword_frequencies.csv", ["label", "rank", "token", "count"],
        ([lab.value, rank, token, count] for lab in LABELS
         for rank, (token, count) in enumerate(keywords[lab], start=1)))

    return ({"top_k": args.top_k}, {"dataset": Path(args.input)},
            {"class_distribution": dist_path, "derived_features": feats_path,
             "correlation_matrix": corr_path, "keyword_frequencies": kw_path},
            f"analysis artifacts written to {out}")


def cmd_featurize(args, cfg, out):
    vocab, train_tfidf = _train_tfidf(cfg, _load_canonical(args.train))
    inputs = {"train": Path(args.train)}
    outputs = {"vocabulary": _write_text(out / "vocabulary.json",
                                         json.dumps(vocab.to_dict()) + "\n"),
               "tfidf_train": _write_text(out / "tfidf_train.csv",
                                          train_tfidf.to_triplet_csv())}
    if args.eval:
        inputs["eval"] = Path(args.eval)
        outputs["tfidf_eval"] = _write_text(out / "tfidf_eval.csv", features_mod.tfidf(
            _load_canonical(args.eval), vocab).to_triplet_csv())
    return ({"min_df": cfg["features"]["min_df"],
             "max_vocab": cfg["features"]["max_vocab"]}, inputs, outputs,
            f"vocabulary of {len(vocab)} tokens; features written to {out}")


def _labels_to_indices(ds: Dataset) -> np.ndarray:
    return np.array([rec.label.index for rec in ds], dtype=np.int64)


def _write_predictions(path: Path, predictions) -> Path:
    return _write_csv(path, ["prediction"],
                      ([pred.value if pred is not None else "nolabel"]
                       for pred in predictions))


def _read_predictions(path: Path) -> list[SentimentLabel | None]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["prediction"]:
        raise CorpusError(f"{path}: expected a 'prediction' CSV header")
    predictions = []
    for row_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        word = row[0].strip().lower()
        try:
            predictions.append(None if word == "nolabel" else SentimentLabel.parse(word))
        except ValueError as exc:
            raise CorpusError(f"{path}: row {row_no}: {exc}") from None
    return predictions


def cmd_train_linear(args, cfg, out):
    hyper = _build("linear", linear_mod.LinearTrainConfig, **cfg["linear"],
                   seed=args.seed)
    train_ds = _load_canonical(args.train)
    vocab, train_tfidf = _train_tfidf(cfg, train_ds)
    params, trace = linear_mod.train(train_tfidf.matrix, _labels_to_indices(train_ds),
                                     hyper)

    model_path = out / "linear.json"
    linear_mod.save_checkpoint(params, model_path)
    inputs = {"train": Path(args.train)}
    outputs = {"model": model_path,
               "vocabulary": _write_text(out / "linear_vocab.json",
                                         json.dumps(vocab.to_dict()) + "\n"),
               "trace": _write_csv(out / "linear_trace.csv", ["epoch", "loss"],
                                   ([epoch, repr(loss)]
                                    for epoch, loss in enumerate(trace)))}
    messages = []
    if args.test:
        test_ds = _load_canonical(args.test)
        pred_idx = linear_mod.predict(params, features_mod.tfidf(test_ds, vocab).matrix)
        inputs["test"] = Path(args.test)
        outputs["predictions"] = _write_predictions(
            out / "linear_predictions.csv", [LABELS[i] for i in pred_idx])
        acc = float(np.mean(pred_idx == _labels_to_indices(test_ds)))
        messages.append(f"linear test accuracy: {acc:.3f}")
    messages.append(f"linear model trained on {len(train_ds)} records; "
                    f"final loss {trace[-1]:.4f}" if trace else "linear model written")
    return asdict(hyper), inputs, outputs, "\n".join(messages)


def cmd_train_encoder(args, cfg, out):
    """Trains the encoder; with --test, scores the validation set after each
    epoch.  Training accuracy is counted in the training pass itself."""
    section = cfg["encoder"]
    train_config = _build("encoder.train", enc.TrainConfig, **dict(
        section["train"], epochs=args.epochs, seed=args.seed))
    adamw = _build("encoder.adamw", enc.AdamWConfig, **section["adamw"])

    train_ds = _load_canonical(args.train)
    vocab = _vocabulary(cfg, train_ds)
    config = _build(
        "encoder", enc.EncoderConfig, vocab_size=enc.encoder_vocab_size(vocab),
        max_seq_len=cfg["features"]["max_seq_len"],
        **{key: value for key, value in section.items()
           if not isinstance(value, dict)})
    params = enc.init_params(config, args.seed)

    adapters = None
    if args.peft:
        adapters = _build("encoder.peft", enc.init_adapters, config,
                          **section["peft"], seed=args.seed)
    clf = enc.EncoderTextClassifier(
        config=config, params=params, vocab=vocab,
        max_len=config.max_seq_len, adapters=adapters)

    def encoded(ds):
        return (*clf.encode([rec.text for rec in ds]), _labels_to_indices(ds))

    examples = list(zip(*encoded(train_ds)))
    eval_hook = None
    if args.test:
        # Tokenized once; each epoch's eval is one batched pass over it.
        val_ids, val_mask, val_labels = encoded(_load_canonical(args.test))

        def eval_hook(batch_logits):
            """Accuracy and loss on the validation set."""
            logits = batch_logits(val_ids, val_mask)
            hits = int(np.sum(logits.argmax(axis=1) == val_labels))
            return {"val_acc": hits / len(val_labels),
                    "val_loss": enc.mean_nll(logits, val_labels)}

    trace = enc.train_loop(examples, params, config, train_config,
                           adapters=adapters, peft_mode=args.peft,
                           adamw=adamw, eval_hook=eval_hook)

    ckpt_path = out / "encoder.npz"
    enc.save_checkpoint(clf, ckpt_path, merged=args.merge)
    trace_path = _write_text(out / "encoder_trace.csv", enc.trace_to_csv(trace))

    inputs = {"train": Path(args.train)}
    if args.test:
        inputs["test"] = Path(args.test)
    message = (f"encoder trained: final loss {trace[-1].loss:.4f}, "
               f"train acc {trace[-1].train_acc:.3f}" if trace else "encoder trained")
    return ({**asdict(train_config), "peft": args.peft, "merged": args.merge,
             "d_model": config.d_model, "n_heads": config.n_heads,
             "d_ff": config.d_ff, "n_layers": config.n_layers},
            inputs, {"checkpoint": ckpt_path, "trace": trace_path}, message)


def _prompt_backend(args, cfg) -> promptkit.GenerationBackend:
    if args.backend == "fixed":
        return promptkit.FixedResponseBackend(args.fixed_text)
    if not args.url:
        raise ConfigError("http backend requires backend.url")
    backend = cfg["backend"]
    return promptkit.HttpBackend(args.url, text_path=backend["text_path"],
                                 timeout=backend["timeout"], auth_env=backend["auth_env"])


def cmd_predict(args, cfg, out):
    prompt = cfg["prompt"]
    gen_config = _build("prompt", promptkit.GenConfig, prompt["max_new_tokens"],
                        prompt["temperature"])
    template = _build("prompt", promptkit.PromptTemplate, prompt["instruction"],
                      prompt["answer_marker"], tuple(prompt["allowed_labels"]))
    ds = _load_canonical(args.input)
    inputs = {"input": Path(args.input)}
    if args.backend == "encoder":
        # An in-process classifier answers with a label: no prompt, pool or retries.
        inputs["checkpoint"] = Path(args.checkpoint)
        if not inputs["checkpoint"].exists():
            raise ConfigError(f"encoder checkpoint not found: {args.checkpoint}")
        clf = enc.load_checkpoint(args.checkpoint)
        predictions, nolabel = clf.predict_labels([rec.text for rec in ds]), 0
    else:
        policy = cfg["metrics"]["nolabel_policy"]
        predictions, nolabel = promptkit.predict_sentiments(
            ds, _prompt_backend(args, cfg), template=template, config=gen_config,
            nolabel_to=None if policy == "count_as_error" else SentimentLabel(policy),
            max_in_flight=cfg["backend"]["max_in_flight"],
            retries=cfg["backend"]["retries"])
    return ({**asdict(gen_config), "backend": args.backend, "nolabel": nolabel},
            inputs, {"predictions": _write_predictions(out / "predictions.csv",
                                                       predictions)},
            f"predicted {len(predictions)} records ({nolabel} without label)")


def cmd_evaluate(args, cfg, out):
    gold = _load_canonical(args.gold)
    preds = _read_predictions(Path(args.pred))
    if len(preds) != len(gold):
        raise CorpusError(f"{len(preds)} predictions vs {len(gold)} gold records")
    cm, nolabel = metrics_mod.confusion([rec.label for rec in gold], preds)
    rep = metrics_mod.report(cm, nolabel)

    table = metrics_mod.render_table(rep)
    return ({"name": args.name}, {"gold": Path(args.gold), "predictions": Path(args.pred)},
            {"report_json": _write_text(out / f"report_{args.name}.json",
                                        rep.to_json() + "\n"),
             "report_txt": _write_text(out / f"report_{args.name}.txt", table + "\n"),
             "confusion": _write_text(out / f"confusion_{args.name}.csv", cm.to_csv())},
            rep.to_json() if args.json else table)


def cmd_compare(args, cfg, out):
    pairs = []
    inputs = {}
    for spec in args.reports:
        name, _, path = spec.partition("=")
        if not name or not path:
            raise ConfigError(f"--reports entries must be name=path, got {spec!r}")
        if name in inputs:
            raise ConfigError(f"--reports names {name!r} more than once")
        try:
            rep = metrics_mod.EvalReport.from_json(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise CorpusError(f"report {path}: {exc}") from exc
        pairs.append((name, rep))
        inputs[name] = Path(path)
    table = metrics_mod.compare(pairs)
    cmp_path = _write_text(out / "comparison.txt", table + "\n")
    doc = {name: {"precision": rep.macro_precision, "recall": rep.macro_recall,
                  "f1": rep.macro_f1} for name, rep in pairs}
    return ({"models": [n for n, _ in pairs]}, inputs, {"comparison": cmp_path},
            json.dumps(doc, indent=2, sort_keys=True) if args.json else table)


# ---------------------------------------------------------------------------
# the stage table and its driver
# ---------------------------------------------------------------------------

class Flag(NamedTuple):
    name: str                     # e.g. "--train-total"
    config: str | None            # dotted config key that an unset flag takes
    out_file: str | None          # file under --out that an unset flag names
    options: dict                 # further keywords of add_argument

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


def _flag(name, help=None, config=None, out_file=None, **options) -> Flag:
    if out_file:
        help = f"{help} (default: <out>/{out_file})"
    if config in _CHOICES:
        options["choices"] = _CHOICES[config]
    return Flag(name, config, out_file, dict(options, help=help))


class Stage(NamedTuple):
    help: str
    flags: tuple[Flag, ...]
    manifest: str = "{command}"   # manifest name, formatted with the flags


_SEED = _flag("--seed", type=int, config="seeds.master")
_JSON = _flag("--json", "print machine-readable JSON", action="store_true")
_COMMON = (_flag("--config", "YAML run configuration"),
           _flag("--out", "output directory (default: config paths.output_dir)",
                 config="paths.output_dir"))

STAGES: dict[str, Stage] = {
    "ingest": Stage("parse a raw corpus into canonical CSV", (
        _flag("--data", "corpus file (default: bundled sample)", config="paths.data"),
        _flag("--format", config="paths.format"),
        _flag("--encoding", config="paths.encoding"))),
    "split": Stage("deterministic stratified train/test split", (
        _flag("--input", "canonical CSV", out_file="dataset.csv"),
        _flag("--train-total", type=int, config="split.train_total"),
        _flag("--test-total", type=int, config="split.test_total"),
        _SEED)),
    "upsample": Stage("equalize class counts", (
        _flag("--input", "canonical CSV", out_file="train.csv"),
        _flag("--target", "records per class", type=int,
              config="upsample.target_per_class"),
        _SEED)),
    "augment": Stage("append augmented copies of each record", (
        _flag("--input", "canonical CSV", out_file="train.csv"),
        _flag("--lexicon", "synonym lexicon file (default: bundled)",
              config="paths.lexicon"),
        _flag("--copies", "augmented copies per record", type=int,
              config="augment.copies_per_record"),
        _SEED)),
    "analyze": Stage("class balance, features, keywords", (
        _flag("--input", "canonical CSV", out_file="dataset.csv"),
        _flag("--stopwords", "stopword file (default: bundled)",
              config="paths.stopwords"),
        _flag("--top-k", type=int, config="analyze.top_k"))),
    "featurize": Stage("vocabulary + TF-IDF", (
        _flag("--train", "fit corpus", out_file="train.csv"),
        _flag("--eval", "extra corpus transformed with the same vocabulary"))),
    "train-linear": Stage("TF-IDF logistic-regression baseline", (
        _flag("--train", "training CSV", out_file="train.csv"),
        _flag("--test", "if given, also write test predictions"),
        _SEED)),
    "train-encoder": Stage("train the transformer encoder", (
        _flag("--train", "training CSV", out_file="train.csv"),
        _flag("--test", "validation CSV for the per-epoch trace"),
        _flag("--peft", "train low-rank adapters only, freezing the base",
              action="store_true"),
        _flag("--merge", "export adapter-merged dense weights", action="store_true"),
        _flag("--epochs", type=int, config="encoder.train.epochs"),
        _SEED)),
    "predict": Stage("label records with the encoder or a generation backend", (
        _flag("--input", "canonical CSV", out_file="test.csv"),
        _flag("--backend", config="backend.kind"),
        _flag("--checkpoint", "encoder checkpoint (.npz)", out_file="encoder.npz"),
        _flag("--url", "http backend endpoint", config="backend.url"),
        _flag("--fixed-text", "response of the fixed stub backend",
              config="backend.fixed_text"))),
    "evaluate": Stage("score predictions against gold labels", (
        _flag("--gold", "gold CSV", out_file="test.csv"),
        _flag("--pred", "predictions CSV", out_file="predictions.csv"),
        _flag("--name", "report name suffix", default="model"),
        _JSON), manifest="evaluate-{name}"),
    "compare": Stage("side-by-side macro metrics of reports", (
        _flag("--reports", nargs="+", required=True, metavar="NAME=PATH"),
        _JSON)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsent",
        description="Financial headline sentiment pipeline.")
    parser.add_argument("--version", action="version", version="finsent 0.1.0")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, stage in STAGES.items():
        p = sub.add_parser(command, help=stage.help)
        for flag in _COMMON + stage.flags:
            p.add_argument(flag.name, **flag.options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stage = STAGES[args.command]
    try:
        cfg = load_config(args.config)
        # --out comes first, so default files resolve under the filled value.
        for flag in _COMMON + stage.flags:
            value = getattr(args, flag.dest)
            if flag.config:  # a value given as a flag is checked as a config value
                *keys, key = flag.config.split(".")
                section = reduce(dict.__getitem__, keys, cfg)
                if value is not None:  # the loaded value has the type of the default
                    section[key] = _check_leaf(flag.config, section[key], value)
                setattr(args, flag.dest, section[key])
            elif value is None and flag.out_file:
                setattr(args, flag.dest, Path(args.out) / flag.out_file)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # Looked up per call, so that wrappers set on this module take effect.
        run = globals()["cmd_" + args.command.replace("-", "_")]
        params, inputs, outputs, message = run(args, cfg, out)
        _write_manifest(out, stage.manifest.format(**vars(args)), params, inputs,
                        outputs)
        print(message)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (promptkit.BackendError, promptkit.PredictionError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (CorpusError, ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
