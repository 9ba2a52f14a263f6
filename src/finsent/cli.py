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

Exit codes: 0 success; 2 invalid config or usage (bad YAML, unknown keys,
mistyped values, values that the encoder, training, augmentation,
generation or adapter settings reject, a missing corpus or encoder
checkpoint); 3 data errors (input that does not parse or cannot be read, a
split the corpus cannot fill, prediction and gold counts that differ);
4 backend errors.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict
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
        "embeddings": None,
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
    "prompt": {"template": None, "max_new_tokens": 8, "temperature": 0.0},
    "backend": {"kind": "encoder", "url": None, "text_path": "text",
                "timeout": 10.0, "retries": 3, "auth_env": "FINSENT_API_TOKEN",
                "max_in_flight": 4, "fixed_text": "neutral"},
    "metrics": {"nolabel_policy": "count_as_error"},
}


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
            out[key] = value
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
    return _deep_merge(DEFAULT_CONFIG, doc)


def _require(cfg: dict, dotted: str, kind, positive: bool = False):
    """The value at `dotted`, checked to be a `kind` (ints pass as floats).

    Keys whose default is null (optional files, the backend URL) may stay null.
    """
    node, default = cfg, DEFAULT_CONFIG
    for part in dotted.split("."):
        node, default = node[part], default[part]
    if node is None and default is None:
        return None
    if kind is float and isinstance(node, int) and not isinstance(node, bool):
        node = float(node)
    if not isinstance(node, kind) or isinstance(node, bool):
        raise ConfigError(f"config key {dotted} must be of type {kind.__name__}")
    if positive and node <= 0:
        raise ConfigError(f"config key {dotted} must be positive")
    return node


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
    path.write_text(text, encoding="utf-8")
    return path


def _vocabulary(cfg, train_ds: Dataset) -> features_mod.Vocabulary:
    return features_mod.build_vocabulary(
        train_ds, min_df=_require(cfg, "features.min_df", int, positive=True),
        max_size=_require(cfg, "features.max_vocab", int, positive=True))


def _load_template(cfg) -> promptkit.PromptTemplate:
    path = cfg["prompt"]["template"]
    if path is None:
        return promptkit.DEFAULT_TEMPLATE
    try:
        doc = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        return promptkit.PromptTemplate(
            instruction=doc["instruction"],
            answer_marker=doc["answer_marker"],
            allowed_labels=tuple(doc.get("allowed_labels",
                                         [lab.value for lab in LABELS])))
    except (OSError, KeyError, TypeError, ValueError, yaml.YAMLError) as exc:
        raise ConfigError(f"invalid prompt template file {path}: {exc}") from exc


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
    a = cfg["augment"]
    config = _build("augment", augment_mod.AugmentConfig,
                    n_replace=a["n_replace"], n_insert=a["n_insert"],
                    p_delete=a["p_delete"], n_swap=a["n_swap"],
                    copies_per_record=args.copies, seed=args.seed)
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

    names = analysis_mod.DerivedFeatures.FIELD_NAMES
    matrix = analysis_mod.feature_matrix(ds)
    feats_path = _write_csv(
        out / "derived_features.csv", ("label",) + names,
        ([rec.label.value] + [repr(float(v)) for v in row]
         for rec, row in zip(ds, matrix)))
    corr = analysis_mod.correlation_matrix(matrix)
    corr_path = _write_csv(
        out / "correlation_matrix.csv", ("feature",) + names,
        ([name] + [repr(float(v)) for v in row] for name, row in zip(names, corr.matrix)))
    keywords = analysis_mod.keyword_frequencies(ds, args.top_k, stopwords)
    kw_path = _write_csv(
        out / "keyword_frequencies.csv", ["label", "rank", "token", "count"],
        ([lab.value, rank, token, count] for lab in LABELS
         for rank, (token, count) in enumerate(keywords[lab], start=1)))

    return ({"top_k": args.top_k}, {"dataset": Path(args.input)},
            {"class_distribution": dist_path, "derived_features": feats_path,
             "correlation_matrix": corr_path, "keyword_frequencies": kw_path},
            f"analysis artifacts written to {out}")


def cmd_featurize(args, cfg, out):
    train_ds = _load_canonical(args.train)
    vocab = _vocabulary(cfg, train_ds)
    inputs = {"train": Path(args.train)}
    outputs = {"vocabulary": _write_text(out / "vocabulary.json",
                                         json.dumps(vocab.to_dict()) + "\n"),
               "tfidf_train": _write_text(out / "tfidf_train.csv", features_mod.tfidf(
                   train_ds, vocab).to_triplet_csv())}
    if args.eval:
        inputs["eval"] = Path(args.eval)
        outputs["tfidf_eval"] = _write_text(out / "tfidf_eval.csv", features_mod.tfidf(
            _load_canonical(args.eval), vocab).to_triplet_csv())

    if args.embeddings:
        table = features_mod.load_embeddings(args.embeddings)

        def mean_row(rec):
            vec, cov = features_mod.embed_mean(features_mod.tokenize(rec.text), table)
            return [repr(float(v)) for v in vec] + [repr(cov)]

        inputs["embeddings"] = Path(args.embeddings)
        outputs["embedding_means_train"] = _write_csv(
            out / "embedding_means_train.csv",
            [f"v{i}" for i in range(table.dim)] + ["coverage"], map(mean_row, train_ds))

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
    words = (row[0].strip().lower() for row in rows[1:] if row)
    return [None if word == "nolabel" else SentimentLabel.parse(word) for word in words]


def cmd_train_linear(args, cfg, out):
    hyper = linear_mod.LinearTrainConfig(
        lr=_require(cfg, "linear.lr", float, positive=True),
        epochs=_require(cfg, "linear.epochs", int),
        batch_size=_require(cfg, "linear.batch_size", int),
        l2=_require(cfg, "linear.l2", float),
        seed=args.seed)
    train_ds = _load_canonical(args.train)
    vocab = _vocabulary(cfg, train_ds)
    X = features_mod.tfidf(train_ds, vocab).matrix
    params, trace = linear_mod.train(X, _labels_to_indices(train_ds), hyper)

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
    return ({"seed": args.seed, "lr": hyper.lr, "epochs": hyper.epochs,
             "batch_size": hyper.batch_size, "l2": hyper.l2},
            inputs, outputs, "\n".join(messages))


def cmd_train_encoder(args, cfg, out):
    train_config = _build(
        "encoder.train", enc.TrainConfig,
        epochs=args.epochs,
        per_device_batch=_require(cfg, "encoder.train.per_device_batch", int),
        grad_accum_steps=_require(cfg, "encoder.train.grad_accum_steps", int),
        base_lr=_require(cfg, "encoder.train.base_lr", float),
        warmup_ratio=_require(cfg, "encoder.train.warmup_ratio", float),
        seed=args.seed)
    adamw = _build("encoder.adamw", enc.AdamWConfig, lr=train_config.base_lr,
                   weight_decay=_require(cfg, "encoder.adamw.weight_decay", float))

    train_ds = _load_canonical(args.train)
    vocab = _vocabulary(cfg, train_ds)
    config = _build(
        "encoder", enc.EncoderConfig,
        vocab_size=enc.encoder_vocab_size(vocab),
        d_model=_require(cfg, "encoder.d_model", int, positive=True),
        n_heads=_require(cfg, "encoder.n_heads", int, positive=True),
        d_ff=_require(cfg, "encoder.d_ff", int, positive=True),
        n_layers=_require(cfg, "encoder.n_layers", int),
        max_seq_len=_require(cfg, "features.max_seq_len", int, positive=True),
        layernorm_eps=_require(cfg, "encoder.layernorm_eps", float))
    params = enc.init_params(config, args.seed)

    adapters = None
    if args.peft:
        adapters = _build("encoder.peft", enc.init_adapters, config,
                          targets=tuple(cfg["encoder"]["peft"]["targets"]),
                          rank=_require(cfg, "encoder.peft.rank", int),
                          alpha=_require(cfg, "encoder.peft.alpha", float),
                          seed=args.seed)
    clf = enc.EncoderTextClassifier(
        config=config, params=params, vocab=vocab,
        max_len=config.max_seq_len, adapters=adapters)
    examples = [clf.example(rec.text, rec.label) for rec in train_ds]

    test_ds = _load_canonical(args.test) if args.test else None

    def accuracy(ds):
        return sum(clf.predict_index(rec.text) == rec.label.index for rec in ds) / len(ds)

    def eval_hook(epoch, params_, adapters_):
        metrics = {"train_acc": accuracy(train_ds)}
        if test_ds is not None:
            test_examples = [clf.example(rec.text, rec.label) for rec in test_ds]
            metrics["val_loss"] = enc.batch_loss(params_, test_examples, config,
                                                 adapters_)
            metrics["val_acc"] = accuracy(test_ds)
        return metrics

    trace = enc.train_loop(examples, params, config, train_config,
                           adapters=adapters, peft_mode=args.peft,
                           adamw=adamw, eval_hook=eval_hook)

    ckpt_path = out / "encoder.npz"
    enc.save_checkpoint(clf, ckpt_path, merged=args.merge)
    trace_path = _write_text(out / "encoder_trace.csv", enc.trace_to_csv(trace))

    inputs = {"train": Path(args.train)}
    if args.test:
        inputs["test"] = Path(args.test)
    last = trace[-1] if trace else None
    message = (f"encoder trained: final loss {last.loss:.4f}, "
               f"train acc {last.train_acc:.3f}"
               if last is not None and last.train_acc is not None else "encoder trained")
    return ({**asdict(train_config), "peft": args.peft, "merged": args.merge,
             "d_model": config.d_model, "n_heads": config.n_heads,
             "d_ff": config.d_ff, "n_layers": config.n_layers},
            inputs, {"checkpoint": ckpt_path, "trace": trace_path}, message)


def _prompt_backend(args, cfg) -> promptkit.GenerationBackend:
    if args.backend == "http":
        if not args.url:
            raise ConfigError("http backend requires backend.url")
        return promptkit.HttpBackend(
            args.url, text_path=_require(cfg, "backend.text_path", str),
            timeout=_require(cfg, "backend.timeout", float, positive=True),
            auth_env=cfg["backend"]["auth_env"])
    if args.backend == "fixed":
        return promptkit.FixedResponseBackend(args.fixed_text)
    raise ConfigError(f"unknown backend kind: {args.backend!r}")


def _nolabel_policy(cfg) -> promptkit.NoLabelPolicy:
    policy = _require(cfg, "metrics.nolabel_policy", str)
    if policy == "count_as_error":
        return promptkit.NoLabelPolicy()
    return _build("metrics.nolabel_policy", lambda: promptkit.NoLabelPolicy(
        mode="map_to", map_to=SentimentLabel.parse(policy)))


def cmd_predict(args, cfg, out):
    gen_config = _build(
        "prompt", promptkit.GenConfig,
        max_new_tokens=_require(cfg, "prompt.max_new_tokens", int, positive=True),
        temperature=_require(cfg, "prompt.temperature", float))
    ds = _load_canonical(args.input)
    inputs = {"input": Path(args.input)}
    if args.backend == "encoder":
        # An in-process classifier answers with a label: no prompt, pool or retries.
        inputs["checkpoint"] = Path(args.checkpoint)
        if not inputs["checkpoint"].exists():
            raise ConfigError(f"encoder checkpoint not found: {args.checkpoint}")
        clf = enc.load_checkpoint(args.checkpoint)
        predictions, nolabel = [clf.predict_label(rec.text) for rec in ds], 0
    else:
        template = _load_template(cfg)
        predictions, nolabel = promptkit.predict_sentiments(
            ds, _prompt_backend(args, cfg), template=template, config=gen_config,
            nolabel_policy=_nolabel_policy(cfg),
            max_in_flight=_require(cfg, "backend.max_in_flight", int, positive=True),
            retries=_require(cfg, "backend.retries", int, positive=True))
    return ({"backend": args.backend, "max_new_tokens": gen_config.max_new_tokens,
             "temperature": gen_config.temperature, "nolabel": nolabel},
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
        rep = metrics_mod.EvalReport.from_json(Path(path).read_text(encoding="utf-8"))
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
        _flag("--format", config="paths.format",
              choices=("csv_label_first", "csv_headered", "at_separated")),
        _flag("--encoding", config="paths.encoding", choices=("utf8", "latin1")))),
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
    "featurize": Stage("vocabulary + TF-IDF (and embeddings)", (
        _flag("--train", "fit corpus", out_file="train.csv"),
        _flag("--eval", "extra corpus transformed with the same vocabulary"),
        _flag("--embeddings", "pretrained embedding text file",
              config="paths.embeddings"))),
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
        _flag("--backend", choices=("encoder", "http", "fixed"), config="backend.kind"),
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
            if getattr(args, flag.dest) is not None:
                continue
            if flag.config:
                setattr(args, flag.dest,
                        _require(cfg, flag.config, flag.options.get("type", str)))
            elif flag.out_file:
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
