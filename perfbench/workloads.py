"""The benchmark's workloads: inputs, CLI command sequences and output checks.

Each workload is run as a user runs it: a sequence of `finsent` subcommands
over files.  The program sees only the generated CSV and YAML inputs.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

BUNDLED_CORPUS = Path("src/finsent/data/sample_corpus.csv")
PREDICTIONS = {"encoder": "predictions.csv", "linear": "linear_predictions.csv"}


@dataclass(frozen=True)
class Workload:
    name: str
    # The stage whose samples/s is the workload's training throughput.
    train_stage: str
    train_epochs: int
    train_file: str                 # training CSV of train_stage, in the run dir
    models: tuple[str, ...]         # `evaluate --name` of each trained model
    config: str | None              # YAML handed to every command
    generate: Callable | None       # (bundled headlines by label, seed) -> rows
    commands: Callable[[Path, Path], list[list[str]]]   # (input csv, run dir)


def _paper_pipeline(data: Path, out: Path) -> list[list[str]]:
    # The acceptance-gate sequence, flag for flag (criterion 12).
    return [
        ["ingest"],
        ["split", "--train-total", "45", "--test-total", "45", "--seed", "7"],
        ["augment", "--seed", "7"],
        ["train-encoder", "--peft", "--epochs", "30", "--seed", "7",
         "--train", f"{out}/train_augmented.csv"],
        ["predict", "--backend", "encoder"],
        ["evaluate", "--name", "encoder"],
        ["train-linear", "--seed", "7", "--train", f"{out}/train_augmented.csv",
         "--test", f"{out}/test.csv"],
        ["evaluate", "--name", "linear", "--pred", f"{out}/linear_predictions.csv"],
        ["compare", "--reports", f"linear={out}/report_linear.json",
         f"encoder={out}/report_encoder.json"],
    ]


def _encoder_long(data: Path, out: Path) -> list[list[str]]:
    return [
        ["ingest", "--data", str(data)],
        ["split"],
        ["train-encoder", "--test", f"{out}/test.csv"],
        ["predict", "--backend", "encoder"],
        ["evaluate", "--name", "encoder"],
    ]


def _linear_bulk(data: Path, out: Path) -> list[list[str]]:
    return [
        ["ingest", "--data", str(data)],
        ["split"],
        ["upsample"],
        ["augment", "--input", f"{out}/train_upsampled.csv"],
        ["analyze"],
        ["featurize", "--train", f"{out}/train_augmented.csv", "--eval", f"{out}/test.csv"],
        ["train-linear", "--train", f"{out}/train_augmented.csv", "--test", f"{out}/test.csv"],
        ["evaluate", "--name", "linear", "--pred", f"{out}/linear_predictions.csv"],
    ]


ENCODER_LONG_RECORDS = 240
LINEAR_BULK_RECORDS = 20000

# Why each workload is here, and which layers it exercises: BENCHMARK.json and
# README.md.
WORKLOADS = {w.name: w for w in [
    Workload(
        name="paper_pipeline",
        train_stage="train-encoder", train_epochs=30, train_file="train_augmented.csv",
        models=("encoder", "linear"), config=None, generate=None,
        commands=_paper_pipeline),
    Workload(
        name="encoder_long",
        train_stage="train-encoder", train_epochs=3, train_file="train.csv",
        models=("encoder",),
        config="split: {train_total: 120, test_total: 120}\n"
               "features: {max_seq_len: 64}\n"
               "encoder:\n"
               "  d_model: 128\n"
               "  n_heads: 4\n"
               "  d_ff: 256\n"
               "  n_layers: 4\n"
               # Full fine-tuning at the adapter rate (5e-3) leaves some seeds
               # badly under-trained (macro F1 0.87 on seed 5); 2e-3 does not.
               "  train: {epochs: 3, base_lr: 0.002}\n",
        generate=lambda by_label, seed: gen.encoder_long(
            by_label, ENCODER_LONG_RECORDS, seed),
        commands=_encoder_long),
    Workload(
        name="linear_bulk",
        train_stage="train-linear", train_epochs=150, train_file="train_augmented.csv",
        models=("linear",),
        # Train and test leave 1000 records unused, so that rounding of the
        # per-class quotas can never ask for more records than a class has.
        config="split: {train_total: 8000, test_total: 11000}\n"
               "upsample: {target_per_class: 4000}\n",
        generate=lambda by_label, seed: gen.linear_bulk(
            by_label, LINEAR_BULK_RECORDS, seed),
        commands=_linear_bulk),
]}


def prepare(wl: Workload, root: Path, inputs: Path, seed: int) -> dict:
    """Write the workload's inputs for `seed`; returns the plan skeleton.

    paper_pipeline's input is fixed: the bundled corpus and seed 7 of the
    acceptance gate, so `seed` does not change it.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    plan = {"data": None, "config": None, "input_properties": None}
    if wl.generate is not None:
        rows = wl.generate(gen.read_bundled(root / BUNDLED_CORPUS), seed)
        data = inputs / f"{wl.name}.csv"
        gen.write_rows(rows, data)
        plan["data"] = str(data)
        plan["input_properties"] = gen.properties(rows)
    else:
        plan["input_properties"] = gen.properties(
            [(lab, h) for lab, heads in gen.read_bundled(root / BUNDLED_CORPUS).items()
             for h in heads])
    if wl.config is not None:
        config = inputs / "config.yaml"
        config.write_text(wl.config, encoding="utf-8")
        plan["config"] = str(config)
    return plan


def argv_list(wl: Workload, plan: dict, out: Path) -> list[list[str]]:
    extra = ["--out", str(out)] + (["--config", plan["config"]] if plan["config"] else [])
    return [argv + extra for argv in wl.commands(Path(plan["data"] or ""), out)]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row][1:]


def manifest_digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("manifest_*.json"))}


def check_outputs(wl: Workload, out: Path) -> tuple[list[str], dict]:
    """Checks one finished repetition.  Returns (failed checks, facts), where
    facts holds per-model accuracy and macro F1, test size and failed
    headlines."""
    errors: list[str] = []
    gold = [row[0] for row in _rows(out / "test.csv")]
    majority = max(gold.count(w) for w in gen.LABEL_WORDS) / len(gold)
    facts = {"test_records": len(gold), "majority_rate": majority,
             "failed_headlines": 0, "models": {}}
    for model in wl.models:
        preds = [row[0] for row in _rows(out / PREDICTIONS[model])]
        if len(preds) != len(gold):
            errors.append(f"{model}: {len(preds)} predictions for {len(gold)} test records")
        nolabel = sum(1 for p in preds if p == "nolabel")
        facts["failed_headlines"] += nolabel + max(0, len(gold) - len(preds))
        report = json.loads((out / f"report_{model}.json").read_text(encoding="utf-8"))
        facts["models"][model] = {"accuracy": report["accuracy"],
                                  "macro_f1": report["macro"]["f1"]}
        if not report["accuracy"] > majority:
            errors.append(f"{model}: accuracy {report['accuracy']:.4f} does not beat "
                          f"the majority-class rate {majority:.4f}")
    if "encoder" in wl.models:
        losses = [float(row[3]) for row in _rows(out / "encoder_trace.csv")]
        if not losses or not all(math.isfinite(x) for x in losses):
            errors.append("encoder: loss trace empty or not finite")
    if not manifest_digests(out):
        errors.append("no manifest_*.json written")
    return errors, facts
