import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import finsent
import finsent.cli as cli_mod
import finsent.encoder as enc
from finsent import _fork
from finsent.cli import (
    DEFAULT_CONFIG,
    EXIT_BACKEND,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    bundled_sample_path,
    load_config,
    main,
)
from finsent.corpus import LABELS, load_corpus


def run_cli(*argv):
    return main([str(a) for a in argv])


# The keys whose values must be above zero (an adapter of rank 0 divides by
# zero, and one of alpha 0 has scale 0, so no adapter gradient flows).
POSITIVE_KEYS = {"analyze.top_k", "features.min_df", "features.max_vocab",
                 "features.max_seq_len", "encoder.d_model", "encoder.n_heads",
                 "encoder.d_ff", "encoder.layernorm_eps", "encoder.peft.rank",
                 "encoder.peft.alpha", "prompt.max_new_tokens", "backend.timeout",
                 "backend.retries", "backend.max_in_flight"}

# The record counts that must not be negative.
NON_NEGATIVE_KEYS = {"split.train_total", "split.test_total", "upsample.target_per_class"}

# For each key with a closed set of values, a well-typed value outside it
# (for a list, one bad item among good ones).
OUTSIDE_CHOICES = {"paths.format": "xml", "paths.encoding": "ebcdic",
                   "encoder.peft.targets": ["W_Q", "W_X"], "backend.kind": "grpc",
                   "prompt.allowed_labels": ["negative", "bullish"],
                   "metrics.nolabel_policy": "bogus"}


def _config_leaves(node, path=""):
    for key, value in node.items():
        here = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _config_leaves(value, here)
        else:
            yield here, value


def _mistyped(default) -> list:
    """Values of a type other than that of `default`."""
    if default is None or isinstance(default, str):
        return [5, ["a"]]
    if isinstance(default, list):
        return ["W_Q", [5]]
    # numbers: bools never count as numbers, and floats never as ints
    return ["x", True] + ([1.5] if isinstance(default, int) else [])


def tiny_config(tmp_path, **overrides) -> Path:
    cfg = {
        "split": {"train_total": 12, "test_total": 9},
        "upsample": {"target_per_class": 5},
        "linear": {"epochs": 40, "lr": 0.5, "l2": 0.0001},
        "features": {"min_df": 1, "max_vocab": 500, "max_seq_len": 12},
        "encoder": {"d_model": 8, "n_heads": 2, "d_ff": 16, "n_layers": 1,
                    "train": {"epochs": 2, "base_lr": 0.005}},
    }
    for key, value in overrides.items():
        cfg.setdefault(key, {}).update(value)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestConfig:
    def test_defaults_load_without_file(self):
        cfg = load_config(None)
        assert cfg["seeds"]["master"] == 7

    def test_partial_override_merges(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("seeds:\n  master: 99\n")
        cfg = load_config(str(path))
        assert cfg["seeds"]["master"] == 99
        assert cfg["split"]["train_total"] == DEFAULT_CONFIG["split"]["train_total"]
        assert cfg["split"] is not DEFAULT_CONFIG["split"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("nonsense: 1\n")
        with pytest.raises(Exception, match="unknown config key"):
            load_config(str(path))

    def test_unknown_key_exit_code(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("split:\n  bogus_field: 3\n")
        code = run_cli("ingest", "--config", path, "--out", tmp_path / "out")
        assert code == EXIT_CONFIG

    def test_yaml_syntax_error(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("split: [unclosed\n")
        assert run_cli("ingest", "--config", path,
                       "--out", tmp_path / "o") == EXIT_CONFIG

    @pytest.mark.parametrize("override, argv", [
        ({"encoder": {"d_model": 30, "n_heads": 4}}, ["train-encoder"]),
        ({"augment": {"p_delete": 1.5}}, ["augment"]),
        ({"encoder": {"train": {"grad_accum_steps": 0}}}, ["train-encoder"]),
        ({"seeds": {"master": "x"}}, ["split"]),
        ({"encoder": {"peft": {"targets": ["W_X"]}}}, ["train-encoder", "--peft"]),
        ({"encoder": {"peft": {"targets": 5}}}, ["train-encoder", "--peft"]),
        ({"encoder": {"peft": {"targets": []}}}, ["train-encoder", "--peft"]),
        ({"augment": {"n_replace": "x"}}, ["augment"]),
        ({"linear": {"epochs": -1}}, ["train-linear"]),
        ({"linear": {"l2": -1.0}}, ["train-linear"]),
        ({"linear": {"batch_size": -5}}, ["train-linear"]),
        # config values of flags with choices
        ({"paths": {"format": "xml"}}, ["ingest"]),
        ({"paths": {"encoding": "ebcdic"}}, ["ingest"]),
        ({"backend": {"kind": "grpc"}}, ["predict"]),
        # a range only the settings object checks
        ({"encoder": {"adamw": {"weight_decay": -5.0}}}, ["train-encoder"]),
        ({"prompt": {"instruction": "no headline slot"}}, ["predict", "--backend", "fixed"]),
        # keys that are gone: the pretrained-embedding path was deleted, and the
        # fields of the template file are `prompt` keys
        ({"paths": {"embeddings": "vectors.txt"}}, ["featurize"]),
        ({"prompt": {"template": "template.yaml"}}, ["ingest"]),
        # adapter targets that attach to no weight of the encoder
        ({"encoder": {"n_layers": 0, "peft": {"targets": ["W_Q"]}}},
         ["train-encoder", "--peft"]),
    ])
    def test_rejected_config_value_is_config_error(self, tmp_path, capsys,
                                                   override, argv):
        """Values the run's configuration objects reject exit 2, not 3."""
        out = tmp_path / "run"
        assert run_cli("ingest", "--out", out) == EXIT_OK
        assert run_cli("split", "--out", out) == EXIT_OK
        capsys.readouterr()
        cfg = tiny_config(tmp_path, **override)
        assert run_cli(*argv, "--config", cfg, "--out", out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert next(iter(override)) in err

    @pytest.mark.parametrize("dotted, value", [
        pytest.param(dotted, value, id=f"{dotted}={value!r}")
        for dotted, default in _config_leaves(DEFAULT_CONFIG)
        for value in _mistyped(default) + ([0] if dotted in POSITIVE_KEYS else [])
        + ([-1] if dotted in NON_NEGATIVE_KEYS else [])
        + ([math.nan, math.inf, -math.inf] if isinstance(default, float) else [])
        + ([OUTSIDE_CHOICES[dotted]] if dotted in OUTSIDE_CHOICES else [])])
    def test_every_key_checked_at_load(self, tmp_path, capsys, dotted, value):
        """A bad value for any key fails every stage, even one that never reads it."""
        doc = value
        for part in reversed(dotted.split(".")):
            doc = {part: doc}
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert run_cli("ingest", "--config", path, "--out", tmp_path / "o") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: config key {dotted} ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, key", [
        (["analyze", "--top-k", "0"], "analyze.top_k"),
        (["split", "--train-total", "-5"], "split.train_total"),
        (["split", "--test-total", "-1"], "split.test_total"),
        (["upsample", "--target", "-1"], "upsample.target_per_class"),
    ])
    def test_flag_values_are_checked_as_config_values(self, tmp_path, capsys, argv, key):
        """A flag that overrides a config key takes only the values the key takes."""
        out = tmp_path / "run"
        assert run_cli("ingest", "--out", out) == EXIT_OK
        capsys.readouterr()
        assert run_cli(*argv, "--out", out) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: config key {key} must be ")
        assert sorted(p.name for p in out.iterdir()) == ["dataset.csv", "manifest_ingest.json"]

    @pytest.mark.parametrize("argv", [
        ["featurize", "--embeddings", "x"],  # the deleted pretrained-embedding flag
        ["ingest", "--bogus"],
    ])
    def test_unknown_flag_is_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", tmp_path / "o")
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    def test_values_inside_choices_load(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump({
            "paths": {"format": "at_separated", "encoding": "latin1"},
            "encoder": {"peft": {"targets": ["W_Q", "W_o"]}},
            "backend": {"kind": "fixed"}, "metrics": {"nolabel_policy": "neutral"}}))
        cfg = load_config(str(path))
        assert cfg["encoder"]["peft"]["targets"] == ["W_Q", "W_o"]
        assert cfg["metrics"]["nolabel_policy"] == "neutral"


class TestIngest:
    def test_bundled_sample_default(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("ingest", "--out", out) == EXIT_OK
        assert (out / "dataset.csv").exists()
        manifest = json.loads((out / "manifest_ingest.json").read_text())
        assert manifest["params"]["counts"] == {"positive": 30, "neutral": 30,
                                                "negative": 30}
        assert manifest["inputs"]["data"]["file"] == "sample_corpus.csv"

    def test_at_separated_input(self, tmp_path):
        raw = tmp_path / "corpus.txt"
        raw.write_text("Profit rose .@positive\nReport due Monday .@neutral\n"
                       "Sales fell .@negative\n")
        out = tmp_path / "run"
        assert run_cli("ingest", "--data", raw, "--format", "at_separated",
                       "--out", out) == EXIT_OK
        text = (out / "dataset.csv").read_text()
        assert text.startswith("sentiment,headline\n")
        assert "positive" in text

    def test_missing_data_file(self, tmp_path):
        assert run_cli("ingest", "--data", tmp_path / "nope.csv",
                       "--out", tmp_path / "o") == EXIT_CONFIG

    def test_malformed_data_is_data_error(self, tmp_path):
        raw = tmp_path / "bad.csv"
        raw.write_text("bogus,Row with unknown label\n")
        assert run_cli("ingest", "--data", raw, "--format", "csv_label_first",
                       "--out", tmp_path / "o") == EXIT_DATA

    def test_unbalanced_quote_is_data_error_naming_its_row(self, tmp_path, capsys):
        raw = tmp_path / "bad.csv"
        raw.write_text("sentiment,headline\npositive,\"Shares rise\nnegative,Sales fell\n"
                       "neutral,Report due\n")
        assert run_cli("ingest", "--data", raw, "--out", tmp_path / "o") == EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: row 2: malformed CSV (reader at line 4): unexpected end of data\n")
        assert not (tmp_path / "o" / "dataset.csv").exists()

    def test_csv_the_reader_rejects_is_data_error(self, tmp_path, capsys):
        """An unbalanced quote swallows the rest of the file into one field,
        until the csv module's field limit stops it."""
        raw = tmp_path / "bad.csv"
        raw.write_text("sentiment,headline\npositive,\"Profit rose\n" + "".join(
            f"negative,Sales fell in quarter {i}\n" for i in range(5000)))
        assert run_cli("ingest", "--data", raw, "--out", tmp_path / "o") == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: row 2: malformed CSV (reader at line ")
        assert "field larger than field limit" in err


class TestSplitDeterminism:
    def test_run_twice_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli("ingest", "--out", out) == EXIT_OK
            assert run_cli("split", "--out", out, "--train-total", "30",
                           "--test-total", "30", "--seed", "7") == EXIT_OK
        assert (out_a / "train.csv").read_bytes() == (out_b / "train.csv").read_bytes()
        assert (out_a / "test.csv").read_bytes() == (out_b / "test.csv").read_bytes()
        assert (out_a / "manifest_split.json").read_bytes() == \
            (out_b / "manifest_split.json").read_bytes()

    def test_insufficient_split_is_data_error(self, tmp_path):
        out = tmp_path / "run"
        run_cli("ingest", "--out", out)
        assert run_cli("split", "--out", out, "--train-total", "80",
                       "--test-total", "80") == EXIT_DATA


class TestPipelineCommands:
    def test_upsample_and_augment(self, tmp_path):
        out = tmp_path / "run"
        cfg = tiny_config(tmp_path)
        run_cli("ingest", "--out", out)
        run_cli("split", "--config", cfg, "--out", out)
        assert run_cli("upsample", "--config", cfg, "--out", out) == EXIT_OK
        up = (out / "train_upsampled.csv").read_text().strip().splitlines()
        assert len(up) == 1 + 15  # header + 3 * 5
        assert run_cli("augment", "--config", cfg, "--out", out,
                       "--input", out / "train_upsampled.csv") == EXIT_OK
        aug = (out / "train_augmented.csv").read_text().strip().splitlines()
        assert len(aug) == 1 + 30

    def test_analyze_artifacts(self, tmp_path):
        out = tmp_path / "run"
        run_cli("ingest", "--out", out)
        assert run_cli("analyze", "--out", out, "--top-k", "5") == EXIT_OK
        dist = json.loads((out / "class_distribution.json").read_text())
        assert abs(sum(dist["proportions"].values()) - 1.0) < 1e-12
        corr = (out / "correlation_matrix.csv").read_text().splitlines()
        assert corr[0].startswith("feature,char_len")
        assert len(corr) == 6
        kw = (out / "keyword_frequencies.csv").read_text().splitlines()
        assert kw[0] == "label,rank,token,count"
        assert (out / "derived_features.csv").exists()

    def test_featurize_artifacts(self, tmp_path):
        out = tmp_path / "run"
        cfg = tiny_config(tmp_path)
        run_cli("ingest", "--out", out)
        run_cli("split", "--config", cfg, "--out", out)
        assert run_cli("featurize", "--config", cfg, "--out", out,
                       "--eval", out / "test.csv") == EXIT_OK
        vocab = json.loads((out / "vocabulary.json").read_text())
        assert vocab["n_documents"] == 12
        assert (out / "tfidf_train.csv").read_text().startswith("row,col,weight")
        assert (out / "tfidf_eval.csv").exists()


class TestTrainPredictEvaluate:
    def test_linear_flow(self, tmp_path):
        out = tmp_path / "run"
        cfg = tiny_config(tmp_path)
        run_cli("ingest", "--out", out)
        run_cli("split", "--config", cfg, "--out", out)
        assert run_cli("train-linear", "--config", cfg, "--out", out,
                       "--test", out / "test.csv") == EXIT_OK
        assert (out / "linear.json").exists()
        assert (out / "linear_trace.csv").exists()
        preds = (out / "linear_predictions.csv").read_text().splitlines()
        assert preds[0] == "prediction"
        assert len(preds) == 10
        assert run_cli("evaluate", "--out", out,
                       "--pred", out / "linear_predictions.csv",
                       "--name", "linear") == EXIT_OK
        rep = json.loads((out / "report_linear.json").read_text())
        assert 0.0 <= rep["accuracy"] <= 1.0

    def test_linear_trains_on_repeated_records_as_on_all_of_them(self, tmp_path, capsys):
        """Repeated records, and one text under two labels: train-linear fits
        each distinct (text, label) once, yet its vocabulary is featurize's,
        its model and predictions are those of training on every record, and
        its message counts every record."""
        from finsent import features, linear_model
        from finsent.corpus import Dataset, HeadlineRecord, write_corpus

        out = tmp_path / "run"
        cfg = tiny_config(tmp_path)
        run_cli("ingest", "--out", out)
        records = load_corpus(out / "dataset.csv", format="csv_headered",
                              encoding="utf8").records
        base = records[:20]
        relabelled = HeadlineRecord(base[0].text,
                                    next(lab for lab in LABELS if lab != base[0].label))
        train = Dataset(base + base[:8] + base[3:5] * 3 + (relabelled,))
        test = Dataset(records[20:40])
        write_corpus(train, out / "train.csv")
        write_corpus(test, out / "test.csv")
        assert run_cli("featurize", "--config", cfg, "--out", out) == EXIT_OK
        capsys.readouterr()
        assert run_cli("train-linear", "--config", cfg, "--out", out,
                       "--test", out / "test.csv") == EXIT_OK
        assert f"trained on {len(train)} records" in capsys.readouterr().out
        assert ((out / "linear_vocab.json").read_bytes()
                == (out / "vocabulary.json").read_bytes())

        manifest = json.loads((out / "manifest_train_linear.json").read_text())
        assert (manifest["inputs"]["train"]["sha256"]
                == hashlib.sha256((out / "train.csv").read_bytes()).hexdigest())
        vocab = features.Vocabulary.from_dict(json.loads((out / "vocabulary.json").read_text()))
        want, _ = linear_model.train(
            features.tfidf(train, vocab).matrix,
            np.array([rec.label.index for rec in train]),
            linear_model.LinearTrainConfig(**manifest["params"]))
        got = linear_model.load_checkpoint(out / "linear.json")
        np.testing.assert_allclose(got.W, want.W, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.b, want.b, rtol=0, atol=1e-12)
        preds = linear_model.predict(want, features.tfidf(test, vocab).matrix)
        assert ((out / "linear_predictions.csv").read_text().splitlines()[1:]
                == [LABELS[i].value for i in preds])

    def test_encoder_peft_flow(self, tmp_path):
        out = tmp_path / "run"
        cfg = tiny_config(tmp_path)
        run_cli("ingest", "--out", out)
        run_cli("split", "--config", cfg, "--out", out)
        assert run_cli("train-encoder", "--config", cfg, "--out", out,
                       "--peft", "--seed", "3") == EXIT_OK
        assert (out / "encoder.npz").exists()
        trace = (out / "encoder_trace.csv").read_text().splitlines()
        assert trace[0] == "step,epoch,lr,loss,train_acc,val_loss,val_acc"
        assert run_cli("predict", "--config", cfg, "--out", out,
                       "--backend", "encoder") == EXIT_OK
        preds = (out / "predictions.csv").read_text().splitlines()
        assert len(preds) == 10
        assert run_cli("evaluate", "--config", cfg, "--out", out,
                       "--name", "encoder") == EXIT_OK

    def test_eval_hook_metrics_equal_a_per_record_recount(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        cfg = tiny_config(tmp_path, encoder={"train": {"epochs": 3, "base_lr": 0.05}})
        run_cli("ingest", "--out", out)
        run_cli("split", "--config", cfg, "--out", out)
        # A small sub-batch budget makes the batched eval cut its sets.
        monkeypatch.setattr(enc.model, "SUB_BATCH_BUDGET", 64)
        made, checked, step_hits = [], [], []
        real_classifier, real_loop = enc.EncoderTextClassifier, enc.train_loop
        real_step = enc.train.loss_and_grad

        def classifier(**kwargs):
            made.append(real_classifier(**kwargs))
            return made[-1]

        def loss_and_grad(params, batch, *args, **kwargs):
            # Each row under this step's weights, before the step updates them.
            clf = made[0]  # trained in place: it holds the weights the step reads
            step_hits.append(sum(
                int(np.argmax(enc.encoder_forward(ids, mask, clf.params, clf.config,
                                                  clf.adapters)) == label)
                for ids, mask, label in batch))
            return real_step(params, batch, *args, **kwargs)

        def loop(*args, eval_hook, **kwargs):
            def recount(logits):
                metrics = eval_hook(logits)
                clf = made[0]
                ds = load_corpus(out / "test.csv", format="csv_headered", encoding="utf8")
                hits, nll = 0, []
                for rec in ds:
                    logits = clf.logits(rec.text)
                    hits += int(np.argmax(logits)) == rec.label.index
                    z = logits - logits.max()
                    nll.append(math.log(np.exp(z).sum()) - z[rec.label.index])
                assert metrics["val_acc"] == hits / len(ds)
                assert abs(metrics["val_loss"] - sum(nll) / len(nll)) <= 1e-12
                assert "train_acc" not in metrics
                checked.append(len(checked))
                return metrics
            return real_loop(*args, eval_hook=recount, **kwargs)

        monkeypatch.setattr(enc, "EncoderTextClassifier", classifier)
        monkeypatch.setattr(enc, "train_loop", loop)
        monkeypatch.setattr(enc.train, "loss_and_grad", loss_and_grad)
        assert run_cli("train-encoder", "--config", cfg, "--out", out, "--peft",
                       "--test", out / "test.csv") == EXIT_OK
        assert checked == [0, 1, 2]
        n = len(load_corpus(out / "train.csv", format="csv_headered", encoding="utf8"))
        with open(out / "encoder_trace.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(step_hits) and len(rows) % 3 == 0
        per_epoch = len(rows) // 3
        for epoch in range(3):
            steps = range(epoch * per_epoch, (epoch + 1) * per_epoch)
            assert [rows[i]["train_acc"] for i in steps[:-1]] == [""] * (per_epoch - 1)
            assert rows[steps[-1]]["train_acc"] == repr(
                sum(step_hits[i] for i in steps) / n)

    def test_train_encoder_without_test_runs_no_eval_pass(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        cfg = tiny_config(tmp_path, encoder={"train": {"epochs": 2}})
        run_cli("ingest", "--out", out)
        run_cli("split", "--config", cfg, "--out", out)

        def batch_logits(*args, **kwargs):
            raise AssertionError("a forward pass outside loss_and_grad")

        monkeypatch.setattr(enc.train, "batch_logits", batch_logits)
        assert run_cli("train-encoder", "--config", cfg, "--out", out) == EXIT_OK
        with open(out / "encoder_trace.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        last = {int(row["epoch"]): i for i, row in enumerate(rows)}
        assert sorted(last) == [0, 1]
        for i, row in enumerate(rows):
            assert (row["train_acc"] != "") == (i in last.values())
            assert row["val_loss"] == row["val_acc"] == ""

    def test_non_finite_encoder_loss_names_the_step(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = tiny_config(tmp_path, encoder={"train": {"epochs": 2,
                                                       "base_lr": 1000000.0}})
        run_cli("ingest", "--out", out)
        run_cli("split", "--config", cfg, "--out", out)
        capsys.readouterr()
        assert run_cli("train-encoder", "--config", cfg, "--out", out) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: non-finite training loss")
        assert "optimizer step 2 (epoch 0)" in err

    def test_evaluate_gold_equals_pred_accuracy_one(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        gold = out / "test.csv"
        gold.write_text("sentiment,headline\npositive,Profit rose\n"
                        "neutral,Report due\nnegative,Sales fell\n")
        pred = out / "predictions.csv"
        pred.write_text("prediction\npositive\nneutral\nnegative\n")
        assert run_cli("evaluate", "--out", out, "--json") == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert rep["accuracy"] == 1.0

    def test_evaluate_names_the_file_and_row_of_a_bad_label(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "test.csv").write_text("sentiment,headline\npositive,Profit rose\n"
                                      "neutral,Report due\nnegative,Sales fell\n")
        pred = out / "predictions.csv"
        pred.write_text("prediction\npositive\nmaybe\nnegative\n")
        assert run_cli("evaluate", "--out", out) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {pred}: row 3: unknown sentiment label: 'maybe'\n")

    def test_evaluate_length_mismatch(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "test.csv").write_text("sentiment,headline\npositive,Profit rose\n")
        (out / "predictions.csv").write_text("prediction\npositive\nneutral\n")
        assert run_cli("evaluate", "--out", out) == EXIT_DATA

    def test_predict_fixed_backend_and_nolabel(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "test.csv").write_text("sentiment,headline\npositive,Profit rose\n"
                                      "negative,Sales fell\n")
        assert run_cli("predict", "--out", out, "--backend", "fixed",
                       "--fixed-text", "no label here") == EXIT_OK
        preds = (out / "predictions.csv").read_text().splitlines()
        assert preds[1:] == ["nolabel", "nolabel"]
        assert json.loads((out / "manifest_predict.json").read_text())[
            "params"]["nolabel"] == 2

    def test_predict_nolabel_policy_maps_to_label(self, tmp_path):
        """Answers without a label word are still counted as such, and written
        as the label the policy names."""
        out = tmp_path / "run"
        out.mkdir()
        (out / "test.csv").write_text("sentiment,headline\npositive,Profit rose\n"
                                      "negative,Sales fell\nneutral,Report due\n")
        cfg = tiny_config(tmp_path, metrics={"nolabel_policy": "neutral"})
        assert run_cli("predict", "--config", cfg, "--out", out, "--backend", "fixed",
                       "--fixed-text", "maybe") == EXIT_OK
        assert (out / "predictions.csv").read_text().splitlines()[1:] == ["neutral"] * 3
        assert json.loads((out / "manifest_predict.json").read_text())[
            "params"]["nolabel"] == 3

    @pytest.mark.parametrize("change, key", [
        ({}, None),
        ({"allowed_labels": "negative"}, "allowed_labels"),
        ({"allowed_labels": ["bullish"]}, "allowed_labels"),
        ({"allowed_labels": [5]}, "allowed_labels"),
        ({"allowed_labels": []}, "allowed_labels"),
        ({"instruction": 5}, "instruction"),
        ({"instruction": "no headline slot"}, "instruction"),
        ({"answer_marker": 7}, "answer_marker"),
        ({"answer_marker": None}, "answer_marker"),
    ], ids=["valid", "labels_scalar", "labels_unknown_word", "labels_not_strings",
            "labels_empty", "instruction_int", "instruction_no_slot", "marker_int",
            "marker_missing"])
    def test_prompt_template_file_checked(self, tmp_path, capsys, change, key):
        """A custom template, set in the `prompt` keys that replaced the template
        file, is used as written; a bad value is a config error naming its key,
        raised before any backend call."""
        out = tmp_path / "run"
        out.mkdir()
        (out / "test.csv").write_text("sentiment,headline\npositive,Profit rose\n"
                                      "negative,Sales fell\n")
        cfg = tiny_config(tmp_path, prompt={
            "instruction": "News: {headline}", "answer_marker": "\nMood:",
            "allowed_labels": ["negative"], **change})
        code = run_cli("predict", "--config", cfg, "--out", out, "--backend", "fixed",
                       "--fixed-text", "positive, or rather negative")
        if key is None:
            # "positive" is no allowed label of this template, so "negative" is found
            assert code == EXIT_OK
            preds = (out / "predictions.csv").read_text().splitlines()
            assert preds[1:] == ["negative", "negative"]
        else:
            assert code == EXIT_CONFIG
            # the schema checks types and label words; PromptTemplate the slot
            err = capsys.readouterr().err
            assert (err.startswith(f"config error: config key prompt.{key} ")
                    or err.startswith(f"config error: invalid prompt config: {key} "))
            assert not (out / "predictions.csv").exists()

    def test_predict_missing_checkpoint(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "test.csv").write_text("sentiment,headline\npositive,Profit rose\n")
        assert run_cli("predict", "--out", out,
                       "--backend", "encoder") == EXIT_CONFIG

    def test_predict_unreachable_http_backend(self, tmp_path):
        cfgpath = tmp_path / "c.yaml"
        cfgpath.write_text(yaml.safe_dump(
            {"backend": {"timeout": 0.2, "retries": 1}}))
        out = tmp_path / "run"
        out.mkdir()
        (out / "test.csv").write_text("sentiment,headline\npositive,Profit rose\n")
        assert run_cli("predict", "--config", cfgpath, "--out", out,
                       "--backend", "http",
                       "--url", "http://127.0.0.1:1/gen") == EXIT_BACKEND

    def test_compare(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        gold = out / "test.csv"
        gold.write_text("sentiment,headline\npositive,Profit rose\n"
                        "neutral,Report due\nnegative,Sales fell\n")
        (out / "predictions.csv").write_text("prediction\npositive\nneutral\nnegative\n")
        run_cli("evaluate", "--out", out, "--name", "perfect")
        (out / "predictions.csv").write_text("prediction\nneutral\nneutral\nneutral\n")
        run_cli("evaluate", "--out", out, "--name", "lazy")
        assert run_cli("compare", "--out", out, "--reports",
                       f"perfect={out/'report_perfect.json'}",
                       f"lazy={out/'report_lazy.json'}") == EXIT_OK
        table = (out / "comparison.txt").read_text().splitlines()
        assert table[1].split()[0] == "perfect"
        assert table[2].split()[0] == "lazy"

    @pytest.mark.parametrize("doc, lacks", [
        ({"a": 1}, "per_class.positive.precision"),
        ([1], "per_class.positive.precision"),
        ("report", "per_class.positive.precision"),
        ({"per_class": {}}, "per_class.positive.precision"),
    ])
    def test_compare_foreign_report_is_data_error(self, tmp_path, capsys, doc, lacks):
        out = tmp_path / "run"
        out.mkdir()
        (out / "test.csv").write_text("sentiment,headline\npositive,Profit rose\n")
        (out / "predictions.csv").write_text("prediction\npositive\n")
        run_cli("evaluate", "--out", out, "--name", "good")
        foreign = tmp_path / "x.json"
        foreign.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("compare", "--out", out, "--reports",
                       f"good={out / 'report_good.json'}", f"m={foreign}") == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: report {foreign}: not an evaluation report: it lacks {lacks}\n")
        assert not (out / "comparison.txt").exists()

    @pytest.mark.parametrize("path, value, want", [
        ("macro.f1", "x", "'x', not a finite number"),
        ("accuracy", None, "None, not a finite number"),
        ("per_class.neutral.recall", True, "True, not a finite number"),
        ("per_class.positive.support", 1.0, "1.0, not an integer"),
        ("nolabel_count", False, "False, not an integer"),
        ("zero_division_flags", "recall:neutral", "'recall:neutral', not a list of strings"),
    ])
    def test_compare_mistyped_report_entry_is_data_error(self, tmp_path, capsys, path,
                                                         value, want):
        out = tmp_path / "run"
        out.mkdir()
        (out / "test.csv").write_text("sentiment,headline\npositive,Profit rose\n")
        (out / "predictions.csv").write_text("prediction\npositive\n")
        run_cli("evaluate", "--out", out, "--name", "good")
        doc = json.loads((out / "report_good.json").read_text())
        *parents, key = path.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("compare", "--out", out, "--reports",
                       f"good={out / 'report_good.json'}", f"m={bad}") == EXIT_DATA
        assert capsys.readouterr().err == f"data error: report {bad}: {path} is {want}\n"
        assert not (out / "comparison.txt").exists()

    def test_compare_bad_spec(self, tmp_path):
        assert run_cli("compare", "--out", tmp_path, "--reports",
                       "missing-equals-sign") == EXIT_CONFIG

    def test_compare_repeated_name(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "test.csv").write_text("sentiment,headline\npositive,Profit rose\n"
                                      "negative,Sales fell\n")
        (out / "predictions.csv").write_text("prediction\npositive\nnegative\n")
        run_cli("evaluate", "--out", out, "--name", "a")
        (out / "predictions.csv").write_text("prediction\nneutral\nneutral\n")
        run_cli("evaluate", "--out", out, "--name", "b")
        capsys.readouterr()
        assert run_cli("compare", "--out", out, "--reports", f"m={out / 'report_a.json'}",
                       f"m={out / 'report_b.json'}") == EXIT_CONFIG
        assert "'m'" in capsys.readouterr().err
        assert not (out / "comparison.txt").exists()
        assert not (out / "manifest_compare.json").exists()


@pytest.fixture
def forks(monkeypatch):
    """Pids of the processes forked during a test; all reaped at its end."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestPairedTraining:
    """`train-encoder` with a forked peer (forced by a small SUB_BATCH_BUDGET
    and 2 usable CPUs) gives the inline stage's outputs and errors, pins
    OpenBLAS to one thread for the stage, and leaves no process behind."""

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: n)
        if _fork._openblas_threads() is None:  # another BLAS: nothing to pin
            monkeypatch.setattr(_fork, "_openblas_threads",
                                lambda: (lambda: 1, lambda threads: None))

    @classmethod
    def force(cls, monkeypatch, cpus=2):
        """Groups of several sub-batches; a peer with 2 CPUs, inline with 1."""
        monkeypatch.setattr(enc.model, "SUB_BATCH_BUDGET", 200)
        cls.cpus(monkeypatch, cpus)

    @staticmethod
    def data(tmp_path):
        cfg = tiny_config(tmp_path, encoder={"train": {"epochs": 3, "base_lr": 0.05}})
        data = tmp_path / "data"
        run_cli("ingest", "--out", data)
        run_cli("split", "--config", cfg, "--out", data)
        return cfg, data

    @staticmethod
    def train(cfg, data, out, *flags):
        return run_cli("train-encoder", "--config", cfg, "--out", out, "--train",
                       data / "train.csv", "--test", data / "test.csv", *flags)

    @pytest.mark.parametrize("flags", [(), ("--peft",)])
    def test_outputs_equal_inline(self, tmp_path, monkeypatch, forks, flags):
        cfg, data = self.data(tmp_path)
        for side, cpus in (("inline", 1), ("paired", 2)):
            self.force(monkeypatch, cpus)
            assert self.train(cfg, data, tmp_path / side, *flags) == EXIT_OK
            assert len(forks) == (cpus == 2)
            assert run_cli("predict", "--config", cfg, "--out", tmp_path / side, "--backend",
                           "encoder", "--input", data / "test.csv") == EXIT_OK
        for name in ("encoder.npz", "encoder_trace.csv", "predictions.csv"):
            assert ((tmp_path / "paired" / name).read_bytes()
                    == (tmp_path / "inline" / name).read_bytes()), name

    def test_only_a_step_wider_than_the_budget_forks(self, tmp_path, monkeypatch, forks):
        """The rule reads the config and the data: per_device_batch x
        grad_accum_steps x longest row x d_model > SUB_BATCH_BUDGET."""
        cfg, data = self.data(tmp_path)
        with open(data / "train.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        with open(data / "train.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows[:1] + [[label, " ".join([text] * 4)]
                                                 for label, text in rows[1:]])
        self.cpus(monkeypatch, 2)
        paper = tiny_config(tmp_path, features={"max_seq_len": 24},
                            encoder={"d_model": 32, "n_heads": 4, "d_ff": 64,
                                     "train": {"epochs": 1}})
        assert self.train(paper, data, tmp_path / "paper") == EXIT_OK  # 8x24x32 = 6,144
        assert forks == []
        wide = tiny_config(tmp_path, features={"max_seq_len": 48},
                           encoder={"d_model": 64, "n_heads": 2, "train": {"epochs": 1}})
        assert self.train(wide, data, tmp_path / "wide") == EXIT_OK  # 8x48x64 = 24,576
        assert len(forks) == 1

    def test_eval_error_in_the_peer_is_the_inline_error(self, tmp_path, monkeypatch,
                                                        capsys, forks):
        cfg, data = self.data(tmp_path)
        real, test_pid = enc.model.encoder_forward, os.getpid()

        def broken(*args, return_cache=False, **kwargs):
            if not return_cache and (os.getpid() != test_pid or not forks):
                raise ValueError("no logits today")  # inline: here; paired: in the peer
            return real(*args, return_cache=return_cache, **kwargs)

        monkeypatch.setattr(enc.model, "encoder_forward", broken)
        capsys.readouterr()
        outcomes = []
        for side, cpus in (("inline", 1), ("paired", 2)):
            self.force(monkeypatch, cpus)
            outcomes.append((self.train(cfg, data, tmp_path / side),
                             capsys.readouterr().err))
        assert outcomes == [(EXIT_DATA, "data error: no logits today\n")] * 2
        assert len(forks) == 1

    def test_no_process_left_when_training_fails(self, tmp_path, monkeypatch, capsys,
                                                 forks):
        cfg, data = self.data(tmp_path)
        real, calls = enc.train.loss_and_grad, []

        def loss_and_grad(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            calls.append(loss)
            return (math.nan if len(calls) > 2 else loss), grads

        monkeypatch.setattr(enc.train, "loss_and_grad", loss_and_grad)
        self.force(monkeypatch)
        capsys.readouterr()
        assert self.train(cfg, data, tmp_path / "run") == EXIT_DATA
        assert "non-finite training loss nan at optimizer step 3 (epoch 1)" in (
            capsys.readouterr().err)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus, threads", [(2, 1), (1, 2)], ids=["paired", "inline"])
    def test_blas_threads_are_one_for_the_stage_and_restored(self, tmp_path, monkeypatch,
                                                             forks, cpus, threads):
        """Paired, OpenBLAS runs one thread for the stage; inline, its thread
        count is never touched."""
        blas = _fork._openblas_threads()
        if blas is None:
            pytest.skip("numpy's OpenBLAS thread count cannot be set through ctypes")
        get, set_ = blas
        cfg, data = self.data(tmp_path)
        seen, real = [], enc.train.loss_and_grad

        def loss_and_grad(*args, **kwargs):
            seen[-1].add(get())
            return real(*args, **kwargs)

        monkeypatch.setattr(enc.train, "loss_and_grad", loss_and_grad)
        self.force(monkeypatch, cpus)
        before = get()
        try:
            set_(2)
            seen.append(set())
            assert self.train(cfg, data, tmp_path / "ok") == EXIT_OK
            assert get() == 2
            monkeypatch.setattr(enc.train, "batch_logits", lambda *args, **kwargs: 1 / 0)
            seen.append(set())
            with pytest.raises(ZeroDivisionError):
                self.train(cfg, data, tmp_path / "error")
            assert get() == 2
        finally:
            set_(before)
        assert seen == [{threads}, {threads}]
        assert len(forks) == (2 if cpus == 2 else 0)

    def test_a_killed_peer_fails_the_stage_at_once_naming_it(self, tmp_path):
        """The peer gets SIGKILL during the second step: the stage raises at its
        next exchange with the peer, naming it, and leaves no process."""
        cfg, data = self.data(tmp_path)
        script = (
            "import json, os, signal, sys\n"
            "import finsent.cli as cli\n"
            "from finsent import _fork\n"
            "from finsent.encoder import model, train\n"
            "model.SUB_BATCH_BUDGET = 200\n"
            "_fork.usable_cpus = lambda: 2\n"
            "pids, real_fork, steps = [], os.fork, []\n"
            "def fork():\n"
            "    pid = real_fork()\n"
            "    pids.extend([pid] if pid else [])\n"
            "    return pid\n"
            "os.fork, real_step, parent = fork, train.adamw_step, os.getpid()\n"
            "def adamw_step(*args, **kwargs):\n"
            "    if os.getpid() == parent:  # the peer runs this too, on its half\n"
            "        steps.append(1)\n"
            "        if len(steps) == 2:\n"
            "            os.kill(pids[0], signal.SIGKILL)\n"
            "    return real_step(*args, **kwargs)\n"
            "train.adamw_step = adamw_step\n"
            "try:\n"
            "    sys.exit(cli.main(sys.argv[1:]))\n"
            "finally:\n"
            "    try:\n"
            "        os.waitpid(-1, os.WNOHANG)\n"
            "        left = True\n"
            "    except ChildProcessError:\n"
            "        left = False\n"
            "    print(json.dumps({'left': left, 'pids': pids, 'steps': len(steps)}))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, "train-encoder", "--config", str(cfg),
             "--out", str(tmp_path / "run"), "--train", str(data / "train.csv"),
             "--test", str(data / "test.csv")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(finsent.__file__).parent.parent)})
        facts = json.loads(proc.stdout.splitlines()[-1])
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == (
            f"RuntimeError: peer {facts['pids'][0]} ended without a result "
            "(killed by signal 9)")
        assert not facts["left"] and len(facts["pids"]) == 1
        assert facts["steps"] in (2, 3)  # failed at its next exchange, not later


class TestLinearHalves:
    """`train-linear` over at least LINEAR_HALVES_MIN_ROWS distinct rows
    (lowered here) cuts them and the test records in two halves, the second
    on a forked peer with 2 usable CPUs and inline with 1: the vocabulary
    and predictions keep one pass's bytes, the model its values within
    1e-12, and the bits do not depend on the CPUs."""

    OUTPUTS = ("linear.json", "linear_trace.csv", "linear_vocab.json",
               "linear_predictions.csv")

    @staticmethod
    def data(tmp_path, **overrides):
        """Repeated records and one text under two labels (31 distinct
        rows), and 60 test records."""
        from finsent.corpus import Dataset, HeadlineRecord, write_corpus
        cfg = tiny_config(tmp_path, **overrides)
        data = tmp_path / "data"
        run_cli("ingest", "--out", data)
        records = load_corpus(data / "dataset.csv", format="csv_headered",
                              encoding="utf8").records
        base = records[::3]  # the bundled corpus lists each label's 30 in a block
        relabelled = HeadlineRecord(base[0].text,
                                    next(lab for lab in LABELS if lab != base[0].label))
        write_corpus(Dataset(base + base[:8] + base[3:5] * 3 + (relabelled,)),
                     data / "train.csv")
        # training texts among unseen ones, so that the predictions vary
        write_corpus(Dataset(tuple(rec for pair in zip(records[::3], records[1::3])
                                   for rec in pair)), data / "test.csv")
        return cfg, data

    @staticmethod
    def run(cfg, data, out, test=True):
        flags = ("--test", data / "test.csv") if test else ()
        return run_cli("train-linear", "--config", cfg, "--out", out,
                       "--train", data / "train.csv", *flags)

    def runs(self, tmp_path, monkeypatch, forks, sides, **overrides):
        """Each side's outputs and the forks it made, for (min_rows, cpus) sides."""
        cfg, data = self.data(tmp_path, **overrides)
        outputs = {}
        for min_rows, cpus in sides:
            monkeypatch.setattr(cli_mod, "LINEAR_HALVES_MIN_ROWS", min_rows)
            monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
            before = len(forks)
            out = tmp_path / f"run_{min_rows}_{cpus}"
            assert self.run(cfg, data, out) == EXIT_OK
            outputs[min_rows, cpus] = ({name: (out / name).read_bytes() for name in self.OUTPUTS},
                                       len(forks) - before)
        return outputs

    def test_halves_give_one_pass_on_one_or_two_cpus(self, tmp_path, monkeypatch, forks):
        runs = self.runs(tmp_path, monkeypatch, forks, [(32, 2), (31, 1), (31, 2)])
        (one, one_forks), (inline, inline_forks), (paired, paired_forks) = runs.values()
        assert (one_forks, inline_forks, paired_forks) == (0, 0, 1)
        assert inline == paired
        for name in ("linear_vocab.json", "linear_predictions.csv"):
            assert paired[name] == one[name], name
        got = json.loads(paired["linear.json"])
        want = json.loads(one["linear.json"])
        np.testing.assert_allclose(got["W"], want["W"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got["b"], want["b"], rtol=0, atol=1e-12)
        got, want = (np.loadtxt(io.BytesIO(run["linear_trace.csv"]), delimiter=",",
                                skiprows=1) for run in (paired, one))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_below_the_constant_one_pass_forks_nothing(self, tmp_path, monkeypatch, forks):
        """31 distinct rows under a constant of 32: the model has the bits of
        `linear_model.train` on the distinct rows' TF-IDF, whatever the CPUs."""
        from finsent import features, linear_model
        runs = self.runs(tmp_path, monkeypatch, forks, [(32, 1), (32, 2)])
        (one, one_forks), (two, two_forks) = runs.values()
        assert one == two and one_forks == two_forks == 0
        train_ds = load_corpus(tmp_path / "data" / "train.csv", format="csv_headered",
                               encoding="utf8")
        pairs = list(dict.fromkeys((rec.text, rec.label) for rec in train_ds))
        pairs.sort(key=lambda pair: ([rec.text for rec in train_ds].index(pair[0]),
                                     pair[1].index))
        rows = [pairs.index((rec.text, rec.label)) for rec in train_ds]
        vocab = features.Vocabulary.from_dict(json.loads(one["linear_vocab.json"]))
        X = features.tfidf([features.tokenize(text) for text, _ in pairs], vocab).matrix
        want, _ = linear_model.train(X, np.array([label.index for _, label in pairs]),
                                     linear_model.LinearTrainConfig(lr=0.5, epochs=40,
                                                                    l2=0.0001, seed=7), rows)
        got = json.loads(one["linear.json"])
        assert got["W"] == want.W.tolist() and got["b"] == want.b.tolist()

    def test_mini_batch_never_cuts(self, tmp_path, monkeypatch, forks):
        runs = self.runs(tmp_path, monkeypatch, forks, [(31, 2), (10 ** 9, 2)],
                         linear={"batch_size": 4})
        (cut, cut_forks), (one, one_forks) = runs.values()
        assert cut == one and cut_forks == one_forks == 0

    def test_without_test_set(self, tmp_path, monkeypatch, forks):
        cfg, data = self.data(tmp_path)
        monkeypatch.setattr(cli_mod, "LINEAR_HALVES_MIN_ROWS", 31)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
        assert self.run(cfg, data, tmp_path / "run", test=False) == EXIT_OK
        assert len(forks) == 1 and not (tmp_path / "run" / "linear_predictions.csv").exists()

    def test_a_test_file_that_does_not_parse_fails_after_the_model(
            self, tmp_path, monkeypatch, capsys, forks):
        """As in one pass: the model, vocabulary and trace are written, then
        the test file fails the stage with exit 3, and the peer is reaped."""
        cfg, data = self.data(tmp_path)
        (data / "test.csv").write_text('sentiment,headline\npositive,"Shares rise\n')
        monkeypatch.setattr(cli_mod, "LINEAR_HALVES_MIN_ROWS", 31)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
        assert self.run(cfg, data, tmp_path / "run") == EXIT_DATA
        assert "malformed CSV" in capsys.readouterr().err
        assert len(forks) == 1 and (tmp_path / "run" / "linear.json").exists()
        assert not (tmp_path / "run" / "manifest_train_linear.json").exists()

    @pytest.mark.parametrize("request_name", ["frequencies", "featurize", "grad", "predict"])
    def test_an_error_in_the_peer_fails_the_stage_and_the_peer_is_reaped(
            self, tmp_path, monkeypatch, capsys, forks, request_name):
        cfg, data = self.data(tmp_path)
        monkeypatch.setattr(cli_mod, "LINEAR_HALVES_MIN_ROWS", 31)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
        parent, real = os.getpid(), getattr(cli_mod._LinearHalf, request_name)

        def broken(self, *args):
            if os.getpid() != parent:
                raise ValueError(f"half broken at {request_name}")
            return real(self, *args)

        monkeypatch.setattr(cli_mod._LinearHalf, request_name, broken)
        assert self.run(cfg, data, tmp_path / "run") == EXIT_DATA
        assert f"half broken at {request_name}" in capsys.readouterr().err
        assert len(forks) == 1
        for name in ("linear_predictions.csv", "manifest_train_linear.json"):
            assert not (tmp_path / "run" / name).exists()


class TestMergedExport:
    def test_merged_checkpoint_predicts_identically(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = tiny_config(tmp_path)
        for out, merge in ((out_a, False), (out_b, True)):
            run_cli("ingest", "--out", out)
            run_cli("split", "--config", cfg, "--out", out)
            args = ["train-encoder", "--config", cfg, "--out", out, "--peft",
                    "--seed", "5"]
            if merge:
                args.append("--merge")
            assert run_cli(*args) == EXIT_OK
            assert run_cli("predict", "--config", cfg, "--out", out,
                           "--backend", "encoder") == EXIT_OK
        assert (out_a / "predictions.csv").read_bytes() == \
            (out_b / "predictions.csv").read_bytes()


def _child_env() -> dict:
    # The child imports finsent from where this process found it, also
    # when only pytest's `pythonpath` setting put it on sys.path.
    src = str(Path(finsent.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "finsent.cli", "--version"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0
        assert "finsent" in proc.stdout

    def test_stage_without_http_loads_no_http_client(self, tmp_path):
        # A fresh interpreter, so that modules other tests imported do not count.
        code = ("import sys\n"
                "import finsent.cli\n"
                "assert finsent.cli.main(['ingest', '--out', sys.argv[1]]) == 0\n"
                "print(sorted({'requests', 'urllib3'} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "run")],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestWholeSurface:
    def test_all_subcommands_rerun_identically_with_true_hashes(self, tmp_path):
        """Every subcommand twice: manifests byte-identical across the runs,
        each recorded sha256 matching its file, encoder predictions matching
        the checkpoint's classifier."""
        from finsent.corpus import load_corpus
        from finsent.encoder import load_checkpoint

        cfg = tiny_config(tmp_path)
        runs = (tmp_path / "a", tmp_path / "b")
        for out in runs:
            for argv in (
                ["ingest"],
                ["split"],
                ["upsample"],
                ["augment", "--input", out / "train_upsampled.csv"],
                ["analyze", "--top-k", "5"],
                ["featurize", "--eval", out / "test.csv"],
                ["train-linear", "--test", out / "test.csv"],
                ["train-encoder", "--peft", "--test", out / "test.csv"],
                ["predict", "--backend", "encoder"],
                ["evaluate", "--name", "encoder"],
                ["evaluate", "--name", "linear", "--pred", out / "linear_predictions.csv"],
                ["compare", "--reports", f"encoder={out / 'report_encoder.json'}",
                 f"linear={out / 'report_linear.json'}"],
            ):
                assert run_cli(*argv, "--config", cfg, "--out", out) == EXIT_OK, argv

        out = runs[0]
        names = sorted(p.name for p in out.glob("manifest_*.json"))
        assert len(names) == 12
        for name in names:
            assert (out / name).read_bytes() == (runs[1] / name).read_bytes(), name
            doc = json.loads((out / name).read_text())
            for entry in [*doc["inputs"].values(), *doc["outputs"].values()]:
                path = (bundled_sample_path() if entry["file"] == "sample_corpus.csv"
                        else out / entry["file"])
                assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"], \
                    (name, entry["file"])

        clf = load_checkpoint(out / "encoder.npz")
        test_ds = load_corpus(out / "test.csv", format="csv_headered", encoding="utf8")
        preds = (out / "predictions.csv").read_text().splitlines()[1:]
        assert len(preds) == len(test_ds) > 0
        assert preds == [LABELS[int(np.argmax(clf.logits(rec.text)))].value
                         for rec in test_ds]
