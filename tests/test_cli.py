import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import finsent
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


def run_cli(*argv):
    return main([str(a) for a in argv])


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
        assert capsys.readouterr().err.startswith("config error: ")


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
        emb = tmp_path / "vectors.txt"
        emb.write_text("profit 1 0\nsales 0 1\n")
        assert run_cli("featurize", "--config", cfg, "--out", out,
                       "--eval", out / "test.csv", "--embeddings", emb) == EXIT_OK
        vocab = json.loads((out / "vocabulary.json").read_text())
        assert vocab["n_documents"] == 12
        assert (out / "tfidf_train.csv").read_text().startswith("row,col,weight")
        assert (out / "tfidf_eval.csv").exists()
        means = (out / "embedding_means_train.csv").read_text().splitlines()
        assert means[0] == "v0,v1,coverage"
        assert len(means) == 13


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

    def test_compare_bad_spec(self, tmp_path):
        assert run_cli("compare", "--out", tmp_path, "--reports",
                       "missing-equals-sign") == EXIT_CONFIG


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


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        # The child imports finsent from where this process found it, also
        # when only pytest's `pythonpath` setting put it on sys.path.
        src = str(Path(finsent.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "finsent.cli", "--version"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "finsent" in proc.stdout


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
        assert preds == [clf.predict_label(rec.text).value for rec in test_ds]
