"""Smoke runs of the generators, the output checks and tiny workloads.

    python3 -m pytest -q perfbench/tests/check_smoke.py

The tiny workloads run the real harness (fresh processes, checks, metric
reduction) at a size that takes seconds.
"""
import dataclasses
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BY_LABEL = gen.read_bundled(ROOT / workloads.BUNDLED_CORPUS)
BUNDLED_TOKENS = {t for heads in BY_LABEL.values() for h in heads for t in gen.tokens(h)}


def test_encoder_long_generator_is_seeded_and_bounded():
    rows = gen.encoder_long(BY_LABEL, 30, 5)
    assert rows == gen.encoder_long(BY_LABEL, 30, 5)
    assert rows != gen.encoder_long(BY_LABEL, 30, 6)
    props = gen.properties(rows)
    assert props["records"] == 30
    assert props["class_counts"] == {"positive": 10, "neutral": 10, "negative": 10}
    assert props["max_tokens"] <= gen.LONG_MAX_TOKENS
    assert props["mean_tokens"] > 15
    assert 0 < props["share_over_24_tokens"] < 1


def test_linear_bulk_generator_is_seeded_and_recombines_bundled_text():
    rows = gen.linear_bulk(BY_LABEL, 200, 5)
    assert rows == gen.linear_bulk(BY_LABEL, 200, 5)
    assert rows != gen.linear_bulk(BY_LABEL, 200, 6)
    assert all(label in gen.LABEL_WORDS and text for label, text in rows)
    assert {t for _, text in rows for t in gen.tokens(text)} <= BUNDLED_TOKENS
    assert gen.properties(rows)["vocabulary_size"] <= len(BUNDLED_TOKENS)


def test_paper_pipeline_is_the_acceptance_sequence(tmp_path):
    wl = workloads.WORKLOADS["paper_pipeline"]
    plan = workloads.prepare(wl, ROOT, tmp_path, 1)
    argvs = workloads.argv_list(wl, plan, Path("/out"))
    assert [a[0] for a in argvs] == ["ingest", "split", "augment", "train-encoder",
                                     "predict", "evaluate", "train-linear", "evaluate",
                                     "compare"]
    assert argvs[3][:6] == ["train-encoder", "--peft", "--epochs", "30", "--seed", "7"]
    assert all(a[-2:] == ["--out", "/out"] for a in argvs)


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def test_checks_pass_good_outputs_and_catch_bad_ones(tmp_path):
    wl = workloads.WORKLOADS["encoder_long"]
    _write(tmp_path / "test.csv", "sentiment,headline\npositive,a\npositive,b\n"
                                  "neutral,c\nnegative,d\n")
    _write(tmp_path / "predictions.csv", "prediction\npositive\npositive\nneutral\nnolabel\n")
    report = {"accuracy": 0.75, "macro": {"f1": 0.6}}
    _write(tmp_path / "report_encoder.json", json.dumps(report))
    _write(tmp_path / "encoder_trace.csv", "step,epoch,lr,loss\n1,0,0.1,0.9\n2,0,0.1,0.7\n")
    _write(tmp_path / "manifest_predict.json", "{}\n")
    errors, facts = workloads.check_outputs(wl, tmp_path)
    assert errors == []
    assert facts["majority_rate"] == 0.5
    assert facts["failed_headlines"] == 1
    assert facts["models"]["encoder"] == {"accuracy": 0.75, "macro_f1": 0.6}

    _write(tmp_path / "predictions.csv", "prediction\npositive\npositive\nneutral\n")
    _write(tmp_path / "report_encoder.json", json.dumps({**report, "accuracy": 0.5}))
    _write(tmp_path / "encoder_trace.csv", "step,epoch,lr,loss\n1,0,0.1,nan\n")
    (tmp_path / "manifest_predict.json").unlink()
    errors, _ = workloads.check_outputs(wl, tmp_path)
    assert len(errors) == 4, errors


def test_sampler_times_chunks_while_the_program_runs():
    sampler = probe.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 12 * probe.PERIOD_S
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        sampler.stop()
    assert len(sampler.chunks) >= 5
    assert all(c > 0 for c in sampler.chunks)
    assert sampler.busy > sum(sampler.chunks)      # the untimed warm-up runs count too


TINY = {
    "tiny_encoder_long": dataclasses.replace(
        workloads.WORKLOADS["encoder_long"], name="tiny_encoder_long",
        config="split: {train_total: 30, test_total: 30}\n"
               "features: {max_seq_len: 64}\n"
               "encoder: {d_model: 16, n_heads: 2, d_ff: 32, n_layers: 1, "
               "train: {epochs: 2}}\n",
        generate=lambda by_label, seed: gen.encoder_long(by_label, 60, seed)),
    "tiny_linear_bulk": dataclasses.replace(
        workloads.WORKLOADS["linear_bulk"], name="tiny_linear_bulk",
        config="split: {train_total: 120, test_total: 150}\n"
               "upsample: {target_per_class: 60}\n",
        generate=lambda by_label, seed: gen.linear_bulk(by_label, 300, seed)),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_untraced_and_traced(monkeypatch, name):
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    try:
        res = run.run_workload(ROOT, name, seed=3, seconds=0, trace=False)
        assert res["errors"] == []
        assert len(res["untraced"]) == run.MIN_REPS
        assert len(res["setups"]) == run.MIN_REPS + run.SETUP_PROBES
        metrics, _ = run.summarize(res)
        assert list(metrics) == [n for n, _, _ in run.END_TO_END]
        assert all(v["value"] > 0 and math.isfinite(v["value"]) for v in metrics.values())
        assert res["failed"] == 0 and res["attempted"] > 0
        for rep in res["untraced"]:
            m = rep["metrics"]
            assert m["speed"] == run.REF_CHUNK_S / statistics.median(rep["chunks"])
            scale = m["speed"] ** run.SPEED_ELASTICITY
            assert m["pipeline_s"] == pytest.approx(m["pipeline_wall_s"] * scale)
            assert m["train_samples_per_s"] == pytest.approx(
                m["train_samples_per_wall_s"] / scale)

        res = run.run_workload(ROOT, name, seed=3, seconds=0, trace=True)
        assert res["errors"] == []
        assert (len(res["untraced"]), len(res["traced"])) == (1, 1)
        metrics, _ = run.summarize(res)
        expected = [n for n, _, _ in spans.METRICS] + [n for n, _ in run.TRACE_EXTRA]
        assert list(metrics) == expected
        assert res["traced"][0]["untraced_bindings"] == []
        assert metrics["corpus.load_calls"]["value"] > 0
    finally:
        shutil.rmtree(ROOT / ".bench_build" / "perfbench" / name, ignore_errors=True)


def test_run_refuses_a_tree_without_finsent_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        [(n, u) for n, u, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        list(spans.METRICS) + [(n, u, "lower") for n, u in run.TRACE_EXTRA]
    assert max(m["bound"] for m in doc["end_to_end"]) == \
        next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
