"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Criterion 1 checks that `finsent.metrics` reproduces the paper's F1
column at +-0.0005.  The paper printed precision, recall and F1 each rounded
to 3 decimals after computing F1 from the unrounded precision and recall, so
the harmonic mean of the printed 0.970/0.963 (0.966487) is a different
quantity from the printed 0.967.  The criterion therefore scores integer
counts whose precision and recall print as the published values.
"""
import json
import math
import time

import numpy as np
import pytest

from finsent import encoder as enc
from finsent.augment import (
    AugmentConfig,
    augment_dataset,
    bundled_lexicon,
    random_deletion,
    random_swap,
)
from finsent.corpus import LABELS, class_counts, stratified_split, upsample
from finsent.features import build_vocabulary, tfidf
from finsent.linear_model import LinearParams, loss_and_grad as linear_loss_and_grad
from finsent.metrics import (
    ConfusionMatrix,
    confusion,
    f1,
    precision,
    recall,
    render_table,
    report,
    round3,
)
from finsent.promptkit import (
    CallableBackend,
    PromptTemplate,
    build_eval_prompt,
    build_train_prompt,
    extract_label,
    predict_sentiments,
    sample_token,
)

from conftest import make_dataset
from oracles import (
    encoder_forward_dense,
    fd_gradients,
    metrics_by_counting,
    tensor_rel_error,
    tfidf_dense,
)

TINY = enc.EncoderConfig(vocab_size=11, d_model=8, n_heads=2, d_ff=16,
                         n_layers=1, max_seq_len=6)


def announce(number: int, ok: bool, detail: str = ""):
    line = f"[acceptance] criterion {number:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def balanced(per_class, prefix="h"):
    rows = []
    for lab in LABELS:
        rows.extend((f"{prefix} {lab.value} {i}", lab) for i in range(per_class))
    return make_dataset(rows)


def tiny_examples(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        length = int(rng.integers(2, 7))
        ids = rng.integers(0, TINY.vocab_size, size=length)
        out.append((ids, np.ones(length, dtype=np.int64), int(rng.integers(0, 3))))
    return out


def printed_bounds(value):
    """(lo, hi) such that round3(a / b) == value iff lo * b <= 2000 * a < hi * b."""
    thousandths = round(value * 1000)
    return 2 * thousandths - 1, 2 * thousandths + 1


def counts_printing_as(label, p, r, max_support=1000):
    """Every (TP, FP, FN) with TP + FN <= max_support whose precision and
    recall for `label`, scored by finsent.metrics, print as `p` and `r`;
    each with its unrounded F1.  Exact integer windows keep the search to
    the few counts per support that can print so."""
    p_lo, p_hi = printed_bounds(p)
    r_lo, r_hi = printed_bounds(r)
    i, j = label.index, (label.index + 1) % 3
    found = []
    for support in range(1, max_support + 1):
        for tp in range(-(-r_lo * support // 2000), -(-r_hi * support // 2000)):
            for predicted in range(2000 * tp // p_hi + 1, 2000 * tp // p_lo + 1):
                counts = np.zeros((3, 3), dtype=np.int64)
                counts[i, i] = tp
                counts[j, i] = predicted - tp
                counts[i, j] = support - tp
                cm = ConfusionMatrix(counts)
                prec, rec = precision(cm, label), recall(cm, label)
                if round3(prec) == p and round3(rec) == r:
                    found.append(((tp, predicted - tp, support - tp), f1(prec, rec)))
    return found


def test_criterion_1_table_golden_f1():
    """The paper's (precision, recall, F1) rows come out of finsent.metrics.

    The rows are taken as per-class rows, whose F1 is the harmonic mean of
    the row's own precision and recall.  PAPER.md holds only the abstract and
    does not settle this: were they per-model macro rows, F1 would be the
    mean of per-class F1s (as `metrics.compare` prints it) and no formula
    would tie it to the row's precision and recall.
    """
    start = time.time()
    rows = [((0.970, 0.963), 0.967), ((0.840, 0.820), 0.830),
            ((0.813, 0.805), 0.809)]
    failures, evidence = [], []
    for lab, ((p, r), target) in zip(LABELS, rows):
        found = counts_printing_as(lab, p, r)
        hits = [(c, got) for c, got in found if abs(got - target) <= 0.0005]
        if hits:
            (tp, fp, fn), got = hits[0]
            evidence.append(f"{p:.3f}/{r:.3f}: {len(hits)} of {len(found)} "
                            f"counts, first TP {tp} FP {fp} FN {fn} "
                            f"-> F1 {got:.6f}")
        else:
            nearest = min((got for _, got in found),
                          key=lambda got: abs(got - target), default=float("nan"))
            failures.append(f"{p:.3f}/{r:.3f}: none of {len(found)} counts "
                            f"gives F1 {target:.3f}, nearest {nearest:.6f}")

    # One matrix that prints the whole table.  P > R in every row means each
    # class is predicted fewer times than it occurs, so the grid falls short
    # of the supports: the table needs no-label answers, which finsent counts
    # against recall only, as for an LLM that sometimes answers no label.
    cm = ConfusionMatrix(np.array([[130, 0, 5], [4, 100, 16], [0, 19, 91]]),
                         np.array([0, 2, 3]))
    printed = [line.split()
               for line in render_table(report(cm)).splitlines()[1:4]]
    wanted = [[lab.value.capitalize(), f"{p:.3f}", f"{r:.3f}", f"{target:.3f}"]
              for lab, ((p, r), target) in zip(LABELS, rows)]
    if printed != wanted:
        failures.append(f"witness table prints {printed}")

    elapsed = time.time() - start
    ok = not failures and elapsed < 1.0
    announce(1, ok, "; ".join(failures or evidence) + f"; {elapsed:.3f}s")
    assert elapsed < 1.0
    assert not failures, failures


def test_criterion_2_metrics_oracle():
    start = time.time()
    rng = np.random.default_rng(202)
    idx_to_label = {i: lab for i, lab in enumerate(LABELS)}
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        y_true = rng.integers(0, 3, size=n).tolist()
        y_pred = [None if rng.random() < 0.08 else int(rng.integers(0, 3))
                  for _ in range(n)]
        want = metrics_by_counting(y_true, y_pred)
        cm, nolabel = confusion([idx_to_label[t] for t in y_true],
                                [None if p is None else idx_to_label[p]
                                 for p in y_pred])
        assert nolabel == want["nolabel"]
        assert cm.counts.tolist() == want["grid"]
        rep = report(cm, nolabel)
        assert abs(rep.accuracy - want["accuracy"]) <= 1e-12
        for lab, wanted in zip(LABELS, want["per_class"]):
            got = rep.per_class[lab]
            assert abs(got.precision - wanted["precision"]) <= 1e-12
            assert abs(got.recall - wanted["recall"]) <= 1e-12
            assert abs(got.f1 - wanted["f1"]) <= 1e-12
            assert got.support == wanted["support"]
        assert abs(rep.macro_f1 - want["macro"]["f1"]) <= 1e-12
        assert abs(rep.weighted_f1 - want["weighted"]["f1"]) <= 1e-12
        assert abs(rep.macro_precision - want["macro"]["precision"]) <= 1e-12
        assert abs(rep.weighted_recall - want["weighted"]["recall"]) <= 1e-12
    elapsed = time.time() - start
    announce(2, elapsed < 10.0, f"1000 instances in {elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_3_gradient_checks():
    start = time.time()
    rng = np.random.default_rng(303)

    # linear model: exact analytic gradients vs central differences
    params = LinearParams(W=rng.normal(size=(3, 6)) * 0.5,
                          b=rng.normal(size=3) * 0.5)
    X = rng.normal(size=(4, 6))
    y = rng.integers(0, 3, size=4)
    _, dW, db = linear_loss_and_grad(params, X, y, l2=0.01)
    eps = 1e-5
    worst_linear = 0.0
    for tensor, grad in ((params.W, dW), (params.b, db)):
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + eps
            lp, _, _ = linear_loss_and_grad(params, X, y, l2=0.01)
            tensor[idx] = orig - eps
            lm, _, _ = linear_loss_and_grad(params, X, y, l2=0.01)
            tensor[idx] = orig
            num = (lp - lm) / (2 * eps)
            worst_linear = max(worst_linear,
                               abs(grad[idx] - num) / max(abs(grad[idx]),
                                                          abs(num), 1e-6))
    assert worst_linear <= 1e-6

    # full encoder including adapters on the tiny config
    eparams = enc.init_params(TINY, seed=31)
    adapters = enc.init_adapters(TINY, targets=("W_Q", "W_V", "W_o"), rank=2,
                                 alpha=4.0, seed=32)
    for ad in adapters.values():
        ad.B[:] = rng.uniform(-0.2, 0.2, ad.B.shape)
    batch = tiny_examples(2, seed=33)
    _, grads = enc.loss_and_grad(eparams, batch, TINY, adapters, peft_mode=False)
    tensors = dict(eparams.to_dict())
    tensors.update(enc.adapters_to_dict(adapters))
    numeric = fd_gradients(lambda: enc.batch_loss(eparams, batch, TINY, adapters),
                           tensors, eps=1e-4)
    worst_encoder = max(tensor_rel_error(grads[name], num)
                        for name, num in numeric.items())
    assert worst_encoder <= 1e-4

    elapsed = time.time() - start
    ok = elapsed < 60.0
    announce(3, ok, f"linear {worst_linear:.2e}, encoder {worst_encoder:.2e}, "
                    f"{elapsed:.1f}s")
    assert ok


def test_criterion_4_encoder_forward_oracle():
    rng = np.random.default_rng(404)
    worst = 0.0
    for seed in range(20):
        params = enc.init_params(TINY, seed=seed)
        adapters = None
        if seed % 2 == 0:
            adapters = enc.init_adapters(TINY, targets=("W_Q", "W_V"), rank=2,
                                         alpha=4.0, seed=seed)
            for ad in adapters.values():
                ad.B[:] = rng.uniform(-0.2, 0.2, ad.B.shape)
        n = int(rng.integers(2, 7))
        ids = rng.integers(0, TINY.vocab_size, size=n)
        mask = np.ones(n, dtype=np.int64)
        if n > 2:
            mask[-1] = int(rng.random() > 0.5)
        got = enc.encoder_forward(ids, mask, params, TINY, adapters)
        deltas = {t: ad.delta() for t, ad in (adapters or {}).items()}
        want = encoder_forward_dense(ids.tolist(), mask.tolist(),
                                     params.to_dict(), deltas, TINY)
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-9
    announce(4, ok, f"max |diff| = {worst:.2e} over 20 seeded inputs")
    assert ok


def test_criterion_5_attention_and_layernorm_invariants():
    rng = np.random.default_rng(505)
    worst_rowsum = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 8))
        Q = rng.normal(size=(n, 4))
        K = rng.normal(size=(n, 4))
        V = rng.normal(size=(n, 3))
        mask = rng.integers(0, 2, size=n)
        if not mask.any():
            mask[0] = 1
        _, weights = enc.attention(Q, K, V, mask, return_weights=True)
        worst_rowsum = max(worst_rowsum,
                           float(np.max(np.abs(weights.sum(axis=1) - 1.0))))
    assert worst_rowsum <= 1e-6

    worst_mean, worst_var = 0.0, 0.0
    for _ in range(100):
        x = rng.normal(loc=rng.normal() * 5,
                       scale=rng.random() * 3 + 0.5, size=64)
        out = enc.layer_norm(x, np.ones(64), np.zeros(64), eps=1e-5)
        worst_mean = max(worst_mean, abs(float(out.mean())))
        worst_var = max(worst_var, abs(float(out.var()) - 1.0))
    ok = worst_mean <= 1e-6 and worst_var <= 1e-4
    announce(5, ok, f"row-sum {worst_rowsum:.1e}, mean {worst_mean:.1e}, "
                    f"var {worst_var:.1e}")
    assert ok


def test_criterion_6_peft_invariants():
    rng = np.random.default_rng(606)
    params = enc.init_params(TINY, seed=61)
    adapters = enc.init_adapters(TINY, targets=("W_Q", "W_V", "W_o"), rank=2,
                                 alpha=4.0, seed=62)

    # zero-init adapters change logits by <= 1e-12
    worst_noop = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        ids = rng.integers(0, TINY.vocab_size, size=n)
        mask = np.ones(n, dtype=np.int64)
        base = enc.encoder_forward(ids, mask, params, TINY)
        adapted = enc.encoder_forward(ids, mask, params, TINY, adapters)
        worst_noop = max(worst_noop, float(np.max(np.abs(adapted - base))))
    assert worst_noop <= 1e-12

    # 20 peft optimizer steps leave every base tensor bit-identical
    before = {k: v.tobytes() for k, v in params.to_dict().items()}
    examples = tiny_examples(10, seed=63)
    cfg = enc.TrainConfig(epochs=4, per_device_batch=1, grad_accum_steps=2,
                          base_lr=1e-2, seed=64)
    trace = enc.train_loop(examples, params, TINY, cfg, adapters=adapters,
                           peft_mode=True)
    assert len(trace) >= 20
    frozen = all(v.tobytes() == before[k] for k, v in params.to_dict().items())
    assert frozen

    # merged forward agrees with adapted forward within 1e-12
    merged = enc.merge_all(params, adapters)
    worst_merge = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        ids = rng.integers(0, TINY.vocab_size, size=n)
        mask = np.ones(n, dtype=np.int64)
        adapted = enc.encoder_forward(ids, mask, params, TINY, adapters)
        dense = enc.encoder_forward(ids, mask, merged, TINY)
        worst_merge = max(worst_merge, float(np.max(np.abs(adapted - dense))))
    ok = worst_noop <= 1e-12 and frozen and worst_merge <= 1e-12
    announce(6, ok, f"no-op {worst_noop:.1e}, {len(trace)} frozen steps, "
                    f"merge {worst_merge:.1e}")
    assert worst_merge <= 1e-12


def test_criterion_7_optimization_machinery():
    # gradient accumulation: 8 microbatches of 1 vs one batch of 8
    examples = tiny_examples(8, seed=71)
    params_a = enc.init_params(TINY, seed=72)
    params_b = enc.init_params(TINY, seed=72)
    enc.train_loop(examples, params_a, TINY,
                   enc.TrainConfig(epochs=1, per_device_batch=1,
                                   grad_accum_steps=8, base_lr=1e-3,
                                   warmup_ratio=0.0, seed=0))
    enc.train_loop(examples, params_b, TINY,
                   enc.TrainConfig(epochs=1, per_device_batch=8,
                                   grad_accum_steps=1, base_lr=1e-3,
                                   warmup_ratio=0.0, seed=0))
    accum_diff = max(float(np.max(np.abs(t - params_b.to_dict()[k])))
                     for k, t in params_a.to_dict().items())
    assert accum_diff <= 1e-6

    # schedule endpoints
    total = 1000
    warmup = math.ceil(0.03 * total)
    lr0 = enc.lr_at(0, total, base_lr=2e-4, warmup_ratio=0.03)
    lrw = enc.lr_at(warmup, total, base_lr=2e-4, warmup_ratio=0.03)
    lrT = enc.lr_at(total, total, base_lr=2e-4, warmup_ratio=0.03)
    assert lr0 == 0.0 and lrw == 2e-4 and lrT == 0.0

    # AdamW closed forms: first step ~= -lr * sign(g); decay-only shrink
    tensors = {"w": np.array([[0.0]])}
    state = enc.OptimizerState(hyper=enc.AdamWConfig(lr=1e-3, weight_decay=0.0))
    enc.adamw_step(tensors, {"w": np.array([[2.5]])}, state)
    first_step = float(tensors["w"][0, 0])
    assert first_step == pytest.approx(-1e-3 * 2.5 / (2.5 + 1e-8), rel=1e-9)

    tensors = {"w": np.array([[4.0]])}
    state = enc.OptimizerState(hyper=enc.AdamWConfig(lr=0.01, weight_decay=0.1))
    enc.adamw_step(tensors, {"w": np.array([[0.0]])}, state)
    decayed = float(tensors["w"][0, 0])
    assert decayed == pytest.approx(4.0 * (1 - 0.01 * 0.1), rel=1e-12)

    announce(7, True, f"accum diff {accum_diff:.1e}, lr endpoints "
                      f"({lr0}, {lrw}, {lrT})")


def test_criterion_8_augmentation_suite():
    lexicon = bundled_lexicon()
    ds = make_dataset(
        [(f"profit rose {i} and demand grew", LABELS[0]) for i in range(8)]
        + [(f"the report is due on day {i}", LABELS[1]) for i in range(8)]
        + [(f"sales fell {i} on weak orders", LABELS[2]) for i in range(8)])

    # label preservation, exhaustively
    cfg = AugmentConfig(n_replace=2, n_insert=1, p_delete=0.2, n_swap=2,
                        copies_per_record=3, seed=81)
    out = augment_dataset(ds, cfg, lexicon)
    for i, rec in enumerate(ds):
        assert all(v.label is rec.label for v in out[4 * i: 4 * i + 4])

    # swap multiset equality
    rng = np.random.default_rng(82)
    from collections import Counter
    for _ in range(200):
        toks = [str(t) for t in rng.integers(0, 5, size=rng.integers(0, 12))]
        swapped = random_swap(toks, int(rng.integers(0, 6)), rng)
        assert Counter(swapped) == Counter(toks)

    # deletion never empty at p = 1
    for seed in range(100):
        out_toks = random_deletion(["a", "b", "c", "d"], 1.0,
                                   np.random.default_rng(seed))
        assert len(out_toks) == 1

    # seeded determinism
    a = augment_dataset(ds, cfg, lexicon)
    b = augment_dataset(ds, cfg, lexicon)
    assert [(r.text, r.label) for r in a] == [(r.text, r.label) for r in b]

    # survival mean at p = 0.5 over 10,000 trials on 10 tokens
    stream = np.random.default_rng(83)
    toks = [str(i) for i in range(10)]
    total = sum(len(random_deletion(toks, 0.5, stream)) for _ in range(10_000))
    mean = total / 10_000
    ok = abs(mean - 5.0) <= 0.2
    announce(8, ok, f"deletion mean {mean:.3f}")
    assert ok


def test_criterion_9_tfidf_oracle():
    rng = np.random.default_rng(909)
    alphabet = [f"w{i}" for i in range(15)]
    worst = 0.0
    worst_norm = 0.0
    for _ in range(100):
        n_docs = int(rng.integers(1, 21))
        docs = [" ".join(rng.choice(alphabet, size=rng.integers(1, 31)))
                for _ in range(n_docs)]
        ds = make_dataset([(d, LABELS[0]) for d in docs])
        vocab = build_vocabulary(ds, min_df=1)
        got = tfidf(ds, vocab).to_dense()
        want = tfidf_dense([d.split() for d in docs], vocab.tokens,
                           vocab.document_frequency, n_docs)
        worst = max(worst, float(np.max(np.abs(got - want))))
        for row in got:
            norm = float(np.linalg.norm(row))
            if norm > 0:
                worst_norm = max(worst_norm, abs(norm - 1.0))
    ok = worst <= 1e-9 and worst_norm <= 1e-9
    announce(9, ok, f"max |diff| {worst:.1e}, norm dev {worst_norm:.1e}")
    assert ok


def test_criterion_10_split_and_upsample():
    ds = balanced(300)
    train, test = stratified_split(ds, 300, 300, seed=7)
    counts_train = tuple(class_counts(train).values())
    counts_test = tuple(class_counts(test).values())
    assert counts_train == (100, 100, 100)
    assert counts_test == (100, 100, 100)
    train_texts = {r.text for r in train}
    assert all(r.text not in train_texts for r in test)
    again = stratified_split(ds, 300, 300, seed=7)
    assert [r.text for r in again[0]] == [r.text for r in train]
    assert [r.text for r in again[1]] == [r.text for r in test]

    rng = np.random.default_rng(1010)
    for trial in range(50):
        counts = rng.integers(1, 12, size=3)
        rows = [(f"u{trial} c{k} i{i}", LABELS[k])
                for k in range(3) for i in range(counts[k])]
        target = int(rng.integers(1, 15))
        out = upsample(make_dataset(rows), target, seed=trial)
        assert tuple(class_counts(out).values()) == (target, target, target)
    announce(10, True, "300/300 split exact, 50 random upsample targets hit")


def test_criterion_11_promptkit():
    plain = PromptTemplate(instruction="Classify.\nHeadline: {headline}",
                           answer_marker="\nAnswer:")
    # round trip over all three labels
    for lab in LABELS:
        assert extract_label(build_train_prompt("Results due", lab, plain),
                             plain) is lab

    # order preservation: concurrent stub with randomized delays,
    # 500 records x 10 repetitions
    rows = [(f"record number {i}", LABELS[i % 3]) for i in range(500)]
    ds = make_dataset(rows)
    truth = {build_eval_prompt(r.text, plain): r.label.value for r in ds}
    rng = np.random.default_rng(1111)
    delays = {p: float(d) for p, d in
              zip(truth, rng.random(len(truth)) * 0.002)}

    def slow(prompt, cfg):
        time.sleep(delays[prompt])
        return truth[prompt]

    for _ in range(10):
        preds, nolabel = predict_sentiments(ds, CallableBackend(slow),
                                            template=plain, max_in_flight=8)
        assert nolabel == 0
        assert preds == [r.label for r in ds]

    # T=0 sampling determinism
    picks = {sample_token([0.3, 0.9, 0.1], 0.0, np.random.default_rng(s))
             for s in range(25)}
    assert picks == {1}

    # T=1 Monte-Carlo frequency on logits (ln 2, 0, 0)
    stream = np.random.default_rng(1112)
    hits = sum(sample_token([math.log(2), 0.0, 0.0], 1.0, stream) == 0
               for _ in range(10_000))
    freq = hits / 10_000
    ok = abs(freq - 0.5) <= 0.03
    announce(11, ok, f"T=1 frequency {freq:.3f}")
    assert ok


def test_criterion_12_end_to_end_pipeline(tmp_path):
    from finsent.cli import main as cli_main

    start = time.time()

    def run(out, *argv):
        code = cli_main([str(a) for a in argv] + ["--out", str(out)])
        assert code == 0, f"command {argv} exited {code}"

    accuracies = {}
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        run(run_dir, "ingest")
        run(run_dir, "split", "--train-total", "45", "--test-total", "45",
            "--seed", "7")
        run(run_dir, "augment", "--seed", "7")
        run(run_dir, "train-encoder", "--peft", "--epochs", "30", "--seed", "7",
            "--train", run_dir / "train_augmented.csv")
        run(run_dir, "predict", "--backend", "encoder")
        run(run_dir, "evaluate", "--name", "encoder")
        run(run_dir, "train-linear", "--seed", "7",
            "--train", run_dir / "train_augmented.csv",
            "--test", run_dir / "test.csv")
        run(run_dir, "evaluate", "--name", "linear",
            "--pred", run_dir / "linear_predictions.csv")
        run(run_dir, "compare", "--reports",
            f"linear={run_dir / 'report_linear.json'}",
            f"encoder={run_dir / 'report_encoder.json'}")

        gold = (run_dir / "test.csv").read_text().splitlines()[1:]
        labels = [line.split(",", 1)[0] for line in gold]
        majority = max(labels.count(w) for w in
                       ("positive", "neutral", "negative")) / len(labels)
        for name in ("encoder", "linear"):
            rep = json.loads((run_dir / f"report_{name}.json").read_text())
            accuracies[name] = rep["accuracy"]
            assert rep["accuracy"] > majority, \
                f"{name} accuracy {rep['accuracy']} vs majority {majority}"

    manifests = sorted(p.name for p in (tmp_path / "a").glob("manifest_*.json"))
    assert manifests
    for name in manifests + ["encoder_trace.csv", "predictions.csv"]:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between runs"

    elapsed = time.time() - start
    ok = elapsed < 600.0
    announce(12, ok, f"linear {accuracies['linear']:.3f}, "
                     f"encoder {accuracies['encoder']:.3f}, "
                     f"{len(manifests)} manifests identical, {elapsed:.0f}s")
    assert ok
