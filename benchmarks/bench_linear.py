"""Linear-path micro-benchmark (pytest-benchmark), kept out of tier-1.

Times `features.tfidf`, `DocTermMatrix.to_triplet_csv` and
`linear_model.train` on a seeded synthetic corpus near linear_bulk's size:
24,000 training headlines of 6-16 tokens over ~700 words (a Zipf-like
draw, each class leaning on its own words), plus 11,000 held-out headlines
that also hold words outside the training vocabulary.  Training runs the
CLI default: full batch, 150 epochs, lr 0.5, l2 1e-4.  Only calls that
exist at older commits too are used, so the same file times a parent
checkout for a before/after comparison.

    python -m pytest benchmarks/bench_linear.py --benchmark-json=bench.json
"""
import numpy as np
import pytest

from finsent.corpus import LABELS, Dataset, HeadlineRecord
from finsent.features import build_vocabulary, tfidf
from finsent.linear_model import LinearTrainConfig, train

TRAIN_RECORDS = 24000
HELD_OUT_RECORDS = 11000
WORDS = 700
CLI_DEFAULT = LinearTrainConfig(lr=0.5, epochs=150, batch_size=0, l2=1e-4, seed=7)


def _corpus(n, seed, unseen=0):
    """`n` headlines; `unseen` extra words exist only in this corpus."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(WORDS)] + [f"new{i}" for i in range(unseen)]
    base = 1.0 / np.arange(1, len(words) + 1)
    records = []
    for k in range(n):
        label = int(rng.integers(0, 3))
        p = base.copy()
        p[label::3] *= 3.0  # every third word leans towards this class
        p /= p.sum()
        tokens = rng.choice(words, size=int(rng.integers(6, 17)), p=p)
        text = " ".join(tokens) + (" -- 10%" if k % 7 == 0 else "")
        records.append(HeadlineRecord(text, LABELS[label]))
    return Dataset(tuple(records), "synthetic")


@pytest.fixture(scope="module")
def corpora():
    train_ds = _corpus(TRAIN_RECORDS, seed=1)
    held_out = _corpus(HELD_OUT_RECORDS, seed=2, unseen=50)
    vocab = build_vocabulary(train_ds, min_df=1)
    return train_ds, held_out, vocab


@pytest.mark.parametrize("which", ["train", "held_out"])
def test_tfidf(benchmark, corpora, which):
    train_ds, held_out, vocab = corpora
    ds = train_ds if which == "train" else held_out
    matrix = benchmark.pedantic(tfidf, (ds, vocab), rounds=5, iterations=1)
    assert matrix.n_rows == len(ds)


def test_to_triplet_csv(benchmark, corpora):
    train_ds, _, vocab = corpora
    matrix = tfidf(train_ds, vocab)
    text = benchmark.pedantic(matrix.to_triplet_csv, rounds=5, iterations=1)
    assert text.count("\n") == matrix.matrix.nnz + 1


def test_train(benchmark, corpora):
    train_ds, _, vocab = corpora
    X = tfidf(train_ds, vocab).matrix
    y = np.array([rec.label.index for rec in train_ds], dtype=np.int64)
    params, trace = benchmark.pedantic(train, (X, y, CLI_DEFAULT), rounds=3, iterations=1)
    assert len(trace) == CLI_DEFAULT.epochs and trace[-1] < trace[0]
