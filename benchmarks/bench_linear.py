"""Linear-path micro-benchmark (pytest-benchmark), kept out of tier-1.

Times `features.tfidf`, `DocTermMatrix.to_triplet_csv`,
`linear_model.train`, `augment.augment_dataset` and
`analysis.feature_matrix` on a seeded synthetic corpus near linear_bulk's
size: 24,000 training headlines of 6-16 tokens over ~700 words (a
Zipf-like draw, each class leaning on its own words), plus 11,000 held-out
headlines that also hold words outside the training vocabulary.  Training
runs the CLI default: full batch, 150 epochs, lr 0.5, l2 1e-4.
Augmentation runs the CLI default (one copy per record, bundled thesaurus)
on the first 12,000 training headlines, whose words are replaced by
thesaurus headwords so that the synonym operators have work to do; it
forks one worker per usable CPU where the code under test does.  The whole
`train-linear` stage runs through `finsent.cli.main`, with the CLI defaults,
on a training file of 24,000 records of which 18% repeat an earlier one
(the share in linear_bulk's `train_augmented.csv`: 4,406 of 24,000 at seed
12), scored on the held-out headlines, once with 1 usable CPU and once with
2 (`_fork.usable_cpus` patched; on a host with 1 CPU, the second case runs
two processes on it).  Only calls that exist at older
commits too are used, so the same file times a parent checkout for a
before/after comparison.

    python -m pytest benchmarks/bench_linear.py --benchmark-json=bench.json
"""
import numpy as np
import pytest

from finsent import _fork
from finsent.analysis import feature_matrix
from finsent.augment import AugmentConfig, augment_dataset, bundled_lexicon
from finsent.cli import main
from finsent.corpus import LABELS, Dataset, HeadlineRecord, write_corpus
from finsent.features import build_vocabulary, tfidf
from finsent.linear_model import LinearTrainConfig, train

TRAIN_RECORDS = 24000
HELD_OUT_RECORDS = 11000
AUGMENT_RECORDS = 12000
WORDS = 700
REPEATED_SHARE = 0.18
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
    return Dataset(tuple(records))


@pytest.fixture(scope="module")
def corpora():
    train_ds = _corpus(TRAIN_RECORDS, seed=1)
    held_out = _corpus(HELD_OUT_RECORDS, seed=2, unseen=50)
    vocab = build_vocabulary(train_ds, min_df=1)
    return train_ds, held_out, vocab


def _with_repeats(ds, share, seed):
    """`ds` with its last `share` of records swapped for copies of the others,
    all shuffled."""
    rng = np.random.default_rng(seed)
    kept = ds.records[:len(ds) - round(share * len(ds))]
    copies = [kept[i] for i in rng.integers(0, len(kept), size=len(ds) - len(kept))]
    records = kept + tuple(copies)
    return Dataset(tuple(records[i] for i in rng.permutation(len(records))))


@pytest.fixture(scope="module")
def stage_files(tmp_path_factory, corpora):
    train_ds, held_out, _ = corpora
    work = tmp_path_factory.mktemp("train_linear")
    write_corpus(_with_repeats(train_ds, REPEATED_SHARE, seed=3), work / "train.csv")
    write_corpus(held_out, work / "test.csv")
    return work


@pytest.mark.parametrize("which", ["train", "held_out"])
def test_tfidf(benchmark, corpora, which):
    train_ds, held_out, vocab = corpora
    ds = train_ds if which == "train" else held_out
    matrix = benchmark.pedantic(tfidf, (ds, vocab), rounds=5, iterations=1)
    assert matrix.matrix.shape[0] == len(ds)


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


@pytest.mark.parametrize("cpus", [1, 2])
def test_train_linear_stage(benchmark, stage_files, monkeypatch, cpus):
    monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
    argv = ["train-linear", "--train", str(stage_files / "train.csv"),
            "--test", str(stage_files / "test.csv"), "--out", str(stage_files / "run")]
    status = benchmark.pedantic(main, (argv,), rounds=5, iterations=1)
    assert status == 0 and (stage_files / "run" / "linear_predictions.csv").exists()


def test_augment_dataset(benchmark, corpora):
    train_ds = corpora[0]
    heads = sorted(bundled_lexicon().entries)
    # Every third word becomes a thesaurus headword, so about a third of each
    # headline's tokens can be replaced or feed an insertion.
    swap = {f"w{i}": heads[i % len(heads)] for i in range(0, WORDS, 3)}
    ds = Dataset(tuple(HeadlineRecord(" ".join(swap.get(t, t) for t in rec.text.split()),
                                      rec.label)
                       for rec in train_ds.records[:AUGMENT_RECORDS]))
    out = benchmark.pedantic(augment_dataset, (ds, AugmentConfig(seed=7), bundled_lexicon()),
                             rounds=3, iterations=1)
    assert len(out) == 2 * AUGMENT_RECORDS


def test_feature_matrix(benchmark, corpora):
    train_ds = corpora[0]
    X = benchmark.pedantic(feature_matrix, (train_ds,), rounds=5, iterations=1)
    assert X.shape == (TRAIN_RECORDS, 5)
