import csv
import io
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finsent import features
from finsent.corpus import EmptyCorpusError
from finsent.features import (
    DocTermMatrix,
    DocumentFrequencies,
    Vocabulary,
    build_vocabulary,
    document_frequencies,
    pad_or_truncate,
    tfidf,
    token_lists,
    tokenize,
)

from conftest import NEG, NEU, POS, make_dataset
from oracles import tfidf_dense


def corpus_of(*texts):
    return make_dataset([(t, POS) for t in texts])


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_percent_and_digits(self):
        assert tokenize("EPS rose 10%") == ["eps", "rose", "10"]

    def test_hyphen_separates(self):
        assert tokenize("profit-taking") == ["profit", "taking"]

    def test_underscore_separates(self):
        assert tokenize("net_sales") == ["net", "sales"]

    def test_unicode_letters(self):
        assert tokenize("Caf\xe9 s\xe4ilyi") == ["caf\xe9", "s\xe4ilyi"]

    def test_idempotent_under_rejoin(self):
        samples = ["EPS rose 10%", "Profit-taking, again!", "a1b2 c3",
                   "  spaced   out  "]
        for text in samples:
            toks = tokenize(text)
            assert tokenize(" ".join(toks)) == toks


class TestPadOrTruncate:
    def test_pads_short(self):
        ids, mask = pad_or_truncate([4, 5, 6], 5, pad_token_id=0)
        assert ids.tolist() == [4, 5, 6, 0, 0]
        assert mask.tolist() == [1, 1, 1, 0, 0]

    def test_exact_length(self):
        ids, mask = pad_or_truncate([1, 2, 3, 4, 5], 5, pad_token_id=9)
        assert ids.tolist() == [1, 2, 3, 4, 5]
        assert mask.tolist() == [1, 1, 1, 1, 1]

    def test_truncates_prefix(self):
        ids, mask = pad_or_truncate(list(range(8)), 5, pad_token_id=9)
        assert ids.tolist() == [0, 1, 2, 3, 4]
        assert mask.tolist() == [1, 1, 1, 1, 1]

    def test_output_length_always_max_len(self):
        for n in range(0, 12):
            ids, mask = pad_or_truncate(list(range(n)), 6, pad_token_id=0)
            assert len(ids) == len(mask) == 6

    def test_invalid_max_len(self):
        with pytest.raises(ValueError):
            pad_or_truncate([1], 0, pad_token_id=0)


class TestBuildVocabulary:
    def test_df_counts(self):
        vocab = build_vocabulary(corpus_of("a b", "b c"), min_df=1)
        assert set(vocab.index) == {"a", "b", "c"}
        assert vocab.document_frequency == {"b": 2, "a": 1, "c": 1}
        assert vocab.n_documents == 2

    def test_min_df_filters(self):
        vocab = build_vocabulary(corpus_of("a b", "b c"), min_df=2)
        assert set(vocab.index) == {"b"}

    def test_max_size_keeps_highest_df(self):
        vocab = build_vocabulary(corpus_of("a b", "b c"), min_df=1, max_size=1)
        assert list(vocab.index) == ["b"]

    def test_rank_order_df_desc_token_asc(self):
        vocab = build_vocabulary(corpus_of("b a", "b a", "z"), min_df=1)
        assert list(vocab.index) == ["a", "b", "z"]

    def test_indices_contiguous(self):
        vocab = build_vocabulary(corpus_of("d c b a"), min_df=1)
        assert sorted(vocab.index.values()) == list(range(len(vocab)))

    def test_df_within_bounds(self):
        vocab = build_vocabulary(corpus_of("a a b", "b", "c b"), min_df=1)
        for t in vocab.index:
            assert 1 <= vocab.document_frequency[t] <= vocab.n_documents

    def test_empty_corpus(self):
        from finsent.corpus import Dataset
        with pytest.raises(EmptyCorpusError):
            build_vocabulary(Dataset(()), min_df=1)

    def test_invalid_min_df(self):
        with pytest.raises(ValueError):
            build_vocabulary(corpus_of("a"), min_df=0)


class TestTfidf:
    def test_single_doc_hand_computed(self):
        ds = corpus_of("a a b")
        vocab = build_vocabulary(ds, min_df=1)
        row = tfidf(ds, vocab).to_dense()[0]
        # idf = ln(2/2)+1 = 1 for both tokens; weights (2,1)/sqrt(5)
        expected = {"a": 2 / math.sqrt(5), "b": 1 / math.sqrt(5)}
        for tok, w in expected.items():
            assert row[vocab.index[tok]] == pytest.approx(w, abs=1e-12)

    def test_token_in_all_docs_idf_one(self):
        ds = corpus_of("a b", "a c")
        vocab = build_vocabulary(ds, min_df=1)
        # df(a)=2, N=2 -> idf = ln(3/3)+1 = 1
        mat = tfidf(ds, vocab)
        dense = tfidf_dense([["a", "b"], ["a", "c"]], vocab.tokens,
                            vocab.document_frequency, 2)
        np.testing.assert_allclose(mat.to_dense(), dense, atol=1e-12)

    def test_no_invocab_tokens_zero_row(self):
        ds = corpus_of("a b")
        vocab = build_vocabulary(ds, min_df=1)
        out_ds = corpus_of("zz yy")
        row = tfidf(out_ds, vocab).to_dense()[0]
        assert np.all(row == 0.0)

    def test_rows_unit_norm(self):
        ds = corpus_of("a a b c", "b b b", "c a")
        vocab = build_vocabulary(ds, min_df=1)
        dense = tfidf(ds, vocab).to_dense()
        for row in dense:
            norm = np.linalg.norm(row)
            assert norm == 0.0 or abs(norm - 1.0) <= 1e-9

    def test_row_indices_strictly_increasing(self):
        ds = corpus_of("d c b a", "b d")
        vocab = build_vocabulary(ds, min_df=1)
        mat = tfidf(ds, vocab)
        indptr, indices = mat.matrix.indptr, mat.matrix.indices
        for i in range(mat.matrix.shape[0]):
            assert np.all(np.diff(indices[indptr[i]:indptr[i + 1]]) > 0)

    def test_matches_dense_oracle_on_random_corpora(self):
        rng = np.random.default_rng(7)
        alphabet = [f"w{i}" for i in range(12)]
        for trial in range(25):
            n_docs = int(rng.integers(1, 8))
            docs = [" ".join(rng.choice(alphabet, size=rng.integers(1, 15)))
                    for _ in range(n_docs)]
            ds = corpus_of(*docs)
            vocab = build_vocabulary(ds, min_df=1)
            got = tfidf(ds, vocab).to_dense()
            want = tfidf_dense([d.split() for d in docs], vocab.tokens,
                               vocab.document_frequency, n_docs)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_empty_vocab_rejected(self):
        ds = corpus_of("a b")
        empty = Vocabulary(index={}, document_frequency={}, n_documents=1)
        with pytest.raises(ValueError):
            tfidf(ds, empty)


# Headline pieces: words a vocabulary may hold, words it never holds, and
# punctuation that tokenizes to nothing.
PIECES = st.sampled_from(["up", "Up", "down", "eps", "q3", "net", "sales", "oyj",
                          "zz", "qq9", ",", "!", "--", "%", "...", "_"])
TEXTS = st.lists(PIECES, min_size=1, max_size=9).map(" ".join)


class TestTfidfProperties:
    @settings(max_examples=80, deadline=None)
    @given(train=st.lists(TEXTS, min_size=1, max_size=7),
           scored=st.lists(TEXTS, max_size=7),
           min_df=st.integers(1, 2), max_size=st.sampled_from([None, 3]))
    def test_matches_dense_oracle_with_unit_rows(self, train, scored, min_df, max_size):
        vocab = build_vocabulary(corpus_of(*train), min_df=min_df, max_size=max_size)
        assume(len(vocab) > 0)
        texts = train + scored
        docs = [tokenize(t) for t in texts]
        got = tfidf(corpus_of(*texts), vocab)
        want = tfidf_dense(docs, vocab.tokens, vocab.document_frequency,
                           vocab.n_documents)
        assert got.matrix.shape == (len(texts), len(vocab))
        np.testing.assert_allclose(got.to_dense(), want, rtol=0, atol=1e-12)
        for i, tokens in enumerate(docs):
            start, end = got.matrix.indptr[i], got.matrix.indptr[i + 1]
            idx, weights = got.matrix.indices[start:end], got.matrix.data[start:end]
            assert np.all(np.diff(idx) > 0) and np.all(weights > 0)
            if any(t in vocab for t in tokens):
                assert abs(np.linalg.norm(weights) - 1.0) <= 1e-12
            else:
                assert len(idx) == 0
        from_lists = tfidf(docs, vocab).matrix
        assert (from_lists != got.matrix).nnz == 0

    def test_token_lists_give_the_dataset_results(self):
        ds = corpus_of("Profit up, EPS up", "!!", "net sales down", "zz qq")
        docs = token_lists(ds)
        assert docs == [["profit", "up", "eps", "up"], [], ["net", "sales", "down"],
                        ["zz", "qq"]]
        assert token_lists(docs) is docs
        vocab = build_vocabulary(ds, min_df=1)
        assert build_vocabulary(docs, min_df=1) == vocab
        np.testing.assert_array_equal(tfidf(docs, vocab).to_dense(),
                                      tfidf(ds, vocab).to_dense())

    def test_equal_texts_share_one_token_list_tokenized_once(self):
        ds = corpus_of("Profit up", "EPS down", "Profit up", "profit UP", "EPS down")
        with mock.patch.object(features, "tokenize", wraps=features.tokenize) as spy:
            docs = token_lists(ds)
        assert spy.call_count == 3
        assert docs[0] is docs[2] and docs[1] is docs[4]
        assert docs[3] is not docs[0]
        assert docs == [tokenize(rec.text) for rec in ds]

    def test_document_frequencies_count_repeats_and_add_up(self):
        ds = corpus_of("a b a", "b c", "!!")
        assert document_frequencies(ds) == DocumentFrequencies({"a": 1, "b": 2, "c": 1}, 3)
        once = document_frequencies(ds, [2, 3, 1])
        assert once == DocumentFrequencies({"a": 2, "b": 5, "c": 3}, 6)
        assert once + document_frequencies(corpus_of("c d")) == DocumentFrequencies(
            {"a": 2, "b": 5, "c": 4, "d": 1}, 7)
        with pytest.raises(EmptyCorpusError):
            build_vocabulary(document_frequencies([]))

    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(st.tuples(TEXTS, st.sampled_from([POS, NEU]), st.integers(1, 4)),
                         min_size=1, max_size=8, unique_by=lambda row: row[:2]),
           cut=st.integers(0, 9), relabelled=st.integers(1, 3),
           min_df=st.integers(1, 3), max_size=st.sampled_from([None, 2]))
    def test_summed_half_frequencies_give_the_vocabulary_of_every_record(
            self, rows, cut, relabelled, min_df, max_size):
        """Distinct (text, label) rows, each repeated, one text under two
        labels: the frequencies of any two halves of the rows, each row
        counted once per record, add up to every record's vocabulary."""
        rows = rows + [(rows[0][0], NEG, relabelled)]
        records = make_dataset([(text, label) for text, label, k in rows for _ in range(k)])
        halves = rows[:cut], rows[cut:]
        freq = sum((document_frequencies(make_dataset([row[:2] for row in half]),
                                         [k for _, _, k in half]) for half in halves),
                   DocumentFrequencies(Counter(), 0))
        want = build_vocabulary(records, min_df=min_df, max_size=max_size)
        got = build_vocabulary(freq, min_df=min_df, max_size=max_size)
        assert got == want and got.to_dict() == want.to_dict()

    def test_empty_corpus_gives_empty_matrix(self):
        vocab = build_vocabulary(corpus_of("a b"), min_df=1)
        mat = tfidf([], vocab)
        assert mat.matrix.shape == (0, 2) and mat.matrix.nnz == 0


def csv_writer_triplets(matrix):
    """Triplets as `csv.writer` writes them, the writer's first form."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["row", "col", "weight"])
    coo = matrix.tocoo()
    for r, c, w in zip(coo.row, coo.col, coo.data):
        writer.writerow([int(r), int(c), repr(float(w))])
    return buf.getvalue()


class TestTripletCsv:
    VALUES = [0.1, 1 / 3, 2.0, -0.5, 1e-05, 5e-324, 1.7976931348623157e308,
              0.7071067811865476, 123456789.125, -2.5e-17]

    @pytest.mark.parametrize("nnz", [0, 1, 4, 5, 6, 10, 11, 63])
    def test_byte_identical_to_csv_writer_at_slice_edges(self, nnz):
        rng = np.random.default_rng(nnz)
        cells = rng.permutation(7 * 9)[:nnz]
        values = rng.choice(self.VALUES, size=nnz)
        matrix = sp.csr_matrix((values, (cells // 9, cells % 9)), shape=(7, 9))
        assert matrix.nnz == nnz
        with mock.patch.object(features, "TRIPLET_SLICE", 5):
            text = DocTermMatrix(matrix).to_triplet_csv()
        assert text == csv_writer_triplets(matrix)

    def test_byte_identical_on_tfidf_at_the_default_slice(self):
        rng = np.random.default_rng(3)
        alphabet = [f"w{i}" for i in range(40)]
        docs = [list(rng.choice(alphabet, size=rng.integers(0, 12))) for _ in range(900)]
        mat = tfidf(docs, build_vocabulary(docs, min_df=1))
        assert mat.matrix.nnz > features.TRIPLET_SLICE
        assert mat.to_triplet_csv() == csv_writer_triplets(mat.matrix)
