from collections import Counter

import numpy as np
import pytest

from finsent.analysis import (
    FIELD_NAMES,
    bundled_stopwords,
    class_distribution,
    correlation_matrix,
    feature_matrix,
    keyword_frequencies,
    load_stopwords,
)
from finsent.corpus import LABELS, Dataset
from finsent.features import tokenize

from conftest import NEG, NEU, POS, make_dataset
from oracles import pearson_dense


class TestClassDistribution:
    def test_uniform(self):
        ds = make_dataset([("a b", POS), ("c d", NEU), ("e f", NEG)])
        counts, props = class_distribution(ds)
        assert list(counts.values()) == [1, 1, 1]
        np.testing.assert_allclose(list(props.values()), [1/3, 1/3, 1/3])

    def test_two_two_one(self, five_line_corpus):
        _, props = class_distribution(five_line_corpus)
        np.testing.assert_allclose(list(props.values()), [0.4, 0.4, 0.2])

    def test_single_class(self):
        ds = make_dataset([("a b", POS), ("c d", POS)])
        counts, props = class_distribution(ds)
        assert list(counts.values()) == [2, 0, 0]
        assert list(props.values()) == [1.0, 0.0, 0.0]

    def test_proportions_sum_to_one(self, five_line_corpus):
        _, props = class_distribution(five_line_corpus)
        assert abs(sum(props.values()) - 1.0) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            class_distribution(Dataset(()))


def surface(text):
    """The feature_matrix row of a one-record dataset, by field name."""
    row = feature_matrix(make_dataset([(text, POS)]))[0].tolist()
    return dict(zip(FIELD_NAMES, row))


class TestDerivedFeatures:
    def test_ab12(self):
        f = surface("AB12")
        assert f["char_len"] == 4
        assert f["digit_ratio"] == 0.5
        assert f["uppercase_ratio"] == 0.5
        assert f["token_count"] == 1
        assert f["avg_token_len"] == 4.0

    def test_plain_lowercase(self):
        f = surface("abc")
        assert f["digit_ratio"] == 0.0
        assert f["uppercase_ratio"] == 0.0

    def test_avg_token_len(self):
        f = surface("ab cdef")
        assert f["token_count"] == 2
        assert f["avg_token_len"] == 3.0

    def test_ratios_in_unit_interval(self, five_line_corpus):
        X = feature_matrix(five_line_corpus)
        for name in ("digit_ratio", "uppercase_ratio"):
            col = X[:, FIELD_NAMES.index(name)]
            assert np.all((0.0 <= col) & (col <= 1.0))

    def test_feature_matrix_shape(self, five_line_corpus):
        X = feature_matrix(five_line_corpus)
        assert X.shape == (5, len(FIELD_NAMES))

    @pytest.mark.parametrize("text", ["Ä² rose ٣ Öl-Preis x²", "ÄÖÜ", "٣٤٥ ²³", "a_b 7"])
    def test_matches_per_character_sums(self, text):
        """Non-ASCII digits and capitals count as the per-character tests say."""
        toks = tokenize(text)
        f = surface(text)
        assert f["avg_token_len"] == sum(len(t) for t in toks) / len(toks)
        assert f["digit_ratio"] == sum(c.isdigit() for c in text) / len(text)
        assert f["uppercase_ratio"] == sum(c.isupper() for c in text) / len(text)


class TestCorrelationMatrix:
    def test_duplicated_column_correlates_one(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=30)
        X = np.column_stack([col, col])
        res = correlation_matrix(X)
        assert res.matrix[0, 1] == pytest.approx(1.0)

    def test_negated_column(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=30)
        res = correlation_matrix(np.column_stack([col, -col]))
        assert res.matrix[0, 1] == pytest.approx(-1.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 3))
        res = correlation_matrix(X)
        np.testing.assert_allclose(res.matrix, pearson_dense(X), atol=1e-12)

    def test_symmetric_unit_diagonal_bounded(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 5))
        res = correlation_matrix(X)
        np.testing.assert_allclose(res.matrix, res.matrix.T, atol=1e-15)
        np.testing.assert_allclose(np.diag(res.matrix), 1.0)
        assert np.all(res.matrix >= -1.0) and np.all(res.matrix <= 1.0)

    def test_constant_column_flagged_zero(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([rng.normal(size=20), np.full(20, 3.7)])
        res = correlation_matrix(X)
        assert res.constant_columns.tolist() == [False, True]
        assert res.matrix[0, 1] == 0.0
        assert res.matrix[1, 0] == 0.0
        assert res.matrix[1, 1] == 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 3))
        Y = X.copy()
        Y[:, 1] = 4.0 * Y[:, 1] + 10.0  # positive scale + shift
        a = correlation_matrix(X).matrix
        b = correlation_matrix(Y).matrix
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_negative_scale_flips_sign(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 2))
        Y = X.copy()
        Y[:, 1] *= -2.0
        a = correlation_matrix(X).matrix
        b = correlation_matrix(Y).matrix
        assert b[0, 1] == pytest.approx(-a[0, 1], abs=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            correlation_matrix(np.zeros((1, 3)))


class TestKeywordFrequencies:
    def test_top_k_larger_than_vocab(self):
        ds = make_dataset([("profit profit rose", POS)])
        freq = keyword_frequencies(ds, top_k=100)
        assert freq[POS] == [("profit", 2), ("rose", 1)]

    def test_ranked_counts(self):
        ds = make_dataset([("profit profit rose", POS), ("profit fell", POS)])
        freq = keyword_frequencies(ds, top_k=1)
        assert freq[POS] == [("profit", 3)]

    def test_all_stopworded(self):
        ds = make_dataset([("the and of", POS)])
        freq = keyword_frequencies(ds, top_k=5, stopwords={"the", "and", "of"})
        assert freq[POS] == []

    def test_ties_break_alphabetically(self):
        ds = make_dataset([("zeta alpha", NEU)])
        freq = keyword_frequencies(ds, top_k=2)
        assert freq[NEU] == [("alpha", 1), ("zeta", 1)]

    def test_counts_bounded_by_class_tokens(self, five_line_corpus):
        stop = bundled_stopwords()
        freq = keyword_frequencies(five_line_corpus, top_k=50, stopwords=stop)
        from finsent.features import tokenize
        for lab, ranked in freq.items():
            class_tokens = sum(
                len([t for t in tokenize(r.text) if t not in stop])
                for r in five_line_corpus if r.label is lab)
            assert sum(c for _, c in ranked) <= class_tokens

    @pytest.mark.parametrize("stopwords", [set(), {"the", "of"}, {"absent", "words"},
                                           {"the", "absent", "profit"}])
    def test_matches_filter_then_count(self, five_line_corpus, stopwords):
        """Stopwords dropped after counting give the counts of filtering first."""
        freq = keyword_frequencies(five_line_corpus, top_k=50, stopwords=stopwords)
        for lab in LABELS:
            counter = Counter(t for r in five_line_corpus if r.label is lab
                              for t in tokenize(r.text) if t not in stopwords)
            assert freq[lab] == sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))

    def test_invalid_top_k(self):
        with pytest.raises(ValueError):
            keyword_frequencies(Dataset(()), top_k=0)


class TestStopwords:
    def test_bundled_size(self):
        stop = bundled_stopwords()
        assert 100 <= len(stop) <= 150
        assert "the" in stop

    def test_load_custom(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nfoo\nBAR\n\n")
        assert load_stopwords(path) == {"foo", "bar"}
