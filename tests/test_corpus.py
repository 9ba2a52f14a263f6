import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finsent.corpus import (
    ENCODINGS,
    FORMATS,
    LABELS,
    Dataset,
    EmptyCorpusError,
    HeadlineRecord,
    ParseError,
    SentimentLabel,
    class_counts,
    parse_corpus,
    serialize_dataset,
    stratified_split,
    _quotas,
    upsample,
)

from conftest import NEG, NEU, POS, make_dataset


def counts_tuple(ds):
    return tuple(class_counts(ds).values())


class TestSentimentLabel:
    def test_parse_case_insensitive(self):
        assert SentimentLabel.parse("Positive") is POS
        assert SentimentLabel.parse("  NEUTRAL ") is NEU
        assert SentimentLabel.parse("negative") is NEG

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            SentimentLabel.parse("bullish")

    def test_parse_error_names_the_word_as_given(self):
        with pytest.raises(ValueError) as exc:
            SentimentLabel.parse(" Bogus ")
        assert str(exc.value) == "unknown sentiment label: ' Bogus '"

    def test_canonical_order(self):
        assert LABELS == (POS, NEU, NEG)
        assert [lab.index for lab in LABELS] == [0, 1, 2]


class TestParseCorpus:
    def test_csv_label_first_with_unquoted_comma(self):
        raw = b"neutral,According to Gran , the company has no plans to move production\n"
        ds = parse_corpus(raw, format="csv_label_first")
        assert len(ds) == 1
        assert ds[0].label is NEU
        assert ds[0].text == "According to Gran , the company has no plans to move production"

    def test_csv_headered_skips_header(self):
        raw = b"Sentiment,Headline\npositive,Profit rose\n"
        ds = parse_corpus(raw, format="csv_headered")
        assert len(ds) == 1
        assert ds[0].label is POS

    def test_at_separated(self):
        raw = "Sales fell sharply .@negative\nProfit up@positive\n".encode()
        ds = parse_corpus(raw, format="at_separated")
        assert [r.label for r in ds] == [NEG, POS]
        assert ds[0].text == "Sales fell sharply ."

    def test_at_separated_splits_only_at_line_ends(self):
        raw = b"Shares fall\x85 again@negative\r\nForm\x0cfeed\x1cnow@neutral\rUp@positive"
        ds = parse_corpus(raw, format="at_separated", encoding="latin1")
        assert [(r.text, r.label) for r in ds] == [
            ("Shares fall\x85 again", NEG), ("Form\x0cfeed\x1cnow", NEU), ("Up", POS)]
        with pytest.raises(ParseError, match="row 3"):
            parse_corpus("a@positive\r\n\n\u2028x\r\n".encode(),
                         format="at_separated")

    def test_latin1_decoding(self):
        raw = "neutral,Caf\xe9 chain reports results\n".encode("latin-1")
        ds = parse_corpus(raw, format="csv_label_first", encoding="latin1")
        assert "Caf\xe9" in ds[0].text

    def test_undecodable_utf8_reports_offset(self):
        raw = b"neutral,Caf\xe9 chain\n"
        with pytest.raises(ParseError, match="undecodable"):
            parse_corpus(raw, format="csv_label_first", encoding="utf8")

    def test_empty_input_raises(self):
        with pytest.raises(EmptyCorpusError):
            parse_corpus(b"", format="csv_label_first")

    def test_unknown_label_reports_row(self):
        raw = b"positive,Fine headline\nbogus,Broken row\n"
        with pytest.raises(ParseError, match="row 2"):
            parse_corpus(raw, format="csv_label_first")

    def test_unbalanced_quote_names_the_row_it_opened_in(self):
        rows = "positive,\"Shares rise\nnegative,Sales fell\nneutral,Report due\n"
        with pytest.raises(ParseError, match="^row 2: .*unexpected end of data"):
            parse_corpus("sentiment,headline\n" + rows, format="csv_headered")
        with pytest.raises(ParseError, match="^row 1: .*unexpected end of data"):
            parse_corpus(rows, format="csv_label_first")

    def test_missing_field(self):
        with pytest.raises(ParseError, match="row 1"):
            parse_corpus(b"positive\n", format="csv_label_first")
        with pytest.raises(ParseError, match="row 1"):
            parse_corpus(b"no separator here\n", format="at_separated")

    def test_empty_headline_rejected(self):
        with pytest.raises(ParseError, match="empty headline"):
            parse_corpus(b"positive,   \n", format="csv_label_first")

    def test_accepts_binary_stream(self):
        ds = parse_corpus(io.BytesIO(b"negative,Loss widened\n"),
                          format="csv_label_first")
        assert len(ds) == 1

    def test_five_line_synthetic_counts(self):
        raw = ("positive,Profit rose clearly\n"
               "positive,Orders grew in all regions\n"
               "neutral,The meeting is on Monday\n"
               "neutral,The firm operates in Finland\n"
               "negative,Sales fell sharply\n").encode()
        ds = parse_corpus(raw, format="csv_label_first")
        assert counts_tuple(ds) == (2, 2, 1)


class TestSerializeRoundTrip:
    def test_round_trip_identity(self, five_line_corpus):
        text = serialize_dataset(five_line_corpus)
        assert text.startswith("sentiment,headline\n")
        back = parse_corpus(text.encode(), format="csv_headered")
        assert [(r.text, r.label) for r in back] == \
            [(r.text, r.label) for r in five_line_corpus]

    def test_round_trip_with_commas_and_quotes(self):
        ds = make_dataset([
            ('Revenue climbed 12 %, beating "analyst" estimates', POS),
            ("Plain headline", NEU),
            ("Loss, loss, loss", NEG),
            ("Shares fell\rsharply", NEG),  # a bare \r, which csv quotes only in full
        ])
        back = parse_corpus(serialize_dataset(ds).encode(), format="csv_headered")
        assert [(r.text, r.label) for r in back] == [(r.text, r.label) for r in ds]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), fmt=st.sampled_from(FORMATS),
           rows=st.lists(st.tuples(st.one_of(st.text(st.characters(codec="latin-1")),
                                             st.text()),
                                   st.sampled_from(LABELS)), min_size=1, max_size=6))
    def test_written_corpus_parses_back_equal(self, data, fmt, rows):
        """Records written in any format, in any encoding that can represent
        them, parse back equal.  Headlines carry no surrounding whitespace,
        which parsing strips, and an '@'-separated one no line break."""
        breaks = "\r\n" if fmt == "at_separated" else ""
        rows = [(text, label) for text, label in rows
                if text.strip() == text != "" and not set(breaks) & set(text)]
        assume(rows)
        ds = make_dataset(rows)
        if fmt == "at_separated":
            end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
            text = "".join(f"{rec.text}@{rec.label.value}{end}" for rec in ds)
        else:
            text = serialize_dataset(ds)
            if fmt == "csv_label_first":
                text = text.split("\n", 1)[1]
        for encoding, codec in zip(ENCODINGS, ("utf-8", "latin-1")):
            try:
                raw = text.encode(codec)
            except UnicodeEncodeError:
                continue
            back = parse_corpus(raw, format=fmt, encoding=encoding)
            assert [(r.text, r.label) for r in back] == rows


class TestClassCounts:
    def test_empty(self):
        assert counts_tuple(Dataset(())) == (0, 0, 0)

    def test_one_per_class(self):
        ds = make_dataset([("a b", POS), ("c d", NEU), ("e f", NEG)])
        assert counts_tuple(ds) == (1, 1, 1)

    def test_counts_sum_to_total(self, five_line_corpus):
        assert counts_tuple(five_line_corpus) == (2, 2, 1)
        assert sum(counts_tuple(five_line_corpus)) == len(five_line_corpus)


def balanced_corpus(per_class, prefix="h"):
    rows = []
    for k, lab in enumerate(LABELS):
        rows.extend((f"{prefix} {lab.value} headline {i}", lab)
                    for i in range(per_class))
    return make_dataset(rows)


class TestStratifiedSplit:
    def test_balanced_900_gives_100_per_class(self):
        ds = balanced_corpus(300)
        train, test = stratified_split(ds, 300, 300, seed=7)
        assert counts_tuple(train) == (100, 100, 100)
        assert counts_tuple(test) == (100, 100, 100)

    def test_disjoint_by_identity(self):
        ds = balanced_corpus(300)
        train, test = stratified_split(ds, 300, 300, seed=7)
        train_texts = {r.text for r in train}
        assert all(r.text not in train_texts for r in test)

    def test_deterministic(self):
        ds = balanced_corpus(30)
        a = stratified_split(ds, 30, 30, seed=11)
        b = stratified_split(ds, 30, 30, seed=11)
        assert [(r.text, r.label) for r in a[0]] == [(r.text, r.label) for r in b[0]]
        assert [(r.text, r.label) for r in a[1]] == [(r.text, r.label) for r in b[1]]

    def test_different_seed_differs(self):
        ds = balanced_corpus(30)
        a, _ = stratified_split(ds, 30, 30, seed=1)
        b, _ = stratified_split(ds, 30, 30, seed=2)
        assert [r.text for r in a] != [r.text for r in b]

    def test_full_train_is_permutation(self, five_line_corpus):
        train, test = stratified_split(five_line_corpus, 5, 0, seed=3)
        assert len(test) == 0
        assert sorted(r.text for r in train) == \
            sorted(r.text for r in five_line_corpus)

    def test_proportions_within_one_record(self):
        rows = ([("p %d" % i, POS) for i in range(30)]
                + [("n %d" % i, NEU) for i in range(20)]
                + [("g %d" % i, NEG) for i in range(10)])
        ds = make_dataset(rows)
        train, test = stratified_split(ds, 30, 30, seed=5)
        for got in (counts_tuple(train), counts_tuple(test)):
            for value, expected in zip(got, (15, 10, 5)):
                assert abs(value - expected) <= 1

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 400), min_size=3, max_size=3), st.integers(0, 1200))
    def test_quotas_are_largest_remainder(self, counts, total):
        """Quotas sum to `total`, each within one record of its proportional
        share; the leftover slots go to the largest remainders, ties to the
        class first in canonical label order."""
        n = sum(counts)
        assume(n > 0)
        quotas = _quotas(counts, total)
        assert sum(quotas) == total
        shares = [Fraction(total * c, n) for c in counts]
        assert all(abs(q - share) < 1 for q, share in zip(quotas, shares))
        rems = [share - (total * c // n) for share, c in zip(shares, counts)]
        bumped = [q > total * c // n for q, c in zip(quotas, counts)]
        for i in range(3):
            for j in range(3):
                if bumped[i] and not bumped[j]:
                    assert (rems[i], -i) > (rems[j], -j)

    def test_union_never_exceeds_source_counts(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            counts = rng.integers(1, 15, size=3)
            rows = [(f"t{trial} c{k} i{i}", LABELS[k])
                    for k in range(3) for i in range(counts[k])]
            ds = make_dataset(rows)
            total = int(counts.sum())
            train_total = int(rng.integers(0, total + 1))
            test_total = int(rng.integers(0, total - train_total + 1))
            try:
                train, test = stratified_split(ds, train_total, test_total,
                                               seed=trial)
            except ValueError:
                continue  # per-class quota infeasible for this draw
            src = counts_tuple(ds)
            tr, te = counts_tuple(train), counts_tuple(test)
            assert all(a + b <= s for a, b, s in zip(tr, te, src))
            texts = [r.text for r in train] + [r.text for r in test]
            assert len(texts) == len(set(texts))

    def test_insufficient_total(self, five_line_corpus):
        with pytest.raises(ValueError, match="insufficient"):
            stratified_split(five_line_corpus, 4, 2, seed=0)

    def test_insufficient_within_class(self):
        ds = make_dataset([("a b", POS), ("c d", POS), ("e f", NEU), ("g h", NEG)])
        with pytest.raises(ValueError, match="insufficient"):
            stratified_split(ds, 2, 2, seed=0)

    def test_absent_class(self):
        ds = make_dataset([("a b", POS), ("c d", POS)])
        with pytest.raises(ValueError, match="absent"):
            stratified_split(ds, 1, 1, seed=0)


class TestUpsample:
    def test_balanced_input_at_target_is_permutation(self):
        ds = balanced_corpus(50)
        out = upsample(ds, 50, seed=1)
        assert counts_tuple(out) == (50, 50, 50)
        assert sorted(r.text for r in out) == sorted(r.text for r in ds)

    def test_already_at_target(self):
        ds = balanced_corpus(10)
        assert counts_tuple(upsample(ds, 10, seed=0)) == (10, 10, 10)

    def test_mixed_under_and_over(self):
        rows = ([("p %d" % i, POS) for i in range(5)]
                + [("n %d" % i, NEU) for i in range(2)]
                + [("g 0", NEG)])
        ds = make_dataset(rows)
        out = upsample(ds, 5, seed=9)
        assert counts_tuple(out) == (5, 5, 5)
        source_texts = {r.text for r in ds}
        assert all(r.text in source_texts for r in out)

    def test_deterministic(self):
        ds = balanced_corpus(4)
        a = upsample(ds, 9, seed=5)
        b = upsample(ds, 9, seed=5)
        assert [r.text for r in a] == [r.text for r in b]

    def test_absent_class_rejected(self):
        ds = make_dataset([("a b", POS), ("c d", NEU)])
        with pytest.raises(ValueError, match="absent"):
            upsample(ds, 3, seed=0)

    def test_random_inputs_hit_target_exactly(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            counts = rng.integers(1, 12, size=3)
            rows = [(f"u{trial} c{k} i{i}", LABELS[k])
                    for k in range(3) for i in range(counts[k])]
            target = int(rng.integers(1, 15))
            out = upsample(make_dataset(rows), target, seed=trial)
            assert counts_tuple(out) == (target, target, target)

    def test_subsampling_has_no_duplicates(self):
        ds = balanced_corpus(10)
        out = upsample(ds, 6, seed=2)
        texts = [r.text for r in out]
        assert len(texts) == len(set(texts)) == 18


class TestRecordInvariants:
    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            HeadlineRecord("   ", POS)
