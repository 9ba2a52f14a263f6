import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsent import _fork, augment
from finsent.augment import (
    AugmentConfig,
    SynonymLexicon,
    augment_dataset,
    bundled_lexicon,
    parse_lexicon,
    random_deletion,
    random_insertion,
    random_swap,
    synonym_replace,
)
from finsent.corpus import LABELS, class_counts

from conftest import NEG, NEU, POS, make_dataset


def rng(seed=0):
    return np.random.default_rng(seed)


class TestLexicon:
    def test_parse_comments_and_blanks(self):
        lex = parse_lexicon("# comment\n\nprofit: gain, earnings  # inline\n"
                            "rose: climbed\n")
        assert lex.synonyms("profit") == ("gain", "earnings")
        assert lex.synonyms("rose") == ("climbed",)
        assert len(lex) == 2

    def test_lookup_is_lowercased(self):
        lex = parse_lexicon("profit: gain\n")
        assert "Profit" in lex
        assert lex.synonyms("PROFIT") == ("gain",)

    def test_rejects_self_reference(self):
        with pytest.raises(ValueError, match="itself"):
            SynonymLexicon({"profit": ("profit",)})

    def test_rejects_empty_synonym_list(self):
        with pytest.raises(ValueError):
            SynonymLexicon({"profit": ()})
        with pytest.raises(ValueError, match="line 1"):
            parse_lexicon("profit:\n")

    def test_rejects_missing_colon(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_lexicon("profit gain\n")

    def test_bundled_lexicon_invariants(self):
        lex = bundled_lexicon()
        assert len(lex) >= 200
        for head, syns in lex.entries.items():
            assert head == head.lower()
            assert syns
            assert head not in syns
            assert all(s == s.lower() for s in syns)


class TestSynonymReplace:
    def test_n_zero_identity(self, small_lexicon):
        toks = ["profit", "rose"]
        assert synonym_replace(toks, 0, small_lexicon, rng()) == toks

    def test_single_candidate_single_synonym(self, small_lexicon):
        out = synonym_replace(["profit", "up"], 1,
                              SynonymLexicon({"profit": ("gain",)}), rng())
        assert out == ["gain", "up"]

    def test_no_token_in_lexicon_identity(self, small_lexicon):
        toks = ["totally", "unknown", "words"]
        assert synonym_replace(toks, 3, small_lexicon, rng()) == toks

    def test_hamming_distance_at_most_n(self, small_lexicon):
        toks = ["profit", "rose", "profit", "fell", "shares", "x"]
        for n in range(6):
            for seed in range(5):
                out = synonym_replace(toks, n, small_lexicon, rng(seed))
                assert len(out) == len(toks)
                changed = sum(a != b for a, b in zip(toks, out))
                assert changed <= n

    def test_replacement_is_a_synonym_of_original(self, small_lexicon):
        toks = ["profit", "rose", "plain"]
        for seed in range(20):
            out = synonym_replace(toks, 2, small_lexicon, rng(seed))
            for before, after in zip(toks, out):
                if before != after:
                    assert after in small_lexicon.synonyms(before)

    def test_capitalized_token_uses_lowercase_entry(self):
        lex = SynonymLexicon({"profit": ("gain",)})
        assert synonym_replace(["Profit"], 1, lex, rng()) == ["gain"]


class TestRandomInsertion:
    def test_n_zero_identity(self, small_lexicon):
        assert random_insertion(["shares", "fell"], 0, small_lexicon, rng()) == \
            ["shares", "fell"]

    def test_inserts_synonym_preserving_order(self):
        lex = SynonymLexicon({"shares": ("stock",)})
        for seed in range(10):
            out = random_insertion(["shares", "fell"], 1, lex, rng(seed))
            assert len(out) == 3
            assert out.count("stock") + out.count("shares") + out.count("fell") == 3
            without = [t for t in out if t != "stock"] if "stock" in out else out
            # removing one inserted copy leaves the original order
            copy = list(out)
            copy.remove("stock")
            assert copy == ["shares", "fell"]
            assert out in (["stock", "shares", "fell"],
                           ["shares", "stock", "fell"],
                           ["shares", "fell", "stock"])

    def test_empty_lexicon_identity(self):
        lex = SynonymLexicon({})
        assert random_insertion(["a", "b"], 3, lex, rng()) == ["a", "b"]

    def test_length_grows_by_at_most_n(self, small_lexicon):
        toks = ["profit", "plain"]
        for n in range(4):
            out = random_insertion(toks, n, small_lexicon, rng(1))
            assert len(toks) <= len(out) <= len(toks) + n


class TestRandomDeletion:
    def test_p_zero_identity(self):
        toks = ["a", "b", "c"]
        assert random_deletion(toks, 0.0, rng()) == toks

    def test_p_one_keeps_exactly_one(self):
        toks = ["a", "b", "c", "d"]
        for seed in range(20):
            out = random_deletion(toks, 1.0, rng(seed))
            assert len(out) == 1
            assert out[0] in toks

    def test_never_empty_for_nonempty_input(self):
        for seed in range(50):
            assert random_deletion(["x"], 1.0, rng(seed)) == ["x"]

    def test_empty_input_stays_empty(self):
        assert random_deletion([], 0.5, rng()) == []

    def test_order_preserved(self):
        toks = [str(i) for i in range(20)]
        for seed in range(10):
            out = random_deletion(toks, 0.4, rng(seed))
            assert out == sorted(out, key=int)

    def test_survival_mean_matches_binomial(self):
        toks = [str(i) for i in range(10)]
        total = 0
        trials = 10_000
        stream = rng(123)
        for _ in range(trials):
            total += len(random_deletion(toks, 0.5, stream))
        assert abs(total / trials - 5.0) <= 0.2

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            random_deletion(["a"], 1.5, rng())


class TestRandomSwap:
    def test_n_zero_identity(self):
        assert random_swap(["a", "b"], 0, rng()) == ["a", "b"]

    def test_short_input_identity(self):
        assert random_swap(["solo"], 5, rng()) == ["solo"]
        assert random_swap([], 5, rng()) == []

    def test_two_tokens_one_swap(self):
        assert random_swap(["a", "b"], 1, rng()) == ["b", "a"]

    def test_multiset_preserved(self):
        toks = ["a", "b", "b", "c", "d"]
        for n in (1, 3, 10):
            for seed in range(10):
                out = random_swap(toks, n, rng(seed))
                assert Counter(out) == Counter(toks)

    def test_positions_distinct(self):
        # a single swap always changes a 2+ sequence of distinct tokens
        toks = ["a", "b", "c"]
        for seed in range(20):
            assert random_swap(toks, 1, rng(seed)) != toks


class TestAugmentDataset:
    def corpus(self):
        return make_dataset([
            ("Profit rose clearly", POS),
            ("The firm operates in Finland", NEU),
            ("Sales fell sharply", NEG),
        ])

    def test_zero_copies_identity(self, small_lexicon):
        ds = self.corpus()
        out = augment_dataset(ds, AugmentConfig(copies_per_record=0), small_lexicon)
        assert [(r.text, r.label) for r in out] == [(r.text, r.label) for r in ds]

    def test_copy_count_and_class_counts(self, small_lexicon):
        rows = [(f"profit rose in quarter {i}", POS) for i in range(4)] \
            + [(f"sales fell in region {i}", NEG) for i in range(4)] \
            + [(f"the meeting is on day {i}", NEU) for i in range(2)]
        ds = make_dataset(rows)
        out = augment_dataset(ds, AugmentConfig(copies_per_record=2, seed=3),
                              small_lexicon)
        assert len(out) == 30
        src = class_counts(ds)
        got = class_counts(out)
        assert all(got[lab] == 3 * src[lab] for lab in src)

    def test_identity_composition_at_zero_magnitudes(self, small_lexicon):
        ds = self.corpus()
        cfg = AugmentConfig(n_replace=0, n_insert=0, p_delete=0.0, n_swap=0,
                            copies_per_record=1)
        out = augment_dataset(ds, cfg, small_lexicon)
        assert len(out) == 6
        for i, rec in enumerate(ds):
            assert out[2 * i].text == rec.text
            assert out[2 * i + 1].text == rec.text

    def test_original_followed_by_variants(self, small_lexicon):
        ds = self.corpus()
        out = augment_dataset(ds, AugmentConfig(copies_per_record=2, seed=1),
                              small_lexicon)
        assert len(out) == 9
        for i, rec in enumerate(ds):
            group = out[3 * i: 3 * i + 3]
            assert group[0].text == rec.text
            assert all(g.label is rec.label for g in group)

    def test_label_preservation_exhaustive(self):
        lex = bundled_lexicon()
        ds = make_dataset([(f"profit rose {i} and sales fell", POS) for i in range(10)]
                          + [(f"orders declined {i} on weak demand", NEG)
                             for i in range(10)]
                          + [(f"the report is due on day {i}", NEU)
                             for i in range(10)])
        out = augment_dataset(ds, AugmentConfig(copies_per_record=3, seed=8), lex)
        for i, rec in enumerate(ds):
            for variant in out[4 * i: 4 * i + 4]:
                assert variant.label is rec.label

    def test_deterministic(self, small_lexicon):
        ds = self.corpus()
        cfg = AugmentConfig(n_replace=2, n_insert=1, p_delete=0.3, n_swap=2,
                            copies_per_record=2, seed=77)
        a = augment_dataset(ds, cfg, small_lexicon)
        b = augment_dataset(ds, cfg, small_lexicon)
        assert [(r.text, r.label) for r in a] == [(r.text, r.label) for r in b]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            AugmentConfig(n_replace=-1)
        with pytest.raises(ValueError):
            AugmentConfig(p_delete=1.5)

    LEXICON = bundled_lexicon()
    # Lexicon heads, so that replacement and insertion fire, and other words.
    WORDS = st.one_of(st.sampled_from(sorted(LEXICON.entries)[:40]),
                      st.text(st.characters(categories=("L", "N", "P")),
                              min_size=1, max_size=8))

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(st.lists(WORDS, min_size=1, max_size=8),
                                   st.sampled_from([" ", "  ", "\t"]),
                                   st.sampled_from(LABELS)), min_size=1, max_size=6),
           counts=st.tuples(*[st.integers(0, 3)] * 4),
           p_delete=st.sampled_from([0.0, 0.3, 0.7, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_every_variant_keeps_its_label_and_has_text(self, rows, counts, p_delete,
                                                        seed):
        ds = make_dataset([(sep.join(words), label) for words, sep, label in rows])
        n_replace, n_insert, n_swap, copies = counts
        cfg = AugmentConfig(n_replace=n_replace, n_insert=n_insert, p_delete=p_delete,
                            n_swap=n_swap, copies_per_record=copies, seed=seed)
        out = augment_dataset(ds, cfg, self.LEXICON)
        assert len(out) == len(ds) * (1 + copies)
        for i, rec in enumerate(ds):
            group = out[i * (1 + copies):(i + 1) * (1 + copies)]
            assert group[0] == rec
            for variant in group[1:]:
                assert variant.label is rec.label
                tokens = variant.text.split()
                assert tokens and variant.text.strip()
                assert variant.text in (rec.text, " ".join(tokens))
                if p_delete == 1.0:
                    assert len(tokens) == 1


class WorkerFault(Exception):
    """A fault raised inside an augmentation range."""


class UnpicklableFault(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle")


class TestForkedAugmentDataset:
    """Ranges augmented in forked children give the inline result."""

    WORDS = ("profit rose", "shares fell", "sales rose sharply", "the firm operates",
             "profit and shares climbed", "orders fell on demand")

    def corpus(self, n):
        labels = (POS, NEU, NEG)
        return make_dataset([(f"{self.WORDS[i % len(self.WORDS)]} item {i}", labels[i % 3])
                             for i in range(n)])

    @pytest.fixture
    def forks(self, monkeypatch):
        """Pids of the children forked during a test; all reaped at its end."""
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

    def force(self, monkeypatch, cpus, min_records=1):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(augment, "FORK_MIN_RECORDS", min_records)

    def inline(self, ds, cfg, lexicon, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(_fork, "usable_cpus", lambda: 1)
            return augment_dataset(ds, cfg, lexicon)

    @staticmethod
    def rows(ds):
        return [(r.text, r.label) for r in ds]

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("copies", [0, 1, 3])
    def test_equals_inline(self, small_lexicon, monkeypatch, forks, workers, copies):
        ds = self.corpus(20)
        cfg = AugmentConfig(n_replace=2, p_delete=0.3, n_swap=2,
                            copies_per_record=copies, seed=5)
        want = self.inline(ds, cfg, small_lexicon, monkeypatch)
        self.force(monkeypatch, workers)
        got = augment_dataset(ds, cfg, small_lexicon)
        assert len(forks) == workers - 1
        assert self.rows(got) == self.rows(want)

    @pytest.mark.parametrize("n, min_records, n_forks", [
        (0, 1, 0), (1, 1, 0), (2, 1, 1),      # fewer records than workers
        (5, 2, 1),                             # two ranges of at least 2
        (6, 1, 2), (7, 1, 2), (8, 1, 2),       # every remainder of n / 3
    ])
    def test_range_boundaries(self, small_lexicon, monkeypatch, forks, n, min_records,
                              n_forks):
        ds = self.corpus(n)
        cfg = AugmentConfig(copies_per_record=2, seed=9)
        want = self.inline(ds, cfg, small_lexicon, monkeypatch)
        self.force(monkeypatch, 3, min_records)
        assert self.rows(augment_dataset(ds, cfg, small_lexicon)) == self.rows(want)
        assert len(forks) == n_forks

    def failing_swap(self, monkeypatch, marker, exc):
        real_swap = augment.random_swap

        def swap(tokens, n, rng):
            if marker in tokens:
                raise exc
            return real_swap(tokens, n, rng)

        monkeypatch.setattr(augment, "random_swap", swap)

    @pytest.mark.parametrize("exc", [ValueError("bad token run"), WorkerFault("no luck")])
    def test_child_exception_reaches_parent(self, small_lexicon, monkeypatch, forks, exc):
        ds = self.corpus(9)
        self.failing_swap(monkeypatch, "8", exc)   # the last record: the last child's range
        cfg = AugmentConfig(seed=2)
        with pytest.raises(type(exc)) as inline:
            self.inline(ds, cfg, small_lexicon, monkeypatch)
        self.force(monkeypatch, 3)
        with pytest.raises(type(exc)) as forked:
            augment_dataset(ds, cfg, small_lexicon)
        assert len(forks) == 2
        assert type(forked.value) is type(inline.value)
        assert str(forked.value) == str(inline.value)

    def test_child_without_result_is_an_error(self, small_lexicon, monkeypatch, forks):
        self.failing_swap(monkeypatch, "8", UnpicklableFault("odd"))
        self.force(monkeypatch, 3)
        with pytest.raises(RuntimeError, match="ended without a result"):
            augment_dataset(self.corpus(9), AugmentConfig(seed=2), small_lexicon)

    def test_children_reaped_when_parent_range_raises(self, small_lexicon, monkeypatch,
                                                      forks):
        # Each child's result (~150 kB) outgrows a pipe's buffer, so the
        # children block on a parent that will never read.
        long = make_dataset([(f"item {i} " + "profit rose " * 20, POS) for i in range(3000)])
        self.failing_swap(monkeypatch, "0", WorkerFault("first range"))
        self.force(monkeypatch, 3)
        with pytest.raises(WorkerFault, match="first range"):
            augment_dataset(long, AugmentConfig(seed=2), small_lexicon)
        assert len(forks) == 2   # the fixture checks that both were reaped

    def test_small_input_never_forks(self, small_lexicon, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(_fork, "usable_cpus", lambda: 64)
        monkeypatch.setattr(os, "fork", no_fork)
        out = augment_dataset(self.corpus(45), AugmentConfig(seed=7), small_lexicon)
        assert len(out) == 90

    def test_without_os_fork_runs_inline(self, small_lexicon, monkeypatch):
        ds = self.corpus(2 * augment.FORK_MIN_RECORDS)
        cfg = AugmentConfig(seed=4)
        want = self.inline(ds, cfg, small_lexicon, monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delattr(os, "fork")
        assert self.rows(augment_dataset(ds, cfg, small_lexicon)) == self.rows(want)
