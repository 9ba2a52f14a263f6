"""Seeded input generators for the synthetic workloads.

Both generators recombine same-class headlines of the bundled corpus, so a
record's label stays true to its text.  They are the benchmark's own code:
the program only ever sees the CSV they write.
"""
from __future__ import annotations

import csv
import random
import re
import statistics
from pathlib import Path

LABEL_WORDS = ("positive", "neutral", "negative")

# The same token rule as the program's tokenizer (maximal runs of Unicode
# letters and digits, lowercased), so length limits hold for the encoder.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# encoder_long: records of 1-5 joined headlines, never over the encoder's
# 64-position window, so no record is truncated.
LONG_MAX_TOKENS = 64
# The default encoder window; the share of records longer than this is the
# share that a 24-position model would truncate.
SHORT_WINDOW = 24

# linear_bulk: class shares of the generated corpus.  Neutral dominates, as in
# real headline corpora, so `upsample` has work to do.
BULK_SHARES = {"positive": 0.3, "neutral": 0.5, "negative": 0.2}
BULK_FRAGMENTS = 3


def tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def read_bundled(path: Path) -> dict[str, list[str]]:
    """Headlines of the bundled 'sentiment,headline' CSV, grouped by label."""
    by_label: dict[str, list[str]] = {w: [] for w in LABEL_WORDS}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            by_label[row[0]].append(",".join(row[1:]))
    return by_label


def encoder_long(by_label: dict[str, list[str]], n_records: int,
                 seed: int) -> list[tuple[str, str]]:
    """`n_records` balanced records, each 1-5 same-class headlines joined."""
    rng = random.Random(seed)
    rows = []
    for i in range(n_records):
        label = LABEL_WORDS[i % len(LABEL_WORDS)]
        pool = by_label[label]
        while True:
            parts = rng.sample(pool, rng.randint(1, 5))
            text = " ".join(parts)
            if len(tokens(text)) <= LONG_MAX_TOKENS:
                break
        rows.append((label, text))
    rng.shuffle(rows)
    return rows


def _fragments(headline: str) -> list[str]:
    words = headline.split()
    cut = [round(k * len(words) / BULK_FRAGMENTS) for k in range(BULK_FRAGMENTS + 1)]
    return [" ".join(words[cut[k]:cut[k + 1]]) for k in range(BULK_FRAGMENTS)]


def linear_bulk(by_label: dict[str, list[str]], n_records: int,
                seed: int) -> list[tuple[str, str]]:
    """`n_records` headlines, each the k-th word-third of a random same-class
    headline for k = 1, 2, 3, with classes drawn by BULK_SHARES."""
    rng = random.Random(seed)
    frags = {lab: [_fragments(h) for h in heads] for lab, heads in by_label.items()}
    labels = rng.choices(LABEL_WORDS, weights=[BULK_SHARES[w] for w in LABEL_WORDS],
                         k=n_records)
    rows = []
    for label in labels:
        pool = frags[label]
        parts = [rng.choice(pool)[k] for k in range(BULK_FRAGMENTS)]
        rows.append((label, " ".join(p for p in parts if p)))
    return rows


def write_rows(rows: list[tuple[str, str]], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sentiment", "headline"])
        writer.writerows(rows)


def properties(rows: list[tuple[str, str]]) -> dict:
    """Input properties a performance claim can cite."""
    lengths = [len(tokens(text)) for _, text in rows]
    vocab = {t for _, text in rows for t in tokens(text)}
    return {
        "records": len(rows),
        "class_counts": {w: sum(1 for lab, _ in rows if lab == w) for w in LABEL_WORDS},
        "mean_tokens": statistics.fmean(lengths),
        "max_tokens": max(lengths),
        f"share_over_{SHORT_WINDOW}_tokens":
            sum(1 for n in lengths if n > SHORT_WINDOW) / len(lengths),
        "vocabulary_size": len(vocab),
    }
