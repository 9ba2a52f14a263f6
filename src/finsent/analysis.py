"""Exploratory corpus statistics: class balance, surface features, keywords.

Outputs are plain numbers (counts, proportions, matrices, ranked lists)
meant to be dumped as figure data for external plotting.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .corpus import (LABELS, Dataset, EmptyCorpusError, HeadlineRecord, SentimentLabel,
                     class_counts)
from .features import tokenize


def class_distribution(dataset: Dataset) -> tuple[dict[SentimentLabel, int],
                                                  dict[SentimentLabel, float]]:
    """Counts and proportions per class (proportions sum to 1)."""
    if len(dataset) == 0:
        raise EmptyCorpusError("empty dataset")
    counts = class_counts(dataset)
    return counts, {lab: c / len(dataset) for lab, c in counts.items()}


@dataclass(frozen=True)
class DerivedFeatures:
    """Surface statistics of a single headline."""

    char_len: int
    token_count: int
    avg_token_len: float
    digit_ratio: float
    uppercase_ratio: float

    FIELD_NAMES = ("char_len", "token_count", "avg_token_len",
                   "digit_ratio", "uppercase_ratio")

    def as_vector(self) -> np.ndarray:
        return np.array([self.char_len, self.token_count, self.avg_token_len,
                         self.digit_ratio, self.uppercase_ratio], dtype=np.float64)


def derived_features(record: HeadlineRecord) -> DerivedFeatures:
    text = record.text
    toks = tokenize(text)
    n_chars = len(text)
    n_toks = len(toks)
    return DerivedFeatures(
        char_len=n_chars,
        token_count=n_toks,
        avg_token_len=(sum(len(t) for t in toks) / n_toks) if n_toks else 0.0,
        digit_ratio=sum(c.isdigit() for c in text) / n_chars,
        uppercase_ratio=sum(c.isupper() for c in text) / n_chars,
    )


def feature_matrix(dataset: Dataset) -> np.ndarray:
    """(n_records, 5) matrix of DerivedFeatures rows."""
    return np.stack([derived_features(rec).as_vector() for rec in dataset])


@dataclass(frozen=True)
class CorrelationResult:
    matrix: np.ndarray
    constant_columns: np.ndarray  # boolean per column


def correlation_matrix(rows) -> CorrelationResult:
    """Pearson correlations between feature columns.

    Constant columns are flagged; their off-diagonal entries are 0 and the
    diagonal stays 1 by convention.
    """
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least 2 feature rows")
    k = X.shape[1]
    const = X.max(axis=0) == X.min(axis=0)
    Xc = X - X.mean(axis=0)
    ss = np.sqrt((Xc ** 2).sum(axis=0))
    safe = np.where(const, 1.0, ss)
    corr = (Xc.T @ Xc) / np.outer(safe, safe)
    corr = np.clip(corr, -1.0, 1.0)
    for i in range(k):
        if const[i]:
            corr[i, :] = 0.0
            corr[:, i] = 0.0
    np.fill_diagonal(corr, 1.0)
    return CorrelationResult(matrix=corr, constant_columns=const)


def keyword_frequencies(dataset: Dataset, top_k: int,
                        stopwords=frozenset()) -> dict[SentimentLabel,
                                                       list[tuple[str, int]]]:
    """Per-class (token, count) lists ranked by (count desc, token asc)."""
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    stop = frozenset(stopwords)
    out: dict[SentimentLabel, list[tuple[str, int]]] = {}
    for lab in LABELS:
        counter: Counter[str] = Counter()
        for rec in dataset:
            if rec.label is lab:
                counter.update(t for t in tokenize(rec.text) if t not in stop)
        ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
        out[lab] = ranked[:top_k]
    return out


def parse_stopwords(text: str) -> frozenset[str]:
    words = set()
    for raw in text.splitlines():
        word = raw.split("#", 1)[0].strip().lower()
        if word:
            words.add(word)
    return frozenset(words)


def load_stopwords(path) -> frozenset[str]:
    return parse_stopwords(Path(path).read_text(encoding="utf-8"))


def bundled_stopwords() -> frozenset[str]:
    """The packaged English stopword list (about 120 words)."""
    text = resources.files("finsent.data").joinpath("stopwords.txt").read_text("utf-8")
    return parse_stopwords(text)
