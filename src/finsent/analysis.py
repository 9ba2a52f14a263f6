"""Exploratory corpus statistics: class balance, surface features, keywords.

Outputs are plain numbers (counts, proportions, matrices, ranked lists)
meant to be dumped as figure data for external plotting.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import LABELS, Dataset, EmptyCorpusError, SentimentLabel, class_counts
from .features import token_lists


def class_distribution(dataset: Dataset) -> tuple[dict[SentimentLabel, int],
                                                  dict[SentimentLabel, float]]:
    """Counts and proportions per class (proportions sum to 1)."""
    if len(dataset) == 0:
        raise EmptyCorpusError("empty dataset")
    counts = class_counts(dataset)
    return counts, {lab: c / len(dataset) for lab, c in counts.items()}


# The surface statistics of a headline, in the column order of `feature_matrix`.
FIELD_NAMES = ("char_len", "token_count", "avg_token_len",
               "digit_ratio", "uppercase_ratio")


def _surface(text: str, toks: list[str]) -> tuple[int, int, float, float, float]:
    """The FIELD_NAMES statistics of `text`, whose tokens are `toks`, in order."""
    n_chars = len(text)
    n_toks = len(toks)
    return (n_chars, n_toks, (sum(map(len, toks)) / n_toks) if n_toks else 0.0,
            sum(map(str.isdigit, text)) / n_chars, sum(map(str.isupper, text)) / n_chars)


def feature_matrix(dataset: Dataset, docs=None) -> np.ndarray:
    """(n_records, 5) matrix with one row of FIELD_NAMES statistics per record;
    `docs`, the records' `features.token_lists` if given, spares tokenizing."""
    width = len(FIELD_NAMES)
    docs = token_lists(dataset) if docs is None else docs
    return np.fromiter(
        chain.from_iterable(map(_surface, (rec.text for rec in dataset), docs)),
        dtype=np.float64, count=width * len(dataset)).reshape(-1, width)


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


def keyword_frequencies(dataset: Dataset, top_k: int, stopwords=frozenset(),
                        docs=None) -> dict[SentimentLabel, list[tuple[str, int]]]:
    """Per-class (token, count) lists ranked by (count desc, token asc);
    `docs`, the records' `features.token_lists` if given, spares tokenizing."""
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    stop = frozenset(stopwords)
    counters: dict[SentimentLabel, Counter[str]] = {lab: Counter() for lab in LABELS}
    for rec, tokens in zip(dataset, token_lists(dataset) if docs is None else docs):
        counters[rec.label].update(tokens)
    out: dict[SentimentLabel, list[tuple[str, int]]] = {}
    for lab, counter in counters.items():
        for word in stop.intersection(counter):
            del counter[word]
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
