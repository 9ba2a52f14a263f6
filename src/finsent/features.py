"""Tokenization, vocabulary construction and TF-IDF features."""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
import scipy.sparse as sp

from .corpus import Dataset, EmptyCorpusError

# Maximal runs of Unicode letters/digits; everything else separates.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric-run tokens; hyphens and punctuation split."""
    return _TOKEN_RE.findall(text.lower())


def pad_or_truncate(ids, max_len: int, pad_token_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Fix a token-id sequence to exactly `max_len`: keep the prefix, pad the tail.

    Returns (ids, attention mask) with mask 1 on real tokens, 0 on padding.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    ids = list(ids)[:max_len]
    n_real = len(ids)
    ids = ids + [pad_token_id] * (max_len - n_real)
    mask = [1] * n_real + [0] * (max_len - n_real)
    return np.asarray(ids, dtype=np.int64), np.asarray(mask, dtype=np.int64)


@dataclass(frozen=True)
class Vocabulary:
    """Dense 0-based token index with per-token document frequencies."""

    index: dict[str, int]
    document_frequency: dict[str, int]
    n_documents: int

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    @property
    def tokens(self) -> list[str]:
        """Tokens in index order."""
        return list(self.index)

    def to_dict(self) -> dict:
        """JSON-ready form: tokens in index order with their frequencies."""
        return {"tokens": self.tokens,
                "document_frequency": [self.document_frequency[t] for t in self.index],
                "n_documents": self.n_documents}

    @classmethod
    def from_dict(cls, doc: dict) -> "Vocabulary":
        tokens = doc["tokens"]
        return cls(index={t: i for i, t in enumerate(tokens)},
                   document_frequency=dict(zip(tokens, doc["document_frequency"])),
                   n_documents=doc["n_documents"])


def token_lists(corpus) -> list[list[str]]:
    """Tokens of each record of a Dataset (equal tokens share one string, to
    keep a large corpus small); a list of token lists passes through."""
    if not isinstance(corpus, Dataset):
        return corpus
    shared: dict[str, str] = {}
    return [[shared.setdefault(t, t) for t in tokenize(rec.text)] for rec in corpus]


def build_vocabulary(corpus, min_df: int = 1,
                     max_size: int | None = None) -> Vocabulary:
    """Tokens of a Dataset (or its `token_lists`) with document frequency >=
    min_df, ranked by (df desc, token asc)."""
    if min_df < 1:
        raise ValueError("min_df must be at least 1")
    if len(corpus) == 0:
        raise EmptyCorpusError("cannot build a vocabulary from an empty corpus")
    df: Counter[str] = Counter()
    for tokens in token_lists(corpus):
        df.update(set(tokens))
    kept = sorted((t for t, c in df.items() if c >= min_df),
                  key=lambda t: (-df[t], t))
    if max_size is not None:
        kept = kept[:max_size]
    return Vocabulary(index={t: i for i, t in enumerate(kept)},
                      document_frequency={t: df[t] for t in kept},
                      n_documents=len(corpus))


TRIPLET_SLICE = 4096  # entries `to_triplet_csv` turns into Python objects at once


@dataclass(frozen=True)
class DocTermMatrix:
    """Sparse document-term matrix with L2-normalized non-empty rows."""

    matrix: sp.csr_matrix

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def to_triplet_csv(self) -> str:
        """'row,col,weight' triplets (header included), full float precision."""
        coo = self.matrix.tocoo()
        parts = ["row,col,weight\n"]
        for s in range(0, coo.nnz, TRIPLET_SLICE):
            cut = slice(s, s + TRIPLET_SLICE)
            parts.append("".join(
                f"{r},{c},{w!r}\n" for r, c, w in zip(
                    coo.row[cut].tolist(), coo.col[cut].tolist(), coo.data[cut].tolist())))
        return "".join(parts)


def tfidf(corpus, vocab: Vocabulary) -> DocTermMatrix:
    """tf * idf with smoothed idf(t) = ln((1+N)/(1+df(t))) + 1, rows L2-normalized.

    `corpus` is a Dataset or its `token_lists`.  tf is the raw in-document
    count; documents with no in-vocabulary token produce all-zero rows.
    Vectorized: one (row, column) pair per in-vocabulary token, counted into
    a CSR matrix, scaled by an idf array and by row norms from `np.bincount`.
    """
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")
    docs = token_lists(corpus)
    n_docs, index = vocab.n_documents, vocab.index
    idf = np.array([math.log((1 + n_docs) / (1 + vocab.document_frequency[t])) + 1.0
                    for t in index])
    lengths = [len(tokens) for tokens in docs]
    cols = np.fromiter(map(index.get, chain.from_iterable(docs), repeat(-1)),
                       dtype=np.int32, count=sum(lengths))
    rows = np.repeat(np.arange(len(docs), dtype=np.int32), lengths)
    kept = cols >= 0
    # COO to CSR sums the duplicates: each row's sorted columns with their counts.
    matrix = sp.csr_matrix((np.ones(np.count_nonzero(kept)), (rows[kept], cols[kept])),
                           shape=(len(docs), len(vocab)))
    matrix.data *= idf[matrix.indices]
    rows = np.repeat(np.arange(len(docs), dtype=np.int32), np.diff(matrix.indptr))
    matrix.data /= np.sqrt(np.bincount(rows, weights=matrix.data ** 2))[rows]
    return DocTermMatrix(matrix)
