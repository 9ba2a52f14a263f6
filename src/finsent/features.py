"""Tokenization, vocabulary construction, TF-IDF features, embedding pooling."""
from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

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


def build_vocabulary(corpus: Dataset, min_df: int = 1,
                     max_size: int | None = None) -> Vocabulary:
    """Tokens with document frequency >= min_df, ranked by (df desc, token asc)."""
    if min_df < 1:
        raise ValueError("min_df must be at least 1")
    if len(corpus) == 0:
        raise EmptyCorpusError("cannot build a vocabulary from an empty corpus")
    df: Counter[str] = Counter()
    for rec in corpus:
        df.update(set(tokenize(rec.text)))
    kept = sorted((t for t, c in df.items() if c >= min_df),
                  key=lambda t: (-df[t], t))
    if max_size is not None:
        kept = kept[:max_size]
    return Vocabulary(index={t: i for i, t in enumerate(kept)},
                      document_frequency={t: df[t] for t in kept},
                      n_documents=len(corpus))


@dataclass(frozen=True)
class DocTermMatrix:
    """Sparse document-term matrix with L2-normalized non-empty rows."""

    matrix: sp.csr_matrix

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(strictly increasing column indices, weights) of row i."""
        start, end = self.matrix.indptr[i], self.matrix.indptr[i + 1]
        return self.matrix.indices[start:end], self.matrix.data[start:end]

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def to_triplet_csv(self) -> str:
        """'row,col,weight' triplets (header included), full float precision."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["row", "col", "weight"])
        coo = self.matrix.tocoo()
        for r, c, w in zip(coo.row, coo.col, coo.data):
            writer.writerow([int(r), int(c), repr(float(w))])
        return buf.getvalue()

    @classmethod
    def from_triplet_csv(cls, text: str, n_rows: int | None = None,
                         n_cols: int | None = None) -> "DocTermMatrix":
        rows, cols, data = [], [], []
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header != ["row", "col", "weight"]:
            raise ValueError("expected 'row,col,weight' header")
        for rec in reader:
            if not rec:
                continue
            rows.append(int(rec[0]))
            cols.append(int(rec[1]))
            data.append(float(rec[2]))
        shape = (n_rows if n_rows is not None else (max(rows) + 1 if rows else 0),
                 n_cols if n_cols is not None else (max(cols) + 1 if cols else 0))
        return cls(sp.csr_matrix((data, (rows, cols)), shape=shape))


def tfidf(corpus: Dataset, vocab: Vocabulary) -> DocTermMatrix:
    """tf * idf with smoothed idf(t) = ln((1+N)/(1+df(t))) + 1, rows L2-normalized.

    tf is the raw in-document count; documents with no in-vocabulary token
    produce all-zero rows.
    """
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")
    n_docs = vocab.n_documents
    idf = {t: math.log((1 + n_docs) / (1 + vocab.document_frequency[t])) + 1.0
           for t in vocab.index}

    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    for rec in corpus:
        counts = Counter(t for t in tokenize(rec.text) if t in vocab.index)
        items = sorted((vocab.index[t], c * idf[t]) for t, c in counts.items())
        weights = np.array([w for _, w in items], dtype=np.float64)
        norm = float(np.linalg.norm(weights))
        if norm > 0.0:
            weights /= norm
        indices.extend(col for col, _ in items)
        data.extend(weights.tolist())
        indptr.append(len(indices))
    matrix = sp.csr_matrix((data, indices, indptr), shape=(len(corpus), len(vocab)),
                           dtype=np.float64)
    return DocTermMatrix(matrix)


@dataclass(frozen=True)
class EmbeddingTable:
    """token -> dense vector, uniform dimensionality."""

    vectors: dict[str, np.ndarray]
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("embedding dimension must be at least 1")
        for tok, vec in self.vectors.items():
            if vec.shape != (self.dim,):
                raise ValueError(f"embedding for {tok!r} has dimension {vec.shape}, "
                                 f"expected ({self.dim},)")

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)


def parse_embeddings(text: str) -> EmbeddingTable:
    """Parse 'word v1 v2 ... vd' lines.

    A first line with exactly two integer fields is a count/dim banner and
    is skipped.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines:
        first = lines[0].split()
        if len(first) == 2:
            try:
                int(first[0]), int(first[1])
                lines = lines[1:]
            except ValueError:
                pass
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for line_no, line in enumerate(lines, start=1):
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"embedding line {line_no}: expected 'word v1 ... vd'")
        word, values = parts[0], parts[1:]
        vec = np.array([float(v) for v in values], dtype=np.float64)
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise ValueError(f"embedding line {line_no}: dimension {len(vec)} != {dim}")
        vectors[word] = vec
    if dim is None:
        raise ValueError("embedding file contains no vectors")
    return EmbeddingTable(vectors, dim)


def load_embeddings(path) -> EmbeddingTable:
    return parse_embeddings(Path(path).read_text(encoding="utf-8"))


def embed_mean(tokens, table: EmbeddingTable) -> tuple[np.ndarray, float]:
    """Mean vector of in-table tokens and the fraction of tokens covered."""
    toks = list(tokens)
    hits = [table.vectors[t] for t in toks if t in table.vectors]
    if not hits:
        return np.zeros(table.dim, dtype=np.float64), 0.0
    return np.mean(hits, axis=0), len(hits) / len(toks)
