"""Token-level data augmentation: synonym replacement, insertion, deletion, swap.

All four operators take an explicit numpy Generator so callers control
determinism; `augment_dataset` derives one sub-stream per (record, copy)
and applies the operators in the fixed order replace -> insert -> swap ->
delete.  Labels are always carried over unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from . import _fork
from ._rng import OP_AUGMENT, substream
from .corpus import Dataset, HeadlineRecord


@dataclass(frozen=True)
class SynonymLexicon:
    """Lowercase headword -> ordered lowercase synonyms (never the headword)."""

    entries: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for head, syns in self.entries.items():
            if not syns:
                raise ValueError(f"lexicon entry {head!r} has no synonyms")
            if head in syns:
                raise ValueError(f"lexicon entry {head!r} lists itself as a synonym")

    def synonyms(self, token: str) -> tuple[str, ...] | None:
        return self.entries.get(token.lower())

    def __contains__(self, token: str) -> bool:
        return token.lower() in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def parse_lexicon(text: str) -> SynonymLexicon:
    """Parse 'headword: syn1, syn2, ...' lines; '#' comments, blanks ignored."""
    entries: dict[str, tuple[str, ...]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"lexicon line {line_no}: expected 'headword: synonyms'")
        head, _, tail = line.partition(":")
        head = head.strip().lower()
        syns = tuple(s.strip().lower() for s in tail.split(",") if s.strip())
        if not head or not syns:
            raise ValueError(f"lexicon line {line_no}: empty headword or synonym list")
        entries[head] = syns
    return SynonymLexicon(entries)


def load_lexicon(path) -> SynonymLexicon:
    return parse_lexicon(Path(path).read_text(encoding="utf-8"))


def bundled_lexicon() -> SynonymLexicon:
    """The packaged financial mini-thesaurus (about 200 entries)."""
    text = resources.files("finsent.data").joinpath("financial_thesaurus.txt").read_text("utf-8")
    return parse_lexicon(text)


@dataclass(frozen=True)
class AugmentConfig:
    n_replace: int = 1
    n_insert: int = 1
    p_delete: float = 0.1
    n_swap: int = 1
    copies_per_record: int = 1
    seed: int = 0

    def __post_init__(self):
        if min(self.n_replace, self.n_insert, self.n_swap, self.copies_per_record) < 0:
            raise ValueError("augmentation counts must be non-negative")
        if not 0.0 <= self.p_delete <= 1.0:
            raise ValueError("p_delete must lie in [0, 1]")


def synonym_replace(tokens, n: int, lexicon: SynonymLexicon,
                    rng: np.random.Generator) -> list[str]:
    """Replace up to `n` tokens by uniformly chosen synonyms.

    Only tokens with a lexicon entry (looked up lowercased) are eligible;
    positions are drawn without replacement, so at most `n` change.
    """
    out = list(tokens)
    candidates = [i for i, tok in enumerate(out) if tok in lexicon]
    if n <= 0 or not candidates:
        return out
    picks = rng.choice(len(candidates), size=min(n, len(candidates)), replace=False)
    for c in picks.tolist():
        i = candidates[c]
        syns = lexicon.synonyms(out[i])
        out[i] = syns[int(rng.integers(0, len(syns)))]
    return out


def random_insertion(tokens, n: int, lexicon: SynonymLexicon,
                     rng: np.random.Generator) -> list[str]:
    """Insert up to `n` words at uniform positions.

    Each inserted word is a synonym of a uniformly chosen input token, so the
    new words stay on-domain.
    """
    out = list(tokens)
    if n <= 0:
        return out
    sources = [tok for tok in tokens if tok in lexicon]
    if not sources:
        return out
    for _ in range(n):
        src = sources[int(rng.integers(0, len(sources)))]
        syns = lexicon.synonyms(src)
        word = syns[int(rng.integers(0, len(syns)))]
        pos = int(rng.integers(0, len(out) + 1))
        out.insert(pos, word)
    return out


def random_deletion(tokens, p: float, rng: np.random.Generator) -> list[str]:
    """Keep each token with probability 1-p, preserving order.

    A non-empty input never becomes empty: if every token would be
    deleted, one uniformly chosen token survives.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("deletion probability must lie in [0, 1]")
    toks = list(tokens)
    if not toks:
        return []
    keep = rng.random(len(toks)) >= p
    out = [tok for tok, k in zip(toks, keep) if k]
    if not out:
        out = [toks[int(rng.integers(0, len(toks)))]]
    return out


def random_swap(tokens, n: int, rng: np.random.Generator) -> list[str]:
    """Swap two uniformly chosen distinct positions, `n` times."""
    out = list(tokens)
    if len(out) < 2 or n <= 0:
        return out
    for _ in range(n):
        i, j = rng.choice(len(out), size=2, replace=False).tolist()
        out[i], out[j] = out[j], out[i]
    return out


FORK_MIN_RECORDS = 2000  # fewest records worth a worker process of their own


def _in_ranges(fn, bounds: list[int]) -> list:
    """`[fn(lo, hi) for each range of bounds]`; each range after the first
    runs on a forked `Peer`, whose exception is raised here.  Every peer is
    reaped, also on error, youngest first (see `Peer`)."""
    peers = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            peers.append(_fork.Peer(lambda: {"run": fn}))
            peers[-1].send("run", lo, hi)
        return [fn(bounds[0], bounds[1])] + [peer.recv() for peer in peers]
    finally:
        for peer in reversed(peers):
            peer.close()


def augment_dataset(dataset: Dataset, config: AugmentConfig,
                    lexicon: SynonymLexicon) -> Dataset:
    """Each original record, followed by its augmented variants.

    Variants are whitespace-tokenized, transformed by the four operators in
    fixed order, and rejoined with single spaces; the source label is kept.
    Deterministic for a fixed config seed.  As each (record, copy) has its
    own sub-stream, contiguous ranges of at least FORK_MIN_RECORDS records
    run in parallel, one per usable CPU.
    """
    def variants(lo: int, hi: int) -> list[str]:
        texts = []
        for ridx in range(lo, hi):
            text = dataset[ridx].text
            base = text.split()
            for copy in range(config.copies_per_record):
                rng = substream(config.seed, OP_AUGMENT, ridx, copy)
                toks = synonym_replace(base, config.n_replace, lexicon, rng)
                toks = random_insertion(toks, config.n_insert, lexicon, rng)
                toks = random_swap(toks, config.n_swap, rng)
                toks = random_deletion(toks, config.p_delete, rng)
                texts.append(text if toks == base else " ".join(toks))
        return texts

    n = len(dataset)
    workers = max(1, min(_fork.usable_cpus(), n // FORK_MIN_RECORDS))
    texts = iter(chain.from_iterable(
        _in_ranges(variants, [n * k // workers for k in range(workers + 1)])))
    records: list[HeadlineRecord] = []
    for rec in dataset:
        records.append(rec)
        records.extend(HeadlineRecord(next(texts), rec.label)
                       for _ in range(config.copies_per_record))
    return Dataset(tuple(records))
