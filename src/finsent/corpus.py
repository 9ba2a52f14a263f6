"""Labeled headline corpora: parsing, serialization, stratified splits, upsampling.

The corpus format follows the public financial-news sentiment datasets:
three classes (positive / neutral / negative) attached to one headline
per record.  The class order [positive, neutral, negative] is canonical
and is used by every downstream matrix, report and table.
"""
from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass
from pathlib import Path

from ._rng import OP_SPLIT, OP_UPSAMPLE, substream

FORMATS = ("csv_label_first", "csv_headered", "at_separated")
ENCODINGS = ("utf8", "latin1")


class CorpusError(ValueError):
    """Unreadable or malformed corpus input."""


class EmptyCorpusError(CorpusError):
    """The corpus source contains no records."""


class ParseError(CorpusError):
    """A specific row could not be parsed."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        super().__init__(message if row is None else f"row {row}: {message}")


class SentimentLabel(enum.Enum):
    POSITIVE = "positive"
    NEUTRAL = "neutral"
    NEGATIVE = "negative"

    @classmethod
    def parse(cls, word: str) -> "SentimentLabel":
        """Case-insensitive parse of exactly 'positive'/'neutral'/'negative'."""
        label = _LABEL_OF_WORD.get(word.strip().lower())
        if label is None:
            raise ValueError(f"unknown sentiment label: {word!r}")
        return label

    @property
    def index(self) -> int:
        return LABELS.index(self)

    def __str__(self) -> str:
        return self.value


#: Canonical class order.
LABELS: tuple[SentimentLabel, ...] = (
    SentimentLabel.POSITIVE,
    SentimentLabel.NEUTRAL,
    SentimentLabel.NEGATIVE,
)
_LABEL_OF_WORD = {lab.value: lab for lab in LABELS}


@dataclass(frozen=True)
class HeadlineRecord:
    text: str
    label: SentimentLabel

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("headline text is empty")


@dataclass(frozen=True)
class Dataset:
    """Ordered, immutable collection of records."""

    records: tuple[HeadlineRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i: int) -> HeadlineRecord:
        return self.records[i]


def parse_corpus(source, format: str, encoding: str = "utf8",
                 source_name: str = "<stream>") -> Dataset:
    """Parse a byte stream (or bytes/str) into a Dataset.

    Formats:
      csv_label_first  two CSV columns, label first, no header; extra commas
                       in an unquoted headline are tolerated (the remaining
                       fields are rejoined verbatim).
      csv_headered     as above but skips a first row whose first cell is
                       'Sentiment' (case-insensitive).
      at_separated     'headline@label' lines; the label follows the last '@'.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown corpus format: {format!r} (expected one of {FORMATS})")
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown encoding: {encoding!r} (expected one of {ENCODINGS})")

    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, str):
        text = data
    else:
        codec = "utf-8" if encoding == "utf8" else "latin-1"
        try:
            text = bytes(data).decode(codec)
        except UnicodeDecodeError as exc:
            raise ParseError(f"undecodable bytes at offset {exc.start}: {exc.reason}") from exc

    records: list[HeadlineRecord] = []

    def add(label_word: str, body: str, row_no: int) -> None:
        try:
            label = SentimentLabel.parse(label_word)
        except ValueError as exc:
            raise ParseError(str(exc), row_no) from None
        body = body.strip()
        if not body:
            raise ParseError("empty headline", row_no)
        records.append(HeadlineRecord(body, label))

    if format == "at_separated":
        # Only \n, \r\n and \r end lines: str.splitlines also splits at latin-1 \x85.
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        for row_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            if "@" not in line:
                raise ParseError("expected 'headline@label'", row_no)
            body, _, label_word = line.rpartition("@")
            add(label_word, body, row_no)
    else:
        # strict: an unbalanced quote fails at the end of the data instead of
        # swallowing every later row into one headline.
        reader = csv.reader(io.StringIO(text, newline=""), strict=True)
        row_no = 0
        try:
            for row_no, row in enumerate(reader, start=1):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if (format == "csv_headered" and row_no == 1
                        and row[0].strip().lower() == "sentiment"):
                    continue
                if len(row) < 2:
                    raise ParseError("expected 'sentiment,headline'", row_no)
                add(row[0], ",".join(row[1:]), row_no)
        except csv.Error as exc:
            raise ParseError(f"malformed CSV (reader at line {reader.line_num}): {exc}",
                             row_no + 1) from None

    if not records:
        raise EmptyCorpusError(f"no records in {source_name}")
    return Dataset(tuple(records))


def load_corpus(path, format: str, encoding: str = "utf8") -> Dataset:
    path = Path(path)
    with open(path, "rb") as fh:
        return parse_corpus(fh, format, encoding, source_name=str(path))


def serialize_dataset(dataset: Dataset) -> str:
    """Canonical CSV form: 'sentiment,headline' header, lowercase labels."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # csv quotes only the terminator's characters: a bare \r needs QUOTE_ALL.
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(["sentiment", "headline"])
    for rec in dataset:
        (quoted if "\r" in rec.text else writer).writerow([rec.label.value, rec.text])
    return buf.getvalue()


def write_corpus(dataset: Dataset, path) -> None:
    Path(path).write_text(serialize_dataset(dataset), encoding="utf-8")


def class_counts(dataset: Dataset) -> dict[SentimentLabel, int]:
    """Record count per class, keyed in canonical order."""
    counts = {label: 0 for label in LABELS}
    for rec in dataset:
        counts[rec.label] += 1
    return counts


def _class_pools(dataset: Dataset) -> dict[SentimentLabel, list[int]]:
    """Each class's record indices, in canonical order; raises if one has none."""
    pools: dict[SentimentLabel, list[int]] = {label: [] for label in LABELS}
    for i, rec in enumerate(dataset):
        pools[rec.label].append(i)
    absent = [label.value for label, pool in pools.items() if not pool]
    if absent:
        raise ValueError(f"class absent from dataset: {', '.join(absent)}")
    return pools


def _quotas(counts: list[int], total: int) -> list[int]:
    """Largest-remainder apportionment of `total` over `counts` proportions.

    Exact integer arithmetic; residual slots go to the largest remainders,
    ties broken in canonical label order.
    """
    n = sum(counts)
    base = [total * c // n for c in counts]
    rem = [total * c % n for c in counts]
    order = sorted(range(len(counts)), key=lambda i: (-rem[i], i))
    for i in order[: total - sum(base)]:
        base[i] += 1
    return base


def stratified_split(dataset: Dataset, train_total: int, test_total: int,
                     seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic stratified partition into disjoint train/test sets.

    Per-class quotas follow the source proportions within one record.
    """
    if train_total < 0 or test_total < 0:
        raise ValueError("split sizes must be non-negative")
    if train_total + test_total > len(dataset):
        raise ValueError(
            f"insufficient records: need {train_total + test_total}, have {len(dataset)}")
    pools = _class_pools(dataset)
    count_list = [len(pool) for pool in pools.values()]
    train_q = _quotas(count_list, train_total)
    test_q = _quotas(count_list, test_total)

    train_idx: list[int] = []
    test_idx: list[int] = []
    for k, (label, pool) in enumerate(pools.items()):
        need = train_q[k] + test_q[k]
        if need > len(pool):
            raise ValueError(
                f"insufficient '{label.value}' records: need {need}, have {len(pool)}")
        rng = substream(seed, OP_SPLIT, k)
        shuffled = [pool[j] for j in rng.permutation(len(pool))]
        train_idx.extend(shuffled[: train_q[k]])
        test_idx.extend(shuffled[train_q[k]: need])

    train_idx.sort()
    test_idx.sort()
    return (Dataset(tuple(dataset[i] for i in train_idx)),
            Dataset(tuple(dataset[i] for i in test_idx)))


def upsample(dataset: Dataset, target_per_class: int, seed: int) -> Dataset:
    """Equalize class counts at exactly `target_per_class` records each.

    Classes below target keep their originals and add draws with
    replacement; classes above target are subsampled without replacement.
    """
    if target_per_class < 0:
        raise ValueError("target_per_class must be non-negative")

    out: list[HeadlineRecord] = []
    for k, pool in enumerate(_class_pools(dataset).values()):
        rng = substream(seed, OP_UPSAMPLE, k)
        if len(pool) >= target_per_class:
            keep = rng.choice(len(pool), size=target_per_class, replace=False)
            chosen = sorted(int(j) for j in keep)
        else:
            extras = rng.integers(0, len(pool), size=target_per_class - len(pool))
            chosen = list(range(len(pool))) + [int(j) for j in extras]
        out.extend(dataset[pool[j]] for j in chosen)

    return Dataset(tuple(out))
