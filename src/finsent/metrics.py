"""Confusion matrices, per-class precision/recall/F1, and report rendering.

Class order is the canonical [positive, neutral, negative] everywhere.
Predictions may be None ("no label"): such records are excluded from the
3x3 grid but tallied separately against their true class, so they reduce
accuracy and recall while never touching any class's precision.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import LABELS, SentimentLabel
from decimal import ROUND_HALF_UP, Decimal


def round3(x: float) -> float:
    """Half-up rounding to 3 decimals (matching printed tables)."""
    return float(Decimal(repr(float(x))).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class ConfusionMatrix:
    """3x3 counts (rows true, columns predicted) plus per-class no-label tallies."""

    counts: np.ndarray
    nolabel_by_class: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=np.int64))

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if arr.shape != (3, 3):
            raise ValueError(f"confusion matrix must be 3x3, got {arr.shape}")
        if (arr < 0).any():
            raise ValueError("confusion matrix counts must be non-negative")
        nl = np.asarray(self.nolabel_by_class)
        if nl.shape != (3,) or (nl < 0).any():
            raise ValueError("nolabel_by_class must be 3 non-negative counts")
        object.__setattr__(self, "counts", arr.astype(np.int64))
        object.__setattr__(self, "nolabel_by_class", nl.astype(np.int64))

    @property
    def n(self) -> int:
        """Total records inside the grid (no-label records excluded)."""
        return int(self.counts.sum())

    @property
    def nolabel_total(self) -> int:
        return int(self.nolabel_by_class.sum())

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["true\\pred"] + [lab.value for lab in LABELS] + ["nolabel"])
        for i, lab in enumerate(LABELS):
            writer.writerow([lab.value] + self.counts[i].tolist()
                            + [int(self.nolabel_by_class[i])])
        return buf.getvalue()


def confusion(y_true, y_pred) -> tuple[ConfusionMatrix, int]:
    """Count grid plus the total tally of None predictions."""
    y_true = list(y_true)
    y_pred = list(y_pred)
    if len(y_true) != len(y_pred):
        raise ValueError(f"length mismatch: {len(y_true)} true vs {len(y_pred)} predicted")
    if not y_true:
        raise ValueError("empty input")
    grid = np.zeros((3, 3), dtype=np.int64)
    nolabel = np.zeros(3, dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        if p is None:
            nolabel[t.index] += 1
        else:
            grid[t.index, p.index] += 1
    cm = ConfusionMatrix(grid, nolabel)
    return cm, cm.nolabel_total


def precision(cm: ConfusionMatrix, label: SentimentLabel) -> float:
    """TP / (TP + FP); 0 when the class is never predicted."""
    i = label.index
    tp = int(cm.counts[i, i])
    predicted = int(cm.counts[:, i].sum())
    return tp / predicted if predicted else 0.0


def recall(cm: ConfusionMatrix, label: SentimentLabel) -> float:
    """TP / (TP + FN); no-label records of the class count as missed."""
    i = label.index
    tp = int(cm.counts[i, i])
    actual = int(cm.counts[i].sum()) + int(cm.nolabel_by_class[i])
    return tp / actual if actual else 0.0


def f1(precision_value: float, recall_value: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    s = precision_value + recall_value
    return 2.0 * precision_value * recall_value / s if s else 0.0


def accuracy(cm: ConfusionMatrix, nolabel_tally: int | None = None) -> float:
    """trace / (grid total + no-label tally)."""
    if nolabel_tally is None:
        nolabel_tally = cm.nolabel_total
    denom = cm.n + nolabel_tally
    if denom <= 0:
        raise ValueError("accuracy undefined on empty input")
    return float(np.trace(cm.counts)) / denom


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


#: The layout that `to_json` writes and `from_json` reads, in field order:
#: each class's `ClassMetrics` fields at per_class.<label>.<field>, then the
#: report's own fields, each with its JSON path.
_CLASS_FIELDS = ("precision", "recall", "f1", "support")
_LAYOUT = (("accuracy", "accuracy"),
           *((f"{avg}_{name}", f"{avg}.{name}")
             for avg in ("macro", "weighted") for name in ("precision", "recall", "f1")),
           ("nolabel_count", "nolabel_count"), ("zero_division_flags", "zero_division_flags"))


@dataclass(frozen=True)
class EvalReport:
    per_class: dict[SentimentLabel, ClassMetrics]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    nolabel_count: int = 0
    zero_division_flags: tuple[str, ...] = ()

    def to_json(self) -> str:
        doc = {"per_class": {lab.value: {name: getattr(m, name) for name in _CLASS_FIELDS}
                             for lab, m in self.per_class.items()}}
        for name, path in _LAYOUT:  # a path has at most one parent
            parent, _, leaf = path.rpartition(".")
            (doc.setdefault(parent, {}) if parent else doc)[leaf] = getattr(self, name)
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        """Parse `to_json` output; a missing entry, or one of the wrong type,
        raises a ValueError naming it.  Metrics are finite numbers, `support`
        and `nolabel_count` integers, and the flags a list of strings."""
        doc = json.loads(text)

        def at(path: str):
            node = doc
            for key in path.split("."):
                if not isinstance(node, dict) or key not in node:
                    raise ValueError(f"not an evaluation report: it lacks {path}")
                node = node[key]
            if path.endswith(("support", "nolabel_count")):
                ok, kind = type(node) is int, "an integer"
            elif path == "zero_division_flags":
                ok = isinstance(node, list) and all(isinstance(f, str) for f in node)
                kind = "a list of strings"
            else:
                ok = type(node) in (int, float) and math.isfinite(node)
                kind = "a finite number"
            if not ok:
                raise ValueError(f"{path} is {node!r}, not {kind}")
            return node

        per_class = {lab: ClassMetrics(*(at(f"per_class.{lab.value}.{name}")
                                         for name in _CLASS_FIELDS))
                     for lab in LABELS}
        fields = {name: at(path) for name, path in _LAYOUT}
        fields["zero_division_flags"] = tuple(fields["zero_division_flags"])
        return cls(per_class, **fields)


def report(cm: ConfusionMatrix, nolabel_tally: int | None = None) -> EvalReport:
    """Full metric suite; zero-division cases are flagged, not raised.

    `nolabel_tally` overrides the matrix's own total in the accuracy
    denominator (it cannot re-attribute missing answers to classes; use
    `confusion()` output for per-class attribution).
    """
    flags: list[str] = []
    per_class: dict[SentimentLabel, ClassMetrics] = {}
    for lab in LABELS:
        i = lab.index
        predicted = int(cm.counts[:, i].sum())
        support = int(cm.counts[i].sum()) + int(cm.nolabel_by_class[i])
        if predicted == 0:
            flags.append(f"precision:{lab.value}")
        if support == 0:
            flags.append(f"recall:{lab.value}")
        p = precision(cm, lab)
        r = recall(cm, lab)
        per_class[lab] = ClassMetrics(p, r, f1(p, r), support)

    supports = np.array([per_class[lab].support for lab in LABELS], dtype=np.float64)
    total_support = supports.sum()
    ps = np.array([per_class[lab].precision for lab in LABELS])
    rs = np.array([per_class[lab].recall for lab in LABELS])
    fs = np.array([per_class[lab].f1 for lab in LABELS])
    if total_support > 0:
        weights = supports / total_support
    else:
        weights = np.zeros(3)
        flags.append("weighted:no-support")
    tally = cm.nolabel_total if nolabel_tally is None else nolabel_tally
    return EvalReport(
        per_class=per_class,
        accuracy=accuracy(cm, tally),
        macro_precision=float(ps.mean()),
        macro_recall=float(rs.mean()),
        macro_f1=float(fs.mean()),
        weighted_precision=float(ps @ weights),
        weighted_recall=float(rs @ weights),
        weighted_f1=float(fs @ weights),
        nolabel_count=tally,
        zero_division_flags=tuple(flags),
    )


def _fmt(x: float) -> str:
    return f"{round3(x):.3f}"


def render_table(rep: EvalReport) -> str:
    """Per-class metric table, 3-decimal half-up values."""
    lines = [
        f"{'Sentiment':<12}{'Precision':>10}{'Recall':>10}{'F1-score':>10}",
    ]
    for lab in LABELS:
        m = rep.per_class[lab]
        lines.append(f"{lab.value.capitalize():<12}{_fmt(m.precision):>10}"
                     f"{_fmt(m.recall):>10}{_fmt(m.f1):>10}")
    lines.append("")
    lines.append(f"{'Macro avg':<12}{_fmt(rep.macro_precision):>10}"
                 f"{_fmt(rep.macro_recall):>10}{_fmt(rep.macro_f1):>10}")
    lines.append(f"{'Weighted avg':<12}{_fmt(rep.weighted_precision):>10}"
                 f"{_fmt(rep.weighted_recall):>10}{_fmt(rep.weighted_f1):>10}")
    lines.append("")
    lines.append(f"Accuracy: {_fmt(rep.accuracy)}    "
                 f"(grid n={sum(m.support for m in rep.per_class.values()) - rep.nolabel_count}, "
                 f"no-label={rep.nolabel_count})")
    if rep.zero_division_flags:
        lines.append("Zero-division flags: " + ", ".join(rep.zero_division_flags))
    return "\n".join(lines)


def compare(named_reports) -> str:
    """Model-comparison table (macro precision/recall/F1), input order kept.

    `named_reports` is a sequence of (name, EvalReport) pairs.
    """
    pairs = list(named_reports)
    if not pairs:
        raise ValueError("no reports to compare")
    width = max(len("Model"), max(len(name) for name, _ in pairs)) + 2
    lines = [f"{'Model':<{width}}{'Precision':>10}{'Recall':>10}{'F1-score':>10}"]
    for name, rep in pairs:
        lines.append(f"{name:<{width}}{_fmt(rep.macro_precision):>10}"
                     f"{_fmt(rep.macro_recall):>10}{_fmt(rep.macro_f1):>10}")
    return "\n".join(lines)
