"""Spans around calls into finsent's modules, recorded from outside the program.

`install` replaces public functions at the module attribute through which
their callers look them up (for example `encoder_forward` in both
`finsent.encoder.model` and `finsent.encoder.textclf`) with wrappers that
record a span per call.  Spans stay in memory; `layer_metrics` reduces them
to the per-layer metrics of one repetition.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

CLI_COMMANDS = ("ingest", "split", "upsample", "augment", "analyze", "featurize",
                "train-linear", "train-encoder", "predict", "evaluate", "compare")


@dataclass
class Span:
    name: str
    start: int          # perf_counter_ns
    end: int
    parent: int | None  # index of the parent span in Tracer.spans
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """In-memory span recorder.

    Each thread keeps its own stack of open spans.  A span opened on a thread
    with an empty stack (a worker of a thread pool) takes as parent the
    innermost span open on the main thread, the call that started the pool.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._append = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
        span = Span(name, 0, 0, parent, self.run_id)
        with self._append:
            self.spans.append(span)
            sid = len(self.spans) - 1
        stack.append(sid)
        span.start = time.perf_counter_ns()
        return sid

    def close(self, sid: int) -> Span:
        span = self.spans[sid]
        span.end = time.perf_counter_ns()
        self._stack().pop()
        return span

    def to_json(self) -> list[dict]:
        return [{"id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                 "parent": s.parent, "run_id": s.run_id, **s.attrs}
                for i, s in enumerate(self.spans)]


def wrap(tracer: Tracer, name: str, fn, note=None):
    """`fn` with a span per call; `note(span, args, kwargs, result)` may add
    attributes.  A call that raises gets `error` set on its span."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            tracer.spans[sid].attrs["error"] = True
            raise
        finally:
            span = tracer.close(sid)
            if note is not None:
                note(span, args, kwargs, result)

    return traced


def _note_forward(span, args, kwargs, result):
    ids, mask = args[0], args[1]
    span.attrs["positions"] = len(ids)
    span.attrs["real"] = int(np.count_nonzero(mask))


def _note_nolabel(span, args, kwargs, result):
    if result is not None:
        span.attrs["nolabel"] = result[1]


# (module, attribute path, span name, note).  Each caller-visible binding of
# a function is listed, since a caller that imported the name looks it up in
# its own module.
PATCHES = [
    *[("finsent.cli", "cmd_" + c.replace("-", "_"), "cli." + c, None) for c in CLI_COMMANDS],
    ("finsent.cli", "load_corpus", "corpus.load_corpus", None),
    ("finsent.cli", "write_corpus", "corpus.write_corpus", None),
    ("finsent.corpus", "parse_corpus", "corpus.parse_corpus", None),
    ("finsent.augment", "augment_dataset", "augment.augment_dataset", None),
    ("finsent.analysis", "feature_matrix", "analysis.feature_matrix", None),
    ("finsent.analysis", "keyword_frequencies", "analysis.keyword_frequencies", None),
    ("finsent.features", "build_vocabulary", "features.build_vocabulary", None),
    ("finsent.features", "tfidf", "features.tfidf", None),
    ("finsent.features", "DocTermMatrix.to_triplet_csv", "features.to_triplet_csv", None),
    ("finsent.linear_model", "train", "linear_model.train", None),
    ("finsent.linear_model", "loss_and_grad", "linear_model.loss_and_grad", None),
    ("finsent.encoder", "train_loop", "encoder.train_loop", None),
    ("finsent.encoder", "batch_loss", "encoder.batch_loss", None),
    ("finsent.encoder.train", "loss_and_grad", "encoder.loss_and_grad", None),
    ("finsent.encoder.train", "adamw_step", "encoder.adamw_step", None),
    ("finsent.encoder.model", "encoder_forward", "encoder.forward", _note_forward),
    ("finsent.encoder.textclf", "encoder_forward", "encoder.forward", _note_forward),
    ("finsent.encoder.model", "encoder_backward", "encoder.backward", None),
    ("finsent.promptkit", "predict_sentiments", "promptkit.predict_sentiments",
     _note_nolabel),
    ("finsent.promptkit", "EncoderBackend.generate", "promptkit.generate", None),
]


def install(tracer: Tracer, patches=PATCHES) -> tuple[list, list[str]]:
    """Apply `patches`; returns (undo list, names of bindings not found).

    The eval hook handed to `train_loop` is wrapped too, as `encoder.eval_hook`.
    """
    undo, missing = [], []
    for module_name, path, span_name, note in patches:
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
            continue
        undo.append((owner, attr, original))
        if span_name == "encoder.train_loop":
            original = _wrap_eval_hook(tracer, original)
        setattr(owner, attr, wrap(tracer, span_name, original, note))
    return undo, missing


def _wrap_eval_hook(tracer: Tracer, train_loop):
    @functools.wraps(train_loop)
    def with_traced_hook(*args, **kwargs):
        hook = kwargs.get("eval_hook")
        if hook is not None:
            kwargs["eval_hook"] = wrap(tracer, "encoder.eval_hook", hook)
        return train_loop(*args, **kwargs)

    return with_traced_hook


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Seconds of each span not covered by the union of its children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((s.end - s.start - covered) / 1e9)
    return out


def _ancestor_names(spans: list[Span], i: int) -> set[str]:
    names = set()
    p = spans[i].parent
    while p is not None:
        names.add(spans[p].name)
        p = spans[p].parent
    return names


def forward_phase(spans: list[Span], i: int) -> str:
    """train (inside loss_and_grad), eval (elsewhere inside train_loop, i.e.
    the eval hook) or predict (everything else, such as the predict stage)."""
    names = _ancestor_names(spans, i)
    if "encoder.loss_and_grad" in names:
        return "train"
    if "encoder.train_loop" in names:
        return "eval"
    return "predict"


def _pct(values: list[float], q: int) -> float:
    """q-th percentile (nearest rank); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


# Per-layer metric names with unit and direction, in report order.
FORWARD_PHASES = ("train", "eval", "predict")
METRICS: list[tuple[str, str, str]] = [
    *[(f"cli.{c.replace('-', '_')}_s", "s", "lower") for c in CLI_COMMANDS],
    ("cli.train_encoder_unaccounted_s", "s", "lower"),
    ("corpus.load_calls", "count", "lower"),
    ("corpus.parse_s", "s", "lower"),
    ("corpus.write_s", "s", "lower"),
    ("augment.augment_dataset_s", "s", "lower"),
    ("analysis.feature_matrix_s", "s", "lower"),
    ("analysis.keyword_frequencies_s", "s", "lower"),
    ("features.tfidf_calls", "count", "lower"),
    ("features.tfidf_s", "s", "lower"),
    ("features.build_vocabulary_s", "s", "lower"),
    ("features.triplet_csv_s", "s", "lower"),
    ("linear_model.train_s", "s", "lower"),
    ("linear_model.loss_and_grad_calls", "count", "lower"),
    *[(f"encoder.forward_calls.{p}", "count", "lower") for p in FORWARD_PHASES],
    *[(f"encoder.forward_us_p{q}.{p}", "us", "lower")
      for p in FORWARD_PHASES for q in (50, 90)],
    ("encoder.backward_us_p50", "us", "lower"),
    ("encoder.backward_us_p90", "us", "lower"),
    ("encoder.loss_and_grad_self_s", "s", "lower"),
    ("encoder.positions_computed", "count", "lower"),
    ("encoder.token_util", "ratio", "higher"),
    ("encoder.train_loop_s", "s", "lower"),
    ("encoder.eval_hook_s", "s", "lower"),
    ("encoder.eval_share", "ratio", "lower"),
    ("encoder.adamw_step_us_p50", "us", "lower"),
    ("encoder.adamw_step_s", "s", "lower"),
    ("promptkit.predict_sentiments_s", "s", "lower"),
    ("promptkit.generate_calls", "count", "lower"),
    ("promptkit.generate_us_p50", "us", "lower"),
    ("promptkit.generate_us_p90", "us", "lower"),
    ("promptkit.retries", "count", "lower"),
    ("promptkit.nolabel", "count", "lower"),
]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (every name in METRICS)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name: str) -> float:
        return sum(spans[i].seconds for i in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def micros(name: str) -> list[float]:
        return [spans[i].seconds * 1e6 for i in by_name.get(name, ())]

    m: dict[str, float] = {}
    for c in CLI_COMMANDS:
        m[f"cli.{c.replace('-', '_')}_s"] = total("cli." + c)
    m["cli.train_encoder_unaccounted_s"] = sum(
        selfs[i] for i in by_name.get("cli.train-encoder", ()))
    m["corpus.load_calls"] = calls("corpus.load_corpus")
    m["corpus.parse_s"] = total("corpus.parse_corpus")
    m["corpus.write_s"] = total("corpus.write_corpus")
    m["augment.augment_dataset_s"] = total("augment.augment_dataset")
    m["analysis.feature_matrix_s"] = total("analysis.feature_matrix")
    m["analysis.keyword_frequencies_s"] = total("analysis.keyword_frequencies")
    m["features.tfidf_calls"] = calls("features.tfidf")
    m["features.tfidf_s"] = total("features.tfidf")
    m["features.build_vocabulary_s"] = total("features.build_vocabulary")
    m["features.triplet_csv_s"] = total("features.to_triplet_csv")
    m["linear_model.train_s"] = total("linear_model.train")
    m["linear_model.loss_and_grad_calls"] = calls("linear_model.loss_and_grad")

    phases: dict[str, list[float]] = {p: [] for p in FORWARD_PHASES}
    positions = real = 0
    for i in by_name.get("encoder.forward", ()):
        phases[forward_phase(spans, i)].append(spans[i].seconds * 1e6)
        positions += spans[i].attrs.get("positions", 0)
        real += spans[i].attrs.get("real", 0)
    for p in FORWARD_PHASES:
        m[f"encoder.forward_calls.{p}"] = len(phases[p])
        m[f"encoder.forward_us_p50.{p}"] = _pct(phases[p], 50)
        m[f"encoder.forward_us_p90.{p}"] = _pct(phases[p], 90)
    backward = micros("encoder.backward")
    m["encoder.backward_us_p50"] = _pct(backward, 50)
    m["encoder.backward_us_p90"] = _pct(backward, 90)
    m["encoder.loss_and_grad_self_s"] = sum(
        selfs[i] for i in by_name.get("encoder.loss_and_grad", ()))
    m["encoder.positions_computed"] = positions
    m["encoder.token_util"] = real / positions if positions else 0.0
    m["encoder.train_loop_s"] = total("encoder.train_loop")
    m["encoder.eval_hook_s"] = total("encoder.eval_hook")
    m["encoder.eval_share"] = (m["encoder.eval_hook_s"] / m["encoder.train_loop_s"]
                               if m["encoder.train_loop_s"] else 0.0)
    m["encoder.adamw_step_us_p50"] = _pct(micros("encoder.adamw_step"), 50)
    m["encoder.adamw_step_s"] = total("encoder.adamw_step")

    m["promptkit.predict_sentiments_s"] = total("promptkit.predict_sentiments")
    generate = micros("promptkit.generate")
    m["promptkit.generate_calls"] = len(generate)
    m["promptkit.generate_us_p50"] = _pct(generate, 50)
    m["promptkit.generate_us_p90"] = _pct(generate, 90)
    m["promptkit.retries"] = sum(1 for i in by_name.get("promptkit.generate", ())
                                 if spans[i].attrs.get("error"))
    m["promptkit.nolabel"] = sum(spans[i].attrs.get("nolabel", 0)
                                 for i in by_name.get("promptkit.predict_sentiments", ()))
    return m


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in per_rep) for name, _, _ in METRICS}
