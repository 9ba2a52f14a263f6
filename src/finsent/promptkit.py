"""Prompt construction, pluggable generation backends, label extraction.

Training prompts append the expected label after the answer marker;
evaluation prompts stop at the marker.  Extraction scans the text after
the last marker (or the whole text when absent) for the first allowed
label word at word boundaries, case-insensitively; None means no label
could be extracted.
"""
from __future__ import annotations

import http.client
import json
import os
import re
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .corpus import LABELS, Dataset, SentimentLabel
from .linear_model import softmax


@dataclass(frozen=True)
class PromptTemplate:
    instruction: str
    answer_marker: str
    allowed_labels: tuple[str, ...] = tuple(lab.value for lab in LABELS)

    def __post_init__(self):
        if self.instruction.count("{headline}") != 1:
            raise ValueError("instruction must contain '{headline}' exactly once")
        if not self.answer_marker:
            raise ValueError("answer_marker must be non-empty")
        if not self.allowed_labels:
            raise ValueError("allowed_labels must be non-empty")


DEFAULT_TEMPLATE = PromptTemplate(
    instruction=("Analyze the sentiment of this news headline. "
                 "Answer with exactly one word: positive, neutral, or negative.\n"
                 "Headline: {headline}"),
    answer_marker="\nAnswer:",
)


def build_eval_prompt(headline: str, template: PromptTemplate = DEFAULT_TEMPLATE) -> str:
    return template.instruction.replace("{headline}", headline) + template.answer_marker


def build_train_prompt(headline: str, label: SentimentLabel,
                       template: PromptTemplate = DEFAULT_TEMPLATE) -> str:
    return build_eval_prompt(headline, template) + " " + label.value


def extract_label(generated: str,
                  template: PromptTemplate = DEFAULT_TEMPLATE) -> SentimentLabel | None:
    text = generated
    pos = generated.rfind(template.answer_marker)
    if pos >= 0:
        text = generated[pos + len(template.answer_marker):]
    pattern = re.compile(
        r"\b(" + "|".join(re.escape(w) for w in template.allowed_labels) + r")\b",
        re.IGNORECASE)
    match = pattern.search(text)
    if match is None:
        return None
    return SentimentLabel.parse(match.group(1))


@dataclass(frozen=True)
class GenConfig:
    max_new_tokens: int = 8
    temperature: float = 0.0

    def __post_init__(self):
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be at least 1")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")


def sample_token(logits, temperature: float, rng: np.random.Generator | None = None) -> int:
    """Temperature 0 is a deterministic argmax (ties -> lowest index);
    otherwise sample from softmax(logits / T)."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if temperature == 0:
        return int(np.argmax(z))
    if rng is None:
        raise ValueError("sampling at temperature > 0 requires an rng")
    return int(rng.choice(z.size, p=softmax(z / temperature)))


class BackendError(RuntimeError):
    """A generation backend failed to produce text."""


class RequestRejected(BackendError):
    """The backend refused the request itself (HTTP 4xx): a retry cannot succeed."""


class GenerationBackend:
    """Interface: turn a prompt into generated text."""

    def generate(self, prompt: str, config: GenConfig) -> str:
        raise NotImplementedError


class FixedResponseBackend(GenerationBackend):
    """Always returns the same text; handy as a deterministic stub."""

    def __init__(self, response: str):
        self.response = response

    def generate(self, prompt: str, config: GenConfig) -> str:
        return self.response


class CallableBackend(GenerationBackend):
    """Wraps fn(prompt, config) -> str."""

    def __init__(self, fn):
        self.fn = fn

    def generate(self, prompt: str, config: GenConfig) -> str:
        return self.fn(prompt, config)


class HttpBackend(GenerationBackend):
    """POSTs {"prompt", "max_tokens", "temperature"} as JSON and reads the
    generated text at a dotted path (list indices allowed) in the response.

    A bearer token is sent when the configured environment variable is set,
    but not on to where a redirect points.
    A 4xx status other than 408 (timeout) and 429 (rate limit) raises
    RequestRejected.
    """

    def __init__(self, url: str, text_path: str = "text", timeout: float = 10.0,
                 auth_env: str = "FINSENT_API_TOKEN"):
        self.url = url
        self.text_path = text_path
        self.timeout = timeout
        self.auth_env = auth_env

    def generate(self, prompt: str, config: GenConfig) -> str:
        token = os.environ.get(self.auth_env, "") if self.auth_env else ""
        payload = {"prompt": prompt, "max_tokens": config.max_new_tokens,
                   "temperature": config.temperature}
        try:
            request = urllib.request.Request(
                self.url, data=json.dumps(payload, allow_nan=False).encode(),
                headers={"Content-Type": "application/json"}, method="POST")
            if token:  # unredirected: a redirect must not carry it to another host
                request.add_unredirected_header("Authorization", f"Bearer {token}")
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:  # non-2xx, and not a redirect urllib follows
            exc.close()
            status, body = exc.code, b""
        # Transport failures arrive as OSError (URLError, timeouts, resets) or
        # HTTPException (a body shorter than its Content-Length); a URL that
        # cannot be sent to, or a non-finite number in the payload, as ValueError.
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise BackendError(f"request to {self.url} failed: {exc}") from exc
        if 400 <= status < 500 and status not in (408, 429):
            raise RequestRejected(f"backend rejected the request: HTTP {status}")
        if status != 200:
            raise BackendError(f"backend returned HTTP {status}")
        try:
            doc = json.loads(body)
        except ValueError as exc:
            raise BackendError("backend response is not JSON") from exc
        value = doc
        for part in self.text_path.split("."):
            try:
                value = value[int(part)] if isinstance(value, list) else value[part]
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise BackendError(
                    f"response has no text at path {self.text_path!r}") from exc
        return str(value)


class PredictionError(RuntimeError):
    """One or more records failed after retries; partial results attached."""

    def __init__(self, failures: list[tuple[int, str]], partial: list):
        self.failures = failures
        self.partial = partial
        preview = "; ".join(f"record {i}: {msg}" for i, msg in failures[:3])
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        super().__init__(f"{len(failures)} record(s) failed after retries: "
                         f"{preview}{more}")


def predict_sentiments(dataset: Dataset, backend: GenerationBackend,
                       template: PromptTemplate = DEFAULT_TEMPLATE,
                       config: GenConfig = GenConfig(),
                       nolabel_to: SentimentLabel | None = None,
                       max_in_flight: int = 4, retries: int = 3,
                       backoff: float = 0.05):
    """One prediction per record, in dataset order; returns (labels, n_nolabel),
    where an output with no label word predicts `nolabel_to` (None: a miss).

    Backend calls run with at most `max_in_flight` concurrent requests and
    are retried with exponential backoff, except a RequestRejected, which
    fails its record at once; any record still failing aborts the run with a
    PredictionError carrying the partial results.
    """
    if max_in_flight < 1:
        raise ValueError("max_in_flight must be at least 1")
    if retries < 1:
        raise ValueError("retries must be at least 1")

    def call(prompt: str) -> str:
        last: Exception | None = None
        for attempt in range(retries):
            try:
                return backend.generate(prompt, config)
            except RequestRejected:
                raise
            except Exception as exc:
                last = exc
                if attempt + 1 < retries:
                    time.sleep(backoff * (2 ** attempt))
        raise BackendError(str(last))

    predictions: list[SentimentLabel | None] = []
    failures: list[tuple[int, str]] = []
    nolabel = 0
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        futures = [pool.submit(call, build_eval_prompt(rec.text, template))
                   for rec in dataset]
        for i, fut in enumerate(futures):
            try:
                out = fut.result()
            except Exception as exc:
                failures.append((i, str(exc)))
                predictions.append(None)
                continue
            # Outside the try: a label word SentimentLabel rejects aborts the run.
            pred = extract_label(out, template)
            if pred is None:
                nolabel += 1
                pred = nolabel_to
            predictions.append(pred)

    if failures:
        raise PredictionError(failures, predictions)
    return predictions, nolabel
