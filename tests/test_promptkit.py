import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from finsent.corpus import LABELS, SentimentLabel
from finsent.promptkit import (
    DEFAULT_TEMPLATE,
    BackendError,
    CallableBackend,
    FixedResponseBackend,
    GenConfig,
    HttpBackend,
    PredictionError,
    PromptTemplate,
    RequestRejected,
    build_eval_prompt,
    build_train_prompt,
    extract_label,
    predict_sentiments,
    sample_token,
)

from conftest import NEG, NEU, POS, make_dataset

# a template whose instruction contains no label words
PLAIN = PromptTemplate(instruction="Classify this.\nHeadline: {headline}",
                       answer_marker="\nAnswer:")


class TestTemplate:
    def test_placeholder_required_exactly_once(self):
        with pytest.raises(ValueError):
            PromptTemplate(instruction="no placeholder", answer_marker="A:")
        with pytest.raises(ValueError):
            PromptTemplate(instruction="{headline} and {headline}",
                           answer_marker="A:")

    def test_marker_required(self):
        with pytest.raises(ValueError):
            PromptTemplate(instruction="{headline}", answer_marker="")


class TestBuildPrompts:
    def test_train_prompt_ends_with_label(self):
        out = build_train_prompt("X", POS, PLAIN)
        assert out.endswith("positive")
        assert "\nAnswer: positive" in out

    def test_headline_appears_exactly_once(self):
        out = build_train_prompt("unusual headline marker", NEU, PLAIN)
        assert out.count("unusual headline marker") == 1

    def test_eval_prompt_ends_with_marker(self):
        out = build_eval_prompt("X", PLAIN)
        assert out.endswith(PLAIN.answer_marker)

    def test_eval_prompt_has_no_label_words(self):
        out = build_eval_prompt("Shares climbed", PLAIN)
        assert not any(w in out.lower() for w in ("positive", "neutral", "negative"))

    def test_eval_is_strict_prefix_of_train(self):
        for lab in LABELS:
            ev = build_eval_prompt("Some headline", PLAIN)
            tr = build_train_prompt("Some headline", lab, PLAIN)
            assert tr.startswith(ev)
            assert len(tr) > len(ev)

    def test_round_trip_all_labels(self):
        for lab in LABELS:
            tr = build_train_prompt("Results due Monday", lab, DEFAULT_TEMPLATE)
            assert extract_label(tr, DEFAULT_TEMPLATE) is lab


class TestExtractLabel:
    def test_after_marker(self):
        assert extract_label("blah\nAnswer: neutral", PLAIN) is NEU

    def test_whole_text_fallback_when_marker_absent(self):
        assert extract_label("The sentiment is Positive.", PLAIN) is POS

    def test_no_label_returns_none(self):
        assert extract_label("no opinion expressed", PLAIN) is None

    def test_scans_after_last_marker(self):
        text = "\nAnswer: positive ...\nAnswer: negative"
        assert extract_label(text, PLAIN) is NEG

    def test_word_boundaries(self):
        assert extract_label("\nAnswer: positively great", PLAIN) is None
        assert extract_label("\nAnswer: NEGATIVE!", PLAIN) is NEG

    def test_first_occurrence_wins(self):
        assert extract_label("\nAnswer: neutral or negative", PLAIN) is NEU

    def test_text_before_marker_ignored(self):
        text = "positive positive\nAnswer: nothing here"
        assert extract_label(text, PLAIN) is None


class TestSampleToken:
    def test_temperature_zero_argmax(self):
        assert sample_token([1.0, 3.0, 2.0], 0.0) == 1

    def test_temperature_zero_tie_lowest_index(self):
        assert sample_token([5.0, 5.0, 1.0], 0.0) == 0

    def test_temperature_zero_rng_independent(self):
        values = {sample_token([0.1, 0.9, 0.3], 0.0, np.random.default_rng(s))
                  for s in range(10)}
        assert values == {1}

    def test_high_temperature_near_uniform(self):
        rng = np.random.default_rng(31)
        counts = np.zeros(3)
        for _ in range(10_000):
            counts[sample_token([5.0, -2.0, 0.5], 1e9, rng)] += 1
        freqs = counts / counts.sum()
        np.testing.assert_allclose(freqs, 1 / 3, atol=0.03)

    def test_temperature_one_matches_closed_form(self):
        rng = np.random.default_rng(37)
        hits = 0
        for _ in range(10_000):
            hits += sample_token([math.log(2), 0.0, 0.0], 1.0, rng) == 0
        assert abs(hits / 10_000 - 0.5) <= 0.03

    def test_requires_rng_when_sampling(self):
        with pytest.raises(ValueError):
            sample_token([0.0, 1.0], 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sample_token([np.inf, 0.0], 0.0)


class TestGenConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenConfig(max_new_tokens=0)
        with pytest.raises(ValueError):
            GenConfig(temperature=-0.1)


def tiny_dataset(n=6):
    rows = []
    labs = [POS, NEU, NEG]
    for i in range(n):
        rows.append((f"headline number {i}", labs[i % 3]))
    return make_dataset(rows)


class TestPredictSentiments:
    def test_fixed_backend_all_negative(self):
        ds = tiny_dataset()
        preds, nolabel = predict_sentiments(ds, FixedResponseBackend("negative"),
                                            template=PLAIN)
        assert preds == [NEG] * len(ds)
        assert nolabel == 0

    def test_oracle_backend_full_accuracy(self):
        ds = tiny_dataset()
        truth = {build_eval_prompt(r.text, PLAIN): r.label.value for r in ds}
        backend = CallableBackend(lambda prompt, cfg: truth[prompt])
        preds, nolabel = predict_sentiments(ds, backend, template=PLAIN)
        assert preds == [r.label for r in ds]
        assert nolabel == 0

    def test_unparseable_counts_all_nolabel(self):
        ds = tiny_dataset()
        preds, nolabel = predict_sentiments(ds, FixedResponseBackend("???"),
                                            template=PLAIN)
        assert preds == [None] * len(ds)
        assert nolabel == len(ds)

    def test_map_to_policy(self):
        ds = tiny_dataset()
        preds, nolabel = predict_sentiments(ds, FixedResponseBackend("???"),
                                            template=PLAIN, nolabel_to=NEU)
        assert preds == [NEU] * len(ds)
        assert nolabel == len(ds)

    def test_label_word_outside_sentiment_labels_raises(self):
        """A template word that is no SentimentLabel is a fault of the run, not
        a record failure: a ValueError, not a PredictionError."""
        bullish = PromptTemplate(instruction="{headline}", answer_marker="A:",
                                 allowed_labels=("bullish",))
        with pytest.raises(ValueError, match="bullish"):
            predict_sentiments(tiny_dataset(), FixedResponseBackend("bullish"),
                               template=bullish)

    def test_order_preserved_under_concurrency(self):
        rows = [(f"record {i}", LABELS[i % 3]) for i in range(100)]
        ds = make_dataset(rows)
        rng = np.random.default_rng(41)
        delays = {build_eval_prompt(r.text, PLAIN): rng.random() * 0.004
                  for r in ds}
        truth = {build_eval_prompt(r.text, PLAIN): r.label.value for r in ds}

        def slow(prompt, cfg):
            time.sleep(delays[prompt])
            return truth[prompt]

        preds, _ = predict_sentiments(ds, CallableBackend(slow), template=PLAIN,
                                      max_in_flight=8)
        assert preds == [r.label for r in ds]

    def test_retries_then_success(self):
        ds = tiny_dataset(3)
        attempts = {}
        lock = threading.Lock()

        def flaky(prompt, cfg):
            with lock:
                attempts[prompt] = attempts.get(prompt, 0) + 1
                if attempts[prompt] < 3:
                    raise RuntimeError("transient")
            return "neutral"

        preds, _ = predict_sentiments(ds, CallableBackend(flaky), template=PLAIN,
                                      retries=3, backoff=0.001, max_in_flight=2)
        assert preds == [NEU] * 3
        assert all(count == 3 for count in attempts.values())

    def test_aborts_with_partial_results_after_retries(self):
        ds = tiny_dataset(4)
        bad_prompt = build_eval_prompt(ds[2].text, PLAIN)

        def sometimes(prompt, cfg):
            if prompt == bad_prompt:
                raise RuntimeError("down")
            return "positive"

        with pytest.raises(PredictionError) as err:
            predict_sentiments(ds, CallableBackend(sometimes), template=PLAIN,
                               retries=2, backoff=0.001)
        assert [i for i, _ in err.value.failures] == [2]
        partial = err.value.partial
        assert partial[2] is None
        assert partial[0] is POS and partial[1] is POS and partial[3] is POS


class _Handler(BaseHTTPRequestHandler):
    calls: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        type(self).calls.append({"payload": payload,
                                 "auth": self.headers.get("Authorization"),
                                 "content_type": self.headers.get("Content-Type")})
        status, declared = 200, None
        if self.path == "/flat":
            data = json.dumps({"text": "Answer: positive"}).encode()
        elif self.path == "/nested":
            data = json.dumps({"choices": [{"text": "negative"}]}).encode()
        elif self.path == "/missing":
            data = json.dumps({"something": "else"}).encode()
        elif self.path == "/created":
            status, data = 201, json.dumps({"text": "positive"}).encode()
        elif self.path == "/notjson":
            data = b"<html>positive</html>"
        elif self.path == "/truncated":
            data, declared = b'{"text": "pos', 100
        elif self.path == "/hangup":
            return  # the connection closes before a status line
        elif self.path == "/redirect":  # to this server under another host name
            self.send_response(302)
            self.send_header("Location",
                             f"http://localhost:{self.server.server_address[1]}/flat")
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        else:
            self.send_response({"/reject": 400, "/notfound": 404, "/timeout": 408,
                                "/busy": 429}.get(self.path, 500))
            self.end_headers()
            return
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(declared or len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):  # a POST redirected by a 302 arrives as a GET
        type(self).calls.append({"host": self.headers.get("Host"),
                                 "auth": self.headers.get("Authorization")})
        data = json.dumps({"text": "negative"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    # shutdown() waits for the serving loop's next poll (0.5 s by default).
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    _Handler.calls = []
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestHttpBackend:
    def test_posts_wire_format_and_parses_text(self, http_server, monkeypatch):
        monkeypatch.delenv("FINSENT_API_TOKEN", raising=False)
        backend = HttpBackend(http_server + "/flat")
        out = backend.generate("some prompt", GenConfig(max_new_tokens=5,
                                                        temperature=0.25))
        assert out == "Answer: positive"
        payload = _Handler.calls[-1]["payload"]
        assert payload == {"prompt": "some prompt", "max_tokens": 5,
                           "temperature": 0.25}
        assert _Handler.calls[-1]["auth"] is None

    def test_nested_text_path(self, http_server):
        backend = HttpBackend(http_server + "/nested", text_path="choices.0.text")
        assert backend.generate("p", GenConfig()) == "negative"

    def test_auth_header_from_env(self, http_server, monkeypatch):
        monkeypatch.setenv("FINSENT_API_TOKEN", "sekrit")
        HttpBackend(http_server + "/flat").generate("p", GenConfig())
        assert _Handler.calls[-1]["auth"] == "Bearer sekrit"

    def test_redirect_to_another_host_drops_token(self, http_server, monkeypatch):
        monkeypatch.setenv("FINSENT_API_TOKEN", "sekrit")
        assert HttpBackend(http_server + "/redirect").generate("p", GenConfig()) == "negative"
        posted, redirected = _Handler.calls
        assert posted["auth"] == "Bearer sekrit"
        assert redirected["host"].startswith("localhost:")
        assert redirected["auth"] is None

    def test_missing_text_path_errors(self, http_server):
        backend = HttpBackend(http_server + "/missing")
        with pytest.raises(BackendError, match="path"):
            backend.generate("p", GenConfig())

    def test_http_error_status(self, http_server):
        backend = HttpBackend(http_server + "/boom")
        with pytest.raises(BackendError, match="500"):
            backend.generate("p", GenConfig())

    def test_sends_json_content_type(self, http_server):
        HttpBackend(http_server + "/flat").generate("p", GenConfig())
        assert _Handler.calls[-1]["content_type"] == "application/json"

    @pytest.mark.parametrize("path, match", [
        ("/created", "HTTP 201"),         # a 2xx other than 200 is no answer either
        ("/notjson", "not JSON"),
        ("/truncated", "failed"),         # body shorter than its Content-Length
        ("/hangup", "failed"),            # no status line at all
    ])
    def test_unusable_response_is_backend_error(self, http_server, path, match):
        with pytest.raises(BackendError, match=match) as err:
            HttpBackend(http_server + path).generate("p", GenConfig())
        assert not isinstance(err.value, RequestRejected)

    @pytest.mark.parametrize("url", ["not-a-url", "http://127.0.0.1:port/x"])
    def test_unsendable_url_is_backend_error(self, url):
        with pytest.raises(BackendError, match="failed"):
            HttpBackend(url).generate("p", GenConfig())

    def test_non_finite_payload_is_backend_error(self, http_server):
        with pytest.raises(BackendError, match="failed"):
            HttpBackend(http_server + "/flat").generate("p", GenConfig(temperature=math.nan))
        assert _Handler.calls == []

    def test_unreachable_host(self):
        backend = HttpBackend("http://127.0.0.1:1/x", timeout=0.2)
        with pytest.raises(BackendError):
            backend.generate("p", GenConfig())

    @pytest.mark.parametrize("path, attempts", [
        ("/reject", 1),   # 4xx: the request itself is refused
        ("/busy", 3),     # 429 and 5xx may succeed later
        ("/boom", 3),
        ("/notfound", 1),
        ("/timeout", 3),  # 408, like 429, may succeed later
        ("/hangup", 3),   # transport failures may too
        ("/truncated", 3),
    ])
    def test_retries_only_failures_that_can_pass(self, http_server, path, attempts):
        ds = tiny_dataset(3)
        with pytest.raises(PredictionError) as err:
            predict_sentiments(ds, HttpBackend(http_server + path), template=PLAIN,
                               retries=3, backoff=0.001, max_in_flight=1)
        assert [i for i, _ in err.value.failures] == [0, 1, 2]
        assert err.value.partial == [None] * 3
        assert len(_Handler.calls) == attempts * len(ds)

    def test_end_to_end_predict(self, http_server):
        ds = tiny_dataset(3)
        backend = HttpBackend(http_server + "/flat")
        preds, nolabel = predict_sentiments(ds, backend, template=PLAIN)
        assert preds == [POS, POS, POS]
        assert nolabel == 0

