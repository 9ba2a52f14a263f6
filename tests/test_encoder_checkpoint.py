"""Encoder checkpoints: the npz member layout, save/load round trips, and
load-time checks that name the tensor or field a corrupt file gets wrong;
plus the classifier's batched prediction."""
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from finsent.cli import EXIT_DATA, main
from finsent.corpus import LABELS
from finsent.encoder import (
    EncoderConfig,
    EncoderTextClassifier,
    encoder_vocab_size,
    init_adapters,
    init_params,
    load_checkpoint,
    merge_all,
    save_checkpoint,
)
from finsent.encoder import model
from finsent.encoder.lora import VALID_TARGETS
from finsent.features import build_vocabulary

from conftest import NEG, NEU, POS, make_dataset

BLOCK = ["W_Q", "W_K", "W_V", "W_O", "W1", "b1", "W2", "b2",
         "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias"]
PARAM_MEMBERS = (["param::W_e", "param::P", "param::W_o", "param::b_o"]
                 + [f"param::layers.{i}.{name}" for i in range(2) for name in BLOCK])
ADAPTER_MEMBERS = [f"adapter::{target}::{part}"
                   for target in ("layers.0.W_Q", "layers.0.W_V", "layers.1.W_Q",
                                  "layers.1.W_V", "W_o")
                   for part in "AB"]
TEXTS = ["profit rose sharply", "sales fell", "report due on monday", "unseen words"]


def make_classifier(peft: bool) -> EncoderTextClassifier:
    ds = make_dataset([("profit rose sharply", POS), ("sales fell", NEG),
                       ("report due on monday", NEU)])
    vocab = build_vocabulary(ds, min_df=1)
    config = EncoderConfig(vocab_size=encoder_vocab_size(vocab), d_model=8,
                           n_heads=2, d_ff=16, n_layers=2, max_seq_len=8)
    adapters = None
    if peft:
        adapters = init_adapters(config, targets=("W_Q", "W_V", "W_o"), rank=2,
                                 alpha=4.0, seed=1)
        rng = np.random.default_rng(2)
        for ad in adapters.values():
            ad.B[:] = rng.uniform(-0.2, 0.2, ad.B.shape)
    return EncoderTextClassifier(config=config, params=init_params(config, seed=0),
                                 vocab=vocab, max_len=6, adapters=adapters)


class TestFormat:
    def test_peft_member_names_and_order(self, tmp_path):
        path = tmp_path / "peft.npz"
        save_checkpoint(make_classifier(peft=True), path)
        with np.load(path) as npz:
            assert npz.files == PARAM_MEMBERS + ADAPTER_MEMBERS + ["__meta__"]

    def test_merged_member_names_and_order(self, tmp_path):
        path = tmp_path / "merged.npz"
        save_checkpoint(make_classifier(peft=True), path, merged=True)
        with np.load(path) as npz:
            assert npz.files == PARAM_MEMBERS + ["__meta__"]


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["peft", "full", "merged"])
    def test_tensors_and_predictions_bit_identical(self, tmp_path, kind):
        clf = make_classifier(peft=kind != "full")
        path = tmp_path / f"{kind}.npz"
        save_checkpoint(clf, path, merged=kind == "merged")
        loaded = load_checkpoint(path)
        if kind == "merged":
            clf = EncoderTextClassifier(config=clf.config,
                                        params=merge_all(clf.params, clf.adapters),
                                        vocab=clf.vocab, max_len=clf.max_len)
        assert loaded.config == clf.config
        assert loaded.max_len == clf.max_len
        assert loaded.vocab == clf.vocab
        assert list(loaded.params) == list(clf.params)
        for name, tensor in clf.params.items():
            assert loaded.params[name].tobytes() == tensor.tobytes(), name
        assert list(loaded.adapters or {}) == list(clf.adapters or {})
        for target, ad in (clf.adapters or {}).items():
            got = loaded.adapters[target]
            assert (got.rank, got.alpha) == (ad.rank, ad.alpha)
            assert got.A.tobytes() == ad.A.tobytes()
            assert got.B.tobytes() == ad.B.tobytes()
        for text in TEXTS:
            assert loaded.logits(text).tobytes() == clf.logits(text).tobytes()


    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           words=st.lists(st.text("abcdef", min_size=1, max_size=4), min_size=1, max_size=8),
           n_heads=st.integers(1, 3), d_k=st.integers(1, 3), d_ff=st.integers(1, 5),
           n_layers=st.integers(0, 2), max_seq_len=st.integers(1, 6),
           eps=st.floats(1e-12, 1.0),
           targets=st.lists(st.sampled_from(VALID_TARGETS), unique=True, max_size=4),
           rank=st.integers(1, 3), alpha=st.floats(1e-3, 1e3), merged=st.booleans())
    def test_any_checkpoint_round_trips(self, data, words, n_heads, d_k, d_ff, n_layers,
                                        max_seq_len, eps, targets, rank, alpha, merged):
        vocab = build_vocabulary(make_dataset([(w, POS) for w in words]), min_df=1)
        config = EncoderConfig(vocab_size=encoder_vocab_size(vocab), d_model=n_heads * d_k,
                               n_heads=n_heads, d_ff=d_ff, n_layers=n_layers,
                               max_seq_len=max_seq_len, layernorm_eps=eps)
        finite = st.floats(allow_nan=False, width=64)
        params = init_params(config, seed=0)
        for name, tensor in params.items():
            params[name] = data.draw(hnp.arrays(np.float64, tensor.shape, elements=finite))
        adapters = (init_adapters(config, targets=targets, rank=rank, alpha=alpha, seed=1)
                    if "W_o" in targets or (targets and n_layers) else None)
        for ad in (adapters or {}).values():
            ad.A[:] = data.draw(hnp.arrays(np.float64, ad.A.shape, elements=finite))
            ad.B[:] = data.draw(hnp.arrays(np.float64, ad.B.shape, elements=finite))
        clf = EncoderTextClassifier(config=config, params=params, vocab=vocab,
                                    max_len=data.draw(st.integers(1, max_seq_len)),
                                    adapters=adapters)
        # Merging drawn extremes may overflow, into the same inf and nan both times.
        with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
            path = Path(tmp) / "encoder.npz"
            save_checkpoint(clf, path, merged=merged)
            loaded = load_checkpoint(path)
            if merged and adapters:
                params, adapters = merge_all(params, adapters), None
        assert (loaded.config, loaded.max_len, loaded.vocab) == (config, clf.max_len, vocab)
        assert list(loaded.params) == list(params)
        for name, tensor in params.items():
            assert np.array_equal(loaded.params[name], tensor, equal_nan=merged), name
        assert list(loaded.adapters or {}) == list(adapters or {})
        for target, ad in (adapters or {}).items():
            got = loaded.adapters[target]
            assert (got.rank, got.alpha) == (ad.rank, ad.alpha)
            assert np.array_equal(got.A, ad.A) and np.array_equal(got.B, ad.B), target


class TestPredictLabels:
    @pytest.mark.parametrize("budget", [8192, model.SUB_BATCH_BUDGET, 40])
    def test_input_order_and_one_record_calls_agree(self, budget):
        clf = make_classifier(peft=True)
        clf.params["W_o"] *= 20.0  # spread the logits so that labels differ
        rng = np.random.default_rng(3)
        words = list(clf.vocab.tokens) + ["unseen", "words"]
        texts = [" ".join(rng.choice(words, size=int(rng.integers(1, 9))))
                 for _ in range(30)]
        with mock.patch.object(model, "SUB_BATCH_BUDGET", budget):
            labels = clf.predict_labels(texts)
            assert labels == [LABELS[int(np.argmax(clf.logits(text)))] for text in texts]
            assert clf.predict_labels(texts[::-1]) == labels[::-1]
        assert len(set(labels)) > 1

    def test_no_texts_no_labels(self):
        assert make_classifier(peft=False).predict_labels([]) == []


def _rewrite(path, edit):
    """Re-save the checkpoint at `path` after `edit(arrays, meta)`.  The edit
    sees the decoded meta also as `arrays["__meta__"]`, which it may replace
    or delete."""
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays["__meta__"] = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    edit(arrays, arrays["__meta__"])
    if "__meta__" in arrays:
        arrays["__meta__"] = np.frombuffer(json.dumps(arrays["__meta__"]).encode("utf-8"),
                                           dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _drop_meta(arrays, meta):
    del arrays["__meta__"]


def _list_meta(arrays, meta):
    arrays["__meta__"] = [meta]


def _drop_w_q(arrays, meta):
    del arrays["param::layers.0.W_Q"]


def _narrow_w_k(arrays, meta):
    arrays["param::layers.0.W_K"] = arrays["param::layers.0.W_K"][:, :-1]


def _widen_adapter_a(arrays, meta):
    A = arrays["adapter::layers.1.W_V::A"]
    arrays["adapter::layers.1.W_V::A"] = np.zeros((A.shape[0], A.shape[1] + 1))


def _drop_vocab_token(arrays, meta):
    meta["vocab"]["tokens"].pop()
    meta["vocab"]["document_frequency"].pop()


def _long_max_len(arrays, meta):
    meta["max_len"] = meta["config"]["max_seq_len"] + 5


def _unknown_config_key(arrays, meta):
    meta["config"]["dropout"] = 0.1


def _drop_max_len(arrays, meta):
    del meta["max_len"]


def _drop_adapters(arrays, meta):
    del meta["adapters"]


def _drop_adapter_rank(arrays, meta):
    del meta["adapters"]["layers.1.W_V"]["rank"]


def _drop_vocab_tokens(arrays, meta):
    del meta["vocab"]["tokens"]


def _mapping_token(arrays, meta):
    meta["vocab"]["tokens"][0] = {"profit": 1}


def _integer_token(arrays, meta):
    meta["vocab"]["tokens"][0] = 7


def _bool_document_frequency(arrays, meta):
    meta["vocab"]["document_frequency"][0] = True


def _float_document_frequency(arrays, meta):
    meta["vocab"]["document_frequency"][0] = 2.0


def _drop_document_frequency(arrays, meta):
    meta["vocab"]["document_frequency"].pop()


def _string_d_model(arrays, meta):
    meta["config"]["d_model"] = "x"


def _zero_layernorm_eps(arrays, meta):
    meta["config"]["layernorm_eps"] = 0.0


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("edit, named", [
        (_drop_w_q, "layers.0.W_Q"),
        (_narrow_w_k, "layers.0.W_K"),
        (_widen_adapter_a, "layers.1.W_V"),
        (_drop_vocab_token, "vocab_size"),
        (_long_max_len, "max_len"),
        (_unknown_config_key, "dropout"),
        (_drop_max_len, "max_len"),
        (_drop_adapters, "adapters"),
        (_drop_adapter_rank, "rank"),
        (_drop_vocab_tokens, "tokens"),
        (_mapping_token, "vocab needs"),
        (_integer_token, "vocab needs"),
        (_bool_document_frequency, "vocab needs"),
        (_float_document_frequency, "vocab needs"),
        (_drop_document_frequency, "vocab needs"),
        (_string_d_model, "d_model"),
        (_zero_layernorm_eps, "layernorm_eps"),
        (_drop_meta, "lacks its __meta__ member"),
        (_list_meta, "__meta__ is not a mapping"),
    ])
    def test_fails_at_load_naming_the_tensor(self, tmp_path, capsys, edit, named):
        out = tmp_path / "run"
        out.mkdir()
        path = out / "encoder.npz"
        save_checkpoint(make_classifier(peft=True), path)
        _rewrite(path, edit)
        with pytest.raises(ValueError, match=named):
            load_checkpoint(path)
        (out / "test.csv").write_text("sentiment,headline\npositive,Profit rose\n")
        assert main(["predict", "--out", str(out), "--backend", "encoder"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and named in err

    @pytest.mark.parametrize("damage, reason", [
        (lambda data: data[:3000], "File is not a zip file"),
        (lambda data: data[:500] + bytes(b ^ 0xFF for b in data[500:600]) + data[600:],
         "Bad CRC-32 for file 'param::W_e.npy'"),  # inside W_e, the first member
    ], ids=["truncated", "flipped"])
    def test_a_broken_archive_fails_naming_the_path(self, tmp_path, capsys, damage,
                                                    reason):
        out = tmp_path / "run"
        out.mkdir()
        path = out / "encoder.npz"
        save_checkpoint(make_classifier(peft=True), path)
        path.write_bytes(damage(path.read_bytes()))
        (out / "test.csv").write_text("sentiment,headline\npositive,Profit rose\n")
        assert main(["predict", "--out", str(out), "--backend", "encoder"]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: checkpoint {path} is not a readable npz archive: {reason}\n")
