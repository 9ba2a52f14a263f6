import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import erf

from finsent._rng import OP_ENCODER_INIT, substream
from finsent.encoder import (
    EncoderConfig,
    LoraAdapter,
    adapters_to_dict,
    attention,
    batch_logits,
    batch_loss,
    encoder_forward,
    gelu,
    init_adapter,
    init_adapters,
    init_params,
    layer_norm,
    loss_and_grad,
    merge_adapter,
    merge_all,
    multi_head_attention,
    param_shapes,
)
from finsent.encoder import model
from finsent.encoder.lora import VALID_TARGETS

from oracles import encoder_forward_dense, fd_gradients, tensor_rel_error

TINY = EncoderConfig(vocab_size=11, d_model=8, n_heads=2, d_ff=16, n_layers=1,
                     max_seq_len=6)


def tiny_setup(seed=0, adapters=False, nonzero_b=False):
    params = init_params(TINY, seed)
    ads = None
    if adapters:
        ads = init_adapters(TINY, targets=("W_Q", "W_V", "W_o"), rank=2,
                            alpha=4.0, seed=seed + 1)
        if nonzero_b:
            rng = np.random.default_rng(seed + 2)
            for ad in ads.values():
                ad.B[:] = rng.uniform(-0.2, 0.2, ad.B.shape)
    return params, ads


def random_batch(rng, max_len=6, size=2):
    batch = []
    for _ in range(size):
        n = int(rng.integers(2, max_len + 1))
        ids = rng.integers(0, TINY.vocab_size, size=n)
        mask = np.ones(n, dtype=np.int64)
        if n > 2 and rng.random() < 0.5:
            mask[-1] = 0
        batch.append((ids, mask, int(rng.integers(0, 3))))
    return batch


class TestAttention:
    def test_single_position_returns_v(self):
        rng = np.random.default_rng(0)
        Q = rng.normal(size=(1, 4))
        K = rng.normal(size=(1, 4))
        V = rng.normal(size=(1, 3))
        np.testing.assert_allclose(attention(Q, K, V), V, atol=1e-15)

    def test_large_scale_orthonormal_attends_to_self(self):
        # Q = K = 100 * I: score matrix strongly favours the diagonal
        Q = np.eye(4) * 100.0
        V = np.random.default_rng(1).normal(size=(4, 4))
        out = attention(Q, Q, V)
        np.testing.assert_allclose(out, V, atol=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            Q = rng.normal(size=(n, 5))
            K = rng.normal(size=(n, 5))
            V = rng.normal(size=(n, 3))
            mask = rng.integers(0, 2, size=n)
            if not mask.any():
                mask[0] = 1
            _, weights = attention(Q, K, V, mask, return_weights=True)
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-6)

    def test_masked_columns_get_zero_weight(self):
        rng = np.random.default_rng(3)
        Q = rng.normal(size=(4, 5))
        K = rng.normal(size=(4, 5))
        V = rng.normal(size=(4, 2))
        mask = np.array([1, 0, 1, 0])
        _, weights = attention(Q, K, V, mask, return_weights=True)
        assert np.all(weights[:, 1] == 0.0)
        assert np.all(weights[:, 3] == 0.0)

    def test_output_within_v_envelope(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            Q = rng.normal(size=(5, 3))
            K = rng.normal(size=(5, 3))
            V = rng.normal(size=(5, 4))
            mask = np.array([1, 1, 0, 1, 1])
            out = attention(Q, K, V, mask)
            sub = V[mask == 1]
            assert np.all(out >= sub.min(axis=0) - 1e-12)
            assert np.all(out <= sub.max(axis=0) + 1e-12)

    def test_all_masked_rejected(self):
        Q = np.zeros((2, 3))
        with pytest.raises(ValueError, match="masked"):
            attention(Q, Q, Q, mask=np.zeros(2))


class TestMultiHeadAttention:
    def test_single_head_reduction(self):
        params, _ = tiny_setup(seed=5)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(4, 8))
        got = multi_head_attention(X, params, 0, n_heads=1)
        want = attention(X @ params["layers.0.W_Q"], X @ params["layers.0.W_K"],
                         X @ params["layers.0.W_V"]) @ params["layers.0.W_O"]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_zero_wo_gives_zero(self):
        params, _ = tiny_setup(seed=7)
        params["layers.0.W_O"][:] = 0.0
        X = np.random.default_rng(8).normal(size=(3, 8))
        np.testing.assert_allclose(multi_head_attention(X, params, 0, 2), 0.0)

    def test_matches_bruteforce_on_random_input(self):
        params, _ = tiny_setup(seed=9)
        rng = np.random.default_rng(10)
        X = rng.normal(size=(4, 8))
        got = multi_head_attention(X, params, 0, n_heads=2)
        # brute force: loop positions and heads directly
        d_k = 4
        want = np.zeros((4, 8))
        Q, K, V = (X @ params["layers.0.W_Q"], X @ params["layers.0.W_K"],
                   X @ params["layers.0.W_V"])
        concat = np.zeros((4, 8))
        for h in range(2):
            sl = slice(h * d_k, (h + 1) * d_k)
            for i in range(4):
                scores = [Q[i, sl] @ K[j, sl] / math.sqrt(d_k) for j in range(4)]
                m = max(scores)
                exps = [math.exp(s - m) for s in scores]
                z = sum(exps)
                for j in range(4):
                    concat[i, sl] += exps[j] / z * V[j, sl]
        want = concat @ params["layers.0.W_O"]
        np.testing.assert_allclose(got, want, atol=1e-9)


class TestLayerNorm:
    def test_constant_vector_zeros(self):
        out = layer_norm(np.full(8, 3.3), np.ones(8), np.zeros(8), eps=1e-5)
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_pre_affine_standardization(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.normal(loc=rng.normal() * 3, scale=rng.random() * 2 + 0.5,
                           size=64)
            out = layer_norm(x, np.ones(64), np.zeros(64), eps=1e-5)
            assert abs(out.mean()) <= 1e-6
            assert abs(out.var() - 1.0) <= 1e-4

    def test_zero_gain_returns_bias(self):
        rng = np.random.default_rng(12)
        bias = rng.normal(size=8)
        out = layer_norm(rng.normal(size=8), np.zeros(8), bias, eps=1e-5)
        np.testing.assert_allclose(out, bias, atol=1e-15)

    def test_batched_rows(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(5, 8))
        gain, bias = rng.normal(size=8), rng.normal(size=8)
        got = layer_norm(X, gain, bias)
        for i in range(5):
            np.testing.assert_allclose(got[i], layer_norm(X[i], gain, bias),
                                       atol=1e-12)


def _rows(elements, max_rows=5, max_width=40):
    return arrays(np.float64, st.tuples(st.integers(1, max_rows), st.integers(1, max_width)),
                  elements=elements)


FINITE = st.floats(-1e6, 1e6)
# Random rows, and constant rows (variance 0).
LN_ROWS = st.one_of(_rows(FINITE), st.tuples(st.integers(1, 5), st.integers(1, 40),
                                              FINITE).map(lambda t: np.full(t[:2], t[2])))


class TestKernelsBitForBit:
    """The encoder's kernels against the textbook formulas, written as numpy
    evaluated them before the kernels were fused: equal bit for bit, not
    within a tolerance."""

    @settings(max_examples=150, deadline=None)
    @given(x=LN_ROWS, seed=st.integers(0, 2**32 - 1))
    def test_ln_fwd_is_the_textbook_layernorm(self, x, seed):
        gain, bias = np.random.default_rng(seed).normal(size=(2, x.shape[1]))
        before = x.copy()
        eps = 1e-5
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
        xhat = (x - x.mean(axis=-1, keepdims=True)) * inv
        y, (got_xhat, got_inv) = model._ln_fwd(x, gain, bias, eps)
        assert np.array_equal(y, xhat * gain + bias)
        assert np.array_equal(got_xhat, xhat) and np.array_equal(got_inv, inv)
        assert np.array_equal(x, before)

    @settings(max_examples=150, deadline=None)
    @given(x=arrays(np.float64, st.integers(0, 60),
                    elements=st.floats(-60.0, 60.0) | st.sampled_from([0.0, -0.0, 5e-324])))
    def test_gelu_and_its_slope_from_the_cached_phi(self, x):
        cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
        slope = cdf + x * (np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi)))
        cached = model._phi(x)
        assert np.array_equal(cached, cdf)
        assert np.array_equal(gelu(x), 0.5 * x * (1.0 + erf(x * (1.0 / math.sqrt(2.0)))))
        assert np.array_equal(x * cached, gelu(x))  # G as the backward rebuilds it
        assert np.array_equal(model._gelu_slope(x, cached), slope)

    @settings(max_examples=100, deadline=None)
    @given(x=_rows(st.floats(-1e3, 1e3) | st.just(-np.inf), max_width=12))
    def test_softmax_rows_leaves_its_input_as_it_is(self, x):
        assume(np.isfinite(x).any(axis=-1).all())
        before = x.copy()
        got = model.softmax_rows(x)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        assert np.array_equal(got, e / e.sum(axis=-1, keepdims=True))
        assert np.array_equal(x, before) and not np.shares_memory(got, x)

    def test_softmax_rows_of_integer_scores_is_the_float_softmax(self):
        scores = np.array([[2, 0, 1], [5, 5, -3]])
        assert np.array_equal(model.softmax_rows(scores),
                              model.softmax_rows(scores.astype(np.float64)))
        assert model.softmax_rows(scores.astype(np.float32)).dtype == np.float32
        assert model.mean_nll([[2, 0, 1]], [0]) == model.mean_nll([[2.0, 0.0, 1.0]], [0])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7))
    def test_masked_attention_is_the_where_formula(self, seed, n):
        rng = np.random.default_rng(seed)
        Q, K, V = rng.normal(size=(3, 2, 3, n, 4))
        mask = (rng.random((2, 1, 1, n)) < 0.6).astype(np.int64)
        mask[..., rng.integers(0, n)] = 1
        scores = np.where(mask != 0, Q @ np.swapaxes(K, -1, -2) * (1.0 / math.sqrt(4)),
                          -np.inf)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = e / e.sum(axis=-1, keepdims=True)
        out, got = attention(Q, K, V, mask, return_weights=True)
        assert np.array_equal(got, weights) and np.array_equal(out, weights @ V)


class TestEncoderForward:
    def test_zero_layers_closed_form(self):
        config = EncoderConfig(vocab_size=11, d_model=8, n_heads=2, d_ff=16,
                               n_layers=0, max_seq_len=6)
        params = init_params(config, seed=14)
        ids = np.array([1, 4, 9])
        mask = np.array([1, 1, 0])
        logits = encoder_forward(ids, mask, params, config)
        pooled = (params["W_e"][ids] + params["P"][:3])[:2].mean(axis=0)
        want = pooled @ params["W_o"] + params["b_o"]
        np.testing.assert_allclose(logits, want, atol=1e-12)

    def test_all_pad_mask_rejected(self):
        params, _ = tiny_setup()
        with pytest.raises(ValueError, match="unmasked"):
            encoder_forward(np.array([1, 2]), np.array([0, 0]), params, TINY)

    def test_id_out_of_range(self):
        params, _ = tiny_setup()
        with pytest.raises(ValueError, match="out of range"):
            encoder_forward(np.array([11]), np.array([1]), params, TINY)

    def test_too_long_sequence(self):
        params, _ = tiny_setup()
        with pytest.raises(ValueError, match="max_seq_len"):
            encoder_forward(np.arange(7) % 11, np.ones(7, dtype=int), params, TINY)

    def test_matches_dense_reimplementation(self):
        rng = np.random.default_rng(15)
        for seed in range(20):
            params, ads = tiny_setup(seed=seed, adapters=(seed % 2 == 0),
                                     nonzero_b=True)
            n = int(rng.integers(2, 7))
            ids = rng.integers(0, TINY.vocab_size, size=n)
            mask = np.ones(n, dtype=np.int64)
            if n > 2:
                mask[-1] = 0
            got = encoder_forward(ids, mask, params, TINY, ads)
            tensors = params.to_dict()
            deltas = {target: ad.delta() for target, ad in (ads or {}).items()}
            want = encoder_forward_dense(ids.tolist(), mask.tolist(), tensors,
                                         deltas, TINY)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_loss_near_ln3_at_small_init_scale(self):
        rng = np.random.default_rng(16)
        losses = []
        for seed in range(10):
            params, _ = tiny_setup(seed=seed)
            params["W_o"] *= 0.1  # small output scale keeps logits near zero
            batch = random_batch(rng, size=4)
            losses.append(batch_loss(params, batch, TINY))
        assert all(abs(l - math.log(3)) <= 0.2 for l in losses)


    def test_one_layer_is_composed_of_the_public_kernels(self):
        rng = np.random.default_rng(24)
        eps = TINY.layernorm_eps
        for seed in range(10):
            params, _ = tiny_setup(seed=seed)
            n = int(rng.integers(2, 7))
            ids = rng.integers(0, TINY.vocab_size, size=n)
            mask = np.ones(n, dtype=np.int64)
            if n > 2:
                mask[-1] = 0
            X = params["W_e"][ids] + params["P"][:n]
            M = multi_head_attention(X, params, 0, TINY.n_heads, mask)
            Z = layer_norm(X + M, params["layers.0.ln1_gain"],
                           params["layers.0.ln1_bias"], eps)
            F = (gelu(Z @ params["layers.0.W1"] + params["layers.0.b1"])
                 @ params["layers.0.W2"] + params["layers.0.b2"])
            H = layer_norm(Z + F, params["layers.0.ln2_gain"],
                           params["layers.0.ln2_bias"], eps)
            want = H[mask == 1].mean(axis=0) @ params["W_o"] + params["b_o"]
            got = encoder_forward(ids, mask, params, TINY)
            assert float(np.max(np.abs(got - want))) <= 1e-12

class TestGradients:
    def test_every_tensor_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        params, ads = tiny_setup(seed=3, adapters=True, nonzero_b=True)
        batch = random_batch(rng, size=2)
        _, grads = loss_and_grad(params, batch, TINY, ads, peft_mode=False)

        tensors = dict(params.to_dict())
        tensors.update(adapters_to_dict(ads))
        numeric = fd_gradients(lambda: batch_loss(params, batch, TINY, ads),
                               tensors, eps=1e-4)
        for name, num in numeric.items():
            rel = tensor_rel_error(grads[name], num)
            assert rel <= 1e-4, f"{name}: rel err {rel}"

    def test_peft_mode_returns_only_adapter_grads(self):
        rng = np.random.default_rng(18)
        params, ads = tiny_setup(seed=4, adapters=True)
        batch = random_batch(rng, size=2)
        _, grads = loss_and_grad(params, batch, TINY, ads, peft_mode=True)
        assert grads
        assert all(name.startswith("adapters.") for name in grads)

    def test_peft_mode_requires_adapters(self):
        params, _ = tiny_setup()
        with pytest.raises(ValueError):
            loss_and_grad(params, random_batch(np.random.default_rng(0)),
                          TINY, None, peft_mode=True)

    def test_empty_batch_rejected(self):
        params, _ = tiny_setup()
        with pytest.raises(ValueError):
            loss_and_grad(params, [], TINY)


def ragged_rows(rng, size, width=6):
    """`size` (ids, mask, label) rows of random real length, some with a
    masked last position, each also padded to `width` with random ids."""
    rows, padded = [], []
    for _ in range(size):
        n = int(rng.integers(1, width + 1))
        ids = rng.integers(0, TINY.vocab_size, size=n)
        mask = np.ones(n, dtype=np.int64)
        if n > 1 and rng.random() < 0.5:
            mask[-1] = 0
        rows.append((ids, mask, int(rng.integers(0, 3))))
        padded.append((np.concatenate([ids, rng.integers(0, TINY.vocab_size, width - n)]),
                       np.concatenate([mask, np.zeros(width - n, dtype=np.int64)])))
    ids, mask = (np.array(col) for col in zip(*padded))
    return rows, ids, mask


def assert_grads_close(got, want, atol=1e-12):
    assert set(got) == set(want)
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=atol, err_msg=name)


class TestBatching:
    def test_ragged_batch_logits_equal_each_rows_own_forward(self):
        rng = np.random.default_rng(30)
        for seed in range(10):
            params, ads = tiny_setup(seed=seed, adapters=(seed % 2 == 0), nonzero_b=True)
            rows, ids, mask = ragged_rows(rng, size=7)
            for got in (encoder_forward(ids, mask, params, TINY, ads),
                        batch_logits(ids, mask, params, TINY, ads)):
                assert got.shape == (7, TINY.n_classes)
                for i, (row_ids, row_mask, _) in enumerate(rows):
                    want = encoder_forward(row_ids, row_mask, params, TINY, ads)
                    assert float(np.max(np.abs(got[i] - want))) <= 1e-12

    @pytest.mark.parametrize("budget", [model.SUB_BATCH_BUDGET, TINY.d_model * 6])
    @pytest.mark.parametrize("adapters", [False, True])
    def test_forward_only_logits_equal_the_cached_passes_bit_for_bit(self, budget,
                                                                    adapters):
        """The forward-only pass runs the training pass's arithmetic: the logits
        of `return_cache=False` (and of `batch_logits`, which runs it per
        sub-batch) are those of `return_cache=True`, bit for bit."""
        rng = np.random.default_rng(35)
        config = dataclasses.replace(TINY, n_layers=2)
        for seed in range(6):
            params = init_params(config, seed)
            ads = None
            if adapters:
                ads = init_adapters(config, targets=VALID_TARGETS, rank=2, alpha=4.0,
                                    seed=seed + 1)
                for ad in ads.values():
                    ad.B[:] = rng.uniform(-0.2, 0.2, ad.B.shape)
            _, ids, mask = ragged_rows(rng, size=7)
            with mock.patch.object(model, "SUB_BATCH_BUDGET", budget):
                subs = model._sub_batches(mask, config.d_model)
                logits = batch_logits(ids, mask, params, config, ads)
            assert (len(subs) > 1) == (budget < model.SUB_BATCH_BUDGET)
            want = np.empty_like(logits)
            for rows in subs:
                want[rows], _ = encoder_forward(ids[rows], mask[rows], params, config, ads,
                                                return_cache=True)
                assert np.array_equal(
                    encoder_forward(ids[rows], mask[rows], params, config, ads), want[rows])
            assert np.array_equal(logits, want)
            cached, _ = encoder_forward(ids, mask, params, config, ads, return_cache=True)
            assert np.array_equal(encoder_forward(ids, mask, params, config, ads), cached)

    def test_padding_to_max_seq_len_equals_the_trimmed_batch(self):
        rng = np.random.default_rng(31)
        for seed in range(10):
            params, ads = tiny_setup(seed=seed, adapters=True, nonzero_b=True)
            _, ids, mask = ragged_rows(rng, size=5)
            used = int(np.max(np.nonzero(mask.any(axis=0))[0])) + 1
            padded = encoder_forward(ids, mask, params, TINY, ads)
            trimmed = encoder_forward(ids[:, :used], mask[:, :used], params, TINY, ads)
            assert float(np.max(np.abs(padded - trimmed))) <= 1e-12

    def test_weighted_group_equals_mean_of_microbatch_calls(self):
        rng = np.random.default_rng(32)
        params, ads = tiny_setup(seed=5, adapters=True, nonzero_b=True)
        rows, _, _ = ragged_rows(rng, size=8)
        micros = [rows[0:3], rows[3:6], rows[6:8]]  # the last one is short
        weights = [1.0 / (len(m) * len(micros)) for m in micros for _ in m]
        loss, grads = loss_and_grad(params, rows, TINY, ads, weights=weights)
        parts = [loss_and_grad(params, m, TINY, ads) for m in micros]
        assert abs(loss - sum(l for l, _ in parts) / 3) <= 1e-12
        assert_grads_close(grads, {name: sum(g[name] for _, g in parts) / 3
                                   for name in parts[0][1]})

    # W_o alone leaves no layer to differentiate; W2 alone leaves the lowest
    # layer's attention without a gradient to carry.
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("targets", [("W_Q", "W_V"), ("W_K",), VALID_TARGETS,
                                         ("W_o",), ("W2",)],
                             ids=["W_Q,W_V", "W_K", "all", "W_o", "W2"])
    def test_peft_mode_returns_exactly_the_full_paths_adapter_grads(self, targets,
                                                                     n_layers):
        rng = np.random.default_rng(33)
        config = dataclasses.replace(TINY, n_layers=n_layers)
        params = init_params(config, 6)
        ads = init_adapters(config, targets=targets, rank=2, alpha=4.0, seed=7)
        for ad in ads.values():
            ad.B[:] = rng.uniform(-0.2, 0.2, ad.B.shape)
        rows, _, _ = ragged_rows(rng, size=6)
        peft_loss, peft = loss_and_grad(params, rows, config, ads, peft_mode=True)
        full_loss, full = loss_and_grad(params, rows, config, ads, peft_mode=False)
        assert set(peft) == set(adapters_to_dict(ads))
        assert peft_loss == full_loss
        for name, g in peft.items():
            np.testing.assert_array_equal(g, full[name], err_msg=name)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 9),
           budget=st.integers(1, 400))
    def test_any_sub_batch_budget_gives_the_same_results(self, seed, size, budget):
        rng = np.random.default_rng(seed)
        params, ads = tiny_setup(seed=seed % 7, adapters=True, nonzero_b=True)
        rows, ids, mask = ragged_rows(rng, size=size)
        weights = rng.random(size)
        want_loss, want = loss_and_grad(params, rows, TINY, ads, weights=weights)
        with mock.patch.object(model, "SUB_BATCH_BUDGET", budget):
            loss, grads = loss_and_grad(params, rows, TINY, ads, weights=weights)
            logits = batch_logits(ids, mask, params, TINY, ads)
        assert abs(loss - want_loss) <= 1e-12
        assert_grads_close(grads, want)
        for i, (row_ids, row_mask, _) in enumerate(rows):
            own = encoder_forward(row_ids, row_mask, params, TINY, ads)
            assert float(np.max(np.abs(logits[i] - own))) <= 1e-12

    def test_peft_sub_batches_give_exactly_the_adapter_grads_of_one(self):
        rng = np.random.default_rng(41)
        params, ads = tiny_setup(seed=3, adapters=True, nonzero_b=True)
        rows, _, mask = ragged_rows(rng, size=8)
        weights = rng.random(8)
        want_loss, want = loss_and_grad(params, rows, TINY, ads, peft_mode=True,
                                        weights=weights)
        with mock.patch.object(model, "SUB_BATCH_BUDGET", 2 * TINY.d_model * 6):
            assert len(model._sub_batches(mask, TINY.d_model)) > 2
            loss, grads = loss_and_grad(params, rows, TINY, ads, peft_mode=True,
                                        weights=weights)
        assert set(grads) == set(adapters_to_dict(ads))
        assert abs(loss - want_loss) <= 1e-12
        assert_grads_close(grads, want)

    @pytest.mark.parametrize("peft", [False, True])
    def test_successive_calls_return_independent_arrays(self, peft):
        rng = np.random.default_rng(5)
        params, ads = tiny_setup(seed=2, adapters=True, nonzero_b=True)
        tensors = {**params, **adapters_to_dict(ads)}
        rows, _, _ = ragged_rows(rng, size=5)
        with mock.patch.object(model, "SUB_BATCH_BUDGET", TINY.d_model * 6):
            _, first = loss_and_grad(params, rows, TINY, ads, peft_mode=peft)
            kept = {name: g.copy() for name, g in first.items()}
            _, second = loss_and_grad(params, rows[::-1], TINY, ads, peft_mode=peft)
        for name, g in first.items():
            assert not np.shares_memory(g, second[name]), name
            np.testing.assert_array_equal(g, kept[name], err_msg=name)
            for t_name, t in tensors.items():
                assert not np.shares_memory(g, t), (name, t_name)
            for other, h in first.items():
                assert other == name or not np.shares_memory(g, h), (name, other)

    @pytest.mark.parametrize("peft", [False, True])
    def test_backward_consumes_the_layer_activations(self, peft):
        config = dataclasses.replace(TINY, n_layers=3)
        params = init_params(config, 4)
        ads = init_adapters(config, targets=("W_Q", "W1", "W_o"), rank=2, alpha=4.0,
                            seed=5)
        ids = np.array([[1, 2, 3, 4], [5, 6, 7, 0]])
        mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0]])
        logits, cache = encoder_forward(ids, mask, params, config, ads,
                                        return_cache=True)
        assert len(cache["layers"]) == 3
        grads = model.encoder_backward(np.ones_like(logits), cache, params, config, ads,
                                       peft_mode=peft)
        assert cache["layers"] == []
        assert set(grads) == (set() if peft else set(params)) | set(adapters_to_dict(ads))

    def test_each_row_is_checked(self):
        params, _ = tiny_setup()
        ids = np.array([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError, match="unmasked"):
            encoder_forward(ids, np.array([[1, 1, 0], [0, 0, 0]]), params, TINY)
        with pytest.raises(ValueError, match="out of range"):
            encoder_forward(np.array([[1, 2, 3], [4, 5, 11]]), np.ones((2, 3)),
                            params, TINY)
        with pytest.raises(ValueError, match="max_seq_len"):
            loss_and_grad(params, [(np.arange(3), np.ones(3), 0),
                                   (np.arange(7) % 11, np.ones(7), 1)], TINY)


class TestParts:
    """`loss_and_grad` and `batch_logits` cut the sub-batches into two parts;
    the gradients are the second part's sum plus the first part's."""

    @pytest.mark.parametrize("peft", [False, True])
    def test_loss_and_grad_is_the_second_parts_sum_plus_the_firsts(self, peft):
        rng = np.random.default_rng(50)
        params, ads = tiny_setup(seed=4, adapters=True, nonzero_b=True)
        rows, _, _ = ragged_rows(rng, size=9)
        weights = rng.random(9)
        ids, mask, labels = model._stack(rows)
        with mock.patch.object(model, "SUB_BATCH_BUDGET", TINY.d_model * 6):
            first, second = model._parts(model._sub_batches(mask, TINY.d_model), mask)
            loss, grads = loss_and_grad(params, rows, TINY, ads, peft_mode=peft,
                                        weights=weights)
        assert len(first) >= 1 and len(second) >= 1
        sums, nll = [], np.empty(9)
        for part in (second, first):
            acc = model.zero_grads(params, ads, peft)
            for sub in part:
                logits, cache = encoder_forward(ids[sub], mask[sub], params, TINY, ads,
                                                return_cache=True)
                probs = model.softmax_rows(logits)
                nll[sub] = model._nll(probs, labels[sub])
                probs[np.arange(len(sub)), labels[sub]] -= 1.0
                model.encoder_backward(probs * weights[sub, None], cache, params, TINY,
                                       ads, peft_mode=peft, grads=acc)
            sums.append(acc)
        want = {name: g + sums[1][name] for name, g in sums[0].items()}
        assert list(grads) == list(want)
        for name, g in want.items():
            assert np.array_equal(grads[name], g), name
        assert loss == float(weights @ nll)

    def test_a_single_sub_batch_is_all_second_part(self):
        subs = [np.array([2, 0, 1])]
        assert model._parts(subs, np.ones((3, 4))) == ([], subs)

    def test_the_cut_balances_rows_times_trimmed_length(self):
        mask = np.zeros((6, 8), dtype=np.int64)
        for row, length in enumerate([1, 1, 2, 2, 4, 8]):
            mask[row, :length] = 1
        subs = [np.array([0, 1]), np.array([2, 3]), np.array([4]), np.array([5])]
        first, second = model._parts(subs, mask)  # costs 2, 4, 4, 8
        assert [list(rows) for rows in first] == [[0, 1], [2, 3], [4]]
        assert [list(rows) for rows in second] == [[5]]


class TestLora:
    def test_zero_init_adapter_is_noop(self):
        rng = np.random.default_rng(19)
        params, ads = tiny_setup(seed=6, adapters=True)  # B = 0
        batch = random_batch(rng, size=3)
        for ids, mask, _ in batch:
            base = encoder_forward(ids, mask, params, TINY)
            adapted = encoder_forward(ids, mask, params, TINY, ads)
            np.testing.assert_allclose(adapted, base, atol=1e-12)

    def test_merge_b_zero_returns_w(self):
        rng = np.random.default_rng(20)
        W = rng.normal(size=(6, 4))
        ad = init_adapter((6, 4), rank=2, alpha=4.0, rng=rng)
        np.testing.assert_array_equal(merge_adapter(W, ad), W)

    def test_merge_rank_one_outer_product(self):
        rng = np.random.default_rng(21)
        W = rng.normal(size=(5, 3))
        u = rng.normal(size=3)
        v = rng.normal(size=5)
        ad = LoraAdapter(A=u[None, :], B=v[:, None], rank=1, alpha=1.0)
        np.testing.assert_allclose(merge_adapter(W, ad), W + np.outer(v, u),
                                   atol=1e-15)

    def test_merge_shape_mismatch(self):
        rng = np.random.default_rng(22)
        ad = init_adapter((6, 4), rank=2, alpha=4.0, rng=rng)
        with pytest.raises(ValueError):
            merge_adapter(np.zeros((5, 4)), ad)

    def test_merged_forward_equals_adapted_forward(self):
        rng = np.random.default_rng(23)
        params, ads = tiny_setup(seed=8, adapters=True, nonzero_b=True)
        merged = merge_all(params, ads)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            ids = rng.integers(0, TINY.vocab_size, size=n)
            mask = np.ones(n, dtype=np.int64)
            adapted = encoder_forward(ids, mask, params, TINY, ads)
            dense = encoder_forward(ids, mask, merged, TINY)
            np.testing.assert_allclose(dense, adapted, atol=1e-12)

    def test_adapter_rank_validation(self):
        with pytest.raises(ValueError):
            LoraAdapter(A=np.zeros((2, 3)), B=np.zeros((4, 2)), rank=0, alpha=1.0)
        with pytest.raises(ValueError):
            LoraAdapter(A=np.zeros((3, 3)), B=np.zeros((4, 2)), rank=2, alpha=1.0)

    def test_init_adapters_targets(self):
        ads = init_adapters(TINY, targets=("W_Q", "W_V", "W_o"), rank=2,
                            alpha=4.0, seed=0)
        assert set(ads) == {"layers.0.W_Q", "layers.0.W_V", "W_o"}
        with pytest.raises(ValueError, match="unknown adapter target"):
            init_adapters(TINY, targets=("W_X",))


class TestParamsContainer:
    def test_to_dict_returns_references(self):
        params, _ = tiny_setup(seed=11)
        params.to_dict()["W_e"][0, 0] = 123.0
        assert params["W_e"][0, 0] == 123.0

    def test_copy_is_deep(self):
        params, _ = tiny_setup(seed=12)
        clone = params.copy()
        clone["W_e"][0, 0] += 1.0
        assert params["W_e"][0, 0] != clone["W_e"][0, 0]

    def test_param_shapes_match_init_params_and_adapters(self):
        config = EncoderConfig(vocab_size=11, d_model=8, n_heads=2, d_ff=16,
                               n_layers=2, max_seq_len=6)
        shapes = param_shapes(config)
        params = init_params(config, seed=0)
        assert list(params) == list(shapes)
        assert {name: t.shape for name, t in params.items()} == shapes
        ads = init_adapters(config, targets=VALID_TARGETS, rank=2, alpha=4.0)
        assert len(ads) == 2 * 6 + 1
        assert {name: (ad.B.shape[0], ad.A.shape[1]) for name, ad in ads.items()} \
            == {name: shapes[name] for name in ads}

    def test_init_draws_blocks_first_then_embeddings_and_head(self):
        config = EncoderConfig(vocab_size=11, d_model=8, n_heads=2, d_ff=16,
                               n_layers=2, max_seq_len=6)
        params = init_params(config, seed=3)
        rng = substream(3, OP_ENCODER_INIT)
        order = [f"layers.{i}.{name}" for i in range(2)
                 for name in ("W_Q", "W_K", "W_V", "W_O", "W1", "W2")]
        for name in order + ["W_e", "P", "W_o"]:
            bound = 1.0 / math.sqrt(16 if name.endswith("W2") else 8)
            want = rng.uniform(-bound, bound, size=params[name].shape)
            np.testing.assert_array_equal(params[name], want)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, d_model=8, n_heads=3)
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=0)
