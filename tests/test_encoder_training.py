import dataclasses
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsent import _fork
from finsent._rng import OP_ENCODER_TRAIN, substream
from finsent.encoder import model
from finsent.encoder import train as train_mod
from finsent.encoder import (
    AdamWConfig,
    EncoderConfig,
    OptimizerState,
    TrainConfig,
    adamw_step,
    adapters_to_dict,
    batch_logits,
    batch_loss,
    init_adapters,
    init_params,
    loss_and_grad,
    lr_at,
    trace_to_csv,
    train_loop,
)

TINY = EncoderConfig(vocab_size=11, d_model=8, n_heads=2, d_ff=16, n_layers=1,
                     max_seq_len=6)


def make_examples(n, seed=0, max_len=6):
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n):
        length = int(rng.integers(2, max_len + 1))
        ids = rng.integers(0, TINY.vocab_size, size=length)
        mask = np.ones(length, dtype=np.int64)
        examples.append((ids, mask, int(rng.integers(0, 3))))
    return examples


class TestLrSchedule:
    CFG = dict(base_lr=2e-4, warmup_ratio=0.03)

    def test_endpoints(self):
        total = 1000
        warmup = math.ceil(0.03 * total)
        assert lr_at(0, total, **self.CFG) == 0.0
        assert lr_at(warmup, total, **self.CFG) == 2e-4
        assert lr_at(total, total, **self.CFG) == 0.0

    def test_peak_is_base_lr(self):
        total = 500
        values = [lr_at(s, total, **self.CFG) for s in range(total + 1)]
        assert max(values) == 2e-4

    def test_continuity(self):
        total = 400
        values = [lr_at(s, total, **self.CFG) for s in range(total + 1)]
        max_jump = max(abs(b - a) for a, b in zip(values, values[1:]))
        # one-step jumps bounded by the steeper of the two linear slopes
        warmup = math.ceil(0.03 * total)
        assert max_jump <= 2e-4 / warmup + 1e-18

    def test_linear_ramp_and_decay(self):
        total = 200
        warmup = math.ceil(0.03 * total)  # 6
        assert lr_at(3, total, **self.CFG) == pytest.approx(2e-4 * 3 / warmup)
        mid = (total + warmup) // 2
        assert lr_at(mid, total, **self.CFG) == pytest.approx(
            2e-4 * (total - mid) / (total - warmup))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lr_at(-1, 10, **self.CFG)
        with pytest.raises(ValueError):
            lr_at(11, 10, **self.CFG)

    def test_zero_warmup_ratio(self):
        # degenerate ramp: schedule starts at base_lr and decays
        assert lr_at(0, 10, base_lr=1e-3, warmup_ratio=0.0) == 1e-3
        assert lr_at(10, 10, base_lr=1e-3, warmup_ratio=0.0) == 0.0


class TestAdamW:
    def test_zero_grad_zero_decay_unchanged(self):
        tensors = {"w": np.array([[1.0, -2.0]])}
        state = OptimizerState(hyper=AdamWConfig(lr=0.1, weight_decay=0.0))
        adamw_step(tensors, {"w": np.zeros((1, 2))}, state)
        np.testing.assert_array_equal(tensors["w"], [[1.0, -2.0]])

    def test_first_step_moves_by_lr(self):
        # bias correction makes m_hat/sqrt(v_hat) = sign(g) at t=1
        for g in (0.7, -3.0, 12.5):
            tensors = {"w": np.array([[0.0]])}
            state = OptimizerState(hyper=AdamWConfig(lr=1e-3, weight_decay=0.0))
            adamw_step(tensors, {"w": np.array([[g]])}, state)
            expected = -1e-3 * g / (abs(g) + 1e-8)
            assert tensors["w"][0, 0] == pytest.approx(expected, rel=1e-6)

    def test_decay_only_shrinks_weights(self):
        tensors = {"w": np.array([[2.0, -4.0]])}
        state = OptimizerState(hyper=AdamWConfig(lr=0.01, weight_decay=0.1))
        adamw_step(tensors, {"w": np.zeros((1, 2))}, state)
        np.testing.assert_allclose(tensors["w"],
                                   np.array([[2.0, -4.0]]) * (1 - 0.01 * 0.1))

    def test_biases_and_gains_not_decayed(self):
        tensors = {"b": np.array([2.0, -4.0])}  # 1-D: no decay
        state = OptimizerState(hyper=AdamWConfig(lr=0.01, weight_decay=0.1))
        adamw_step(tensors, {"b": np.zeros(2)}, state)
        np.testing.assert_array_equal(tensors["b"], [2.0, -4.0])

    def test_non_finite_gradient_aborts_before_update(self):
        tensors = {"w": np.array([[1.0]]), "u": np.array([[2.0]])}
        state = OptimizerState(hyper=AdamWConfig(lr=0.1))
        grads = {"w": np.array([[0.5]]), "u": np.array([[np.nan]])}
        with pytest.raises(ValueError, match="non-finite"):
            adamw_step(tensors, grads, state)
        np.testing.assert_array_equal(tensors["w"], [[1.0]])
        np.testing.assert_array_equal(tensors["u"], [[2.0]])
        assert state.step == 0

    def test_bit_identical_to_the_textbook_formula(self):
        def textbook(tensors, grads, m, v, t, h, lr):
            bc1, bc2 = 1.0 - h.beta1 ** t, 1.0 - h.beta2 ** t
            for name, g in grads.items():
                p = tensors[name]
                m[name] = h.beta1 * m[name] + (1.0 - h.beta1) * g
                v[name] = h.beta2 * v[name] + (1.0 - h.beta2) * (g * g)
                update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + h.eps)
                if h.weight_decay and p.ndim >= 2:
                    update = update + h.weight_decay * p
                tensors[name] = p - lr * update

        rng = np.random.default_rng(9)
        # Steps as large as the tensors, so that a last-bit change in the
        # update reaches them.
        hyper = AdamWConfig(lr=0.5, weight_decay=0.05)
        want = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=5)}
        got = {name: t.copy() for name, t in want.items()}
        m = {name: np.zeros_like(t) for name, t in want.items()}
        v = {name: np.zeros_like(t) for name, t in want.items()}
        state = OptimizerState(hyper=hyper)
        for t in range(1, 6):
            grads = {name: rng.normal(scale=10.0 ** -t, size=x.shape)
                     for name, x in want.items()}
            lr = hyper.lr * (1.0 - 0.1 * t)
            textbook(want, grads, m, v, t, hyper, lr)
            adamw_step(got, grads, state, lr=lr)
        assert state.step == 5
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
            assert state.m[name].tobytes() == m[name].tobytes(), name
            assert state.v[name].tobytes() == v[name].tobytes(), name

    def test_unknown_or_mismatched_gradient(self):
        state = OptimizerState()
        with pytest.raises(KeyError):
            adamw_step({"w": np.zeros(2)}, {"x": np.zeros(2)}, state)
        with pytest.raises(ValueError, match="shape"):
            adamw_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, state)


class TestFlatStep:
    """`train_loop`'s AdamW: one `adamw_step` call over entries of the flat
    vector (`train.Trainable.step`), in two ranges as parent and peer run it."""

    VALUES = st.one_of(st.sampled_from([0.0, -0.0]),
                       st.floats(-10.0, 10.0, allow_nan=False, width=64))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_equals_per_tensor_adamw_bit_for_bit(self, data):
        shapes = data.draw(st.lists(st.one_of(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                                              st.tuples(st.integers(1, 6))),
                                    min_size=1, max_size=5))

        def tensor(shape):
            size = math.prod(shape)
            return np.array(data.draw(st.lists(self.VALUES, min_size=size, max_size=size)),
                            dtype=np.float64).reshape(shape)

        params = {f"t{i}": tensor(shape) for i, shape in enumerate(shapes)}
        want = {name: t.copy() for name, t in params.items()}
        flat = train_mod.Trainable(params, {}, False)
        size = flat.w.size
        split = data.draw(st.integers(0, size), label="split")
        chunk = data.draw(st.integers(1, size + 1), label="chunk")
        hyper = AdamWConfig(lr=0.5, weight_decay=data.draw(st.sampled_from([0.0, 0.05])))
        ref, parent, peer = (OptimizerState(hyper=hyper) for _ in range(3))
        with mock.patch.object(train_mod, "ADAMW_CHUNK", chunk):
            for t in range(1, 4):
                grads = {name: tensor(x.shape) for name, x in want.items()}
                lr = hyper.lr * (1.0 - 0.1 * t)
                adamw_step(want, grads, ref, lr=lr)
                for name, g in grads.items():
                    flat.grads[name][...] = g
                flat.step(0, split, parent, lr)
                flat.step(split, size, peer, lr)
        for name, t in want.items():
            assert params[name] is flat.tensors[name]
            assert params[name].tobytes() == t.tobytes(), name
        for moment in ("m", "v"):
            got = [getattr(state, moment)[offset].ravel() for state in (parent, peer)
                   for offset in sorted(getattr(state, moment))]
            assert (np.concatenate(got).tobytes() == np.concatenate(
                [getattr(ref, moment)[name].ravel() for name in flat.tensors]).tobytes())


class TestGradientAccumulation:
    def test_eight_microbatches_equal_full_batch(self):
        examples = make_examples(8, seed=1)
        config_a = TrainConfig(epochs=1, per_device_batch=1, grad_accum_steps=8,
                               base_lr=1e-3, warmup_ratio=0.0, seed=0)
        config_b = TrainConfig(epochs=1, per_device_batch=8, grad_accum_steps=1,
                               base_lr=1e-3, warmup_ratio=0.0, seed=0)
        params_a = init_params(TINY, seed=2)
        params_b = init_params(TINY, seed=2)
        train_loop(examples, params_a, TINY, config_a)
        train_loop(examples, params_b, TINY, config_b)
        for name, tensor in params_a.to_dict().items():
            np.testing.assert_allclose(tensor, params_b.to_dict()[name],
                                       atol=1e-6, err_msg=name)

    def test_any_equal_partition_matches(self):
        examples = make_examples(12, seed=3)
        reference = None
        for micro, accum in ((1, 12), (2, 6), (3, 4), (6, 2), (12, 1)):
            params = init_params(TINY, seed=4)
            cfg = TrainConfig(epochs=1, per_device_batch=micro,
                              grad_accum_steps=accum, base_lr=1e-3,
                              warmup_ratio=0.0, seed=0)
            train_loop(examples, params, TINY, cfg)
            flat = np.concatenate([t.ravel() for t in params.to_dict().values()])
            if reference is None:
                reference = flat
            else:
                np.testing.assert_allclose(flat, reference, atol=1e-6)


class TestTrainLoop:
    def test_zero_epochs_unchanged(self):
        examples = make_examples(4)
        params = init_params(TINY, seed=5)
        before = {k: v.copy() for k, v in params.to_dict().items()}
        trace = train_loop(examples, params, TINY,
                           TrainConfig(epochs=0, seed=0))
        assert trace == []
        for name, tensor in params.to_dict().items():
            np.testing.assert_array_equal(tensor, before[name])

    def test_deterministic_trace(self):
        examples = make_examples(10, seed=6)
        cfg = TrainConfig(epochs=2, per_device_batch=2, grad_accum_steps=2,
                          base_lr=5e-3, seed=9)
        params_a = init_params(TINY, seed=7)
        params_b = init_params(TINY, seed=7)
        trace_a = train_loop(examples, params_a, TINY, cfg)
        trace_b = train_loop(examples, params_b, TINY, cfg)
        assert [(r.step, r.epoch, r.lr, r.loss) for r in trace_a] == \
            [(r.step, r.epoch, r.lr, r.loss) for r in trace_b]

    def test_peft_freeze_base_bit_identical(self):
        examples = make_examples(10, seed=8)
        params = init_params(TINY, seed=9)
        adapters = init_adapters(TINY, targets=("W_Q", "W_V", "W_o"), rank=2,
                                 alpha=4.0, seed=10)
        before = {k: v.tobytes() for k, v in params.to_dict().items()}
        ad_before = {k: v.copy() for k, v in adapters_to_dict(adapters).items()}
        cfg = TrainConfig(epochs=4, per_device_batch=1, grad_accum_steps=2,
                          base_lr=1e-2, seed=11)
        trace = train_loop(examples, params, TINY, cfg, adapters=adapters,
                           peft_mode=True)
        assert len(trace) == 4 * 5  # ceil(10/1)/2 = 5 steps per epoch
        assert len(trace) >= 20
        for name, tensor in params.to_dict().items():
            assert tensor.tobytes() == before[name], f"{name} changed"
        changed = any(not np.array_equal(v, ad_before[k])
                      for k, v in adapters_to_dict(adapters).items())
        assert changed

    def test_overfits_toy_corpus(self):
        examples = make_examples(30, seed=12)
        params = init_params(TINY, seed=13)
        cfg = TrainConfig(epochs=50, per_device_batch=5, grad_accum_steps=1,
                          base_lr=5e-3, seed=14)
        ids, mask, labels = model._stack(examples)

        def hook(logits):
            return {"train_acc": float(np.mean(logits(ids, mask).argmax(axis=1) == labels))}

        trace = train_loop(examples, params, TINY, cfg, eval_hook=hook)
        assert trace[-1].train_acc is not None
        assert trace[-1].train_acc >= 0.95
        assert trace[-1].loss < trace[0].loss

    def test_hook_runs_after_its_epochs_steps_and_fills_its_last_row(self, monkeypatch):
        events = []
        real_step = train_mod.adamw_step

        def step(*args, **kwargs):
            events.append("step")
            return real_step(*args, **kwargs)

        def hook(logits):
            epoch = sum(1 for event in events if event != "step")
            events.append(("hook", epoch))
            return {"train_acc": epoch / 10, "val_acc": 0.5}

        monkeypatch.setattr(train_mod, "adamw_step", step)
        cfg = TrainConfig(epochs=3, per_device_batch=2, grad_accum_steps=2, seed=4)
        trace = train_loop(make_examples(8, seed=5), init_params(TINY, seed=6), TINY, cfg,
                           eval_hook=hook)
        steps = ["step", "step"]
        assert events == (steps + [("hook", 0)] + steps + [("hook", 1)]
                          + steps + [("hook", 2)])
        assert [(r.train_acc, r.val_acc, r.val_loss) for r in trace] == [
            (None, None, None), (0.0, 0.5, None), (None, None, None), (0.1, 0.5, None),
            (None, None, None), (0.2, 0.5, None)]

    def test_train_acc_recounts_each_epochs_steps_without_a_hook(self, monkeypatch):
        real, step_hits = train_mod.loss_and_grad, []

        def loss_and_grad(params, batch, config, adapters=None, **kwargs):
            # Each row under this step's weights, before the step updates them.
            step_hits.append(sum(
                int(np.argmax(model.encoder_forward(ids, mask, params, config,
                                                    adapters)) == label)
                for ids, mask, label in batch))
            return real(params, batch, config, adapters, **kwargs)

        monkeypatch.setattr(train_mod, "loss_and_grad", loss_and_grad)
        cfg = TrainConfig(epochs=3, per_device_batch=2, grad_accum_steps=2, base_lr=0.05,
                          seed=2)
        trace = train_loop(make_examples(9, seed=3), init_params(TINY, seed=4), TINY, cfg)
        per_epoch = 3  # ceil(ceil(9 / 2) / 2) steps
        assert len(trace) == len(step_hits) == 3 * per_epoch
        for epoch in range(3):
            steps = slice(epoch * per_epoch, (epoch + 1) * per_epoch)
            rows = trace[steps]
            assert [r.train_acc for r in rows[:-1]] == [None] * (per_epoch - 1)
            assert rows[-1].train_acc == sum(step_hits[steps]) / 9
        assert all(r.val_loss is None and r.val_acc is None for r in trace)

    def test_empty_training_set(self):
        params = init_params(TINY, seed=15)
        with pytest.raises(ValueError):
            train_loop([], params, TINY, TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(per_device_batch=0)
        with pytest.raises(ValueError):
            TrainConfig(base_lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(warmup_ratio=1.0)


@pytest.fixture
def paired_inputs(monkeypatch):
    """Groups of several sub-batches, 2 usable CPUs, and an OpenBLAS pin (a
    no-op one where ctypes cannot reach it)."""
    monkeypatch.setattr(model, "SUB_BATCH_BUDGET", TINY.d_model * 6)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    if _fork._openblas_threads() is None:
        monkeypatch.setattr(_fork, "_openblas_threads",
                            lambda: (lambda: 1, lambda threads: None))
    return make_examples(20, seed=8)


class TestPaired:
    CFG = TrainConfig(epochs=2, per_device_batch=2, grad_accum_steps=3, base_lr=0.05,
                      seed=3)

    @staticmethod
    def model_state(peft):
        params = init_params(TINY, seed=9)
        ads = (init_adapters(TINY, targets=("W_Q", "W_V", "W_o"), rank=2, alpha=4.0,
                             seed=10) if peft else None)
        return params, ads

    # Groups of 6 rows span 2-6 sub-batches; groups of one row are one sub-batch
    # each, so the peer shares only the eval and AdamW.  One-row steps fork only
    # past a budget of one row of the longest example, 6 tokens.
    @pytest.mark.parametrize("cfg, budget", [
        (CFG, 6), (dataclasses.replace(CFG, per_device_batch=1, grad_accum_steps=1), 5),
    ], ids=["parts", "whole"])
    @pytest.mark.parametrize("peft", [False, True])
    def test_training_and_eval_equal_inline(self, paired_inputs, monkeypatch, peft, cfg,
                                            budget):
        examples = paired_inputs
        monkeypatch.setattr(model, "SUB_BATCH_BUDGET", TINY.d_model * budget)
        ids, mask, _ = model._stack(examples)
        real_fork, runs = os.fork, []
        for cpus in (1, 2):
            monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
            params, ads = self.model_state(peft)
            logits, forks = [], []

            def fork():
                forks.append(1)
                return real_fork()

            def hook(logits_):
                logits.append(logits_(ids, mask))

            monkeypatch.setattr(os, "fork", fork)
            trace = train_loop(examples, params, TINY, cfg, adapters=ads,
                               peft_mode=peft, eval_hook=hook)
            assert len(forks) == cpus - 1
            runs.append((trace_to_csv(trace), {**params, **adapters_to_dict(ads or {})},
                         logits))
        (trace0, tensors0, logits0), (trace1, tensors1, logits1) = runs
        assert trace1 == trace0
        assert list(tensors1) == list(tensors0)
        for name, t in tensors0.items():
            assert np.array_equal(tensors1[name], t), name
        assert len(logits1) == len(logits0) == cfg.epochs
        for got, want in zip(logits1, logits0):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("budget", [model.SUB_BATCH_BUDGET, TINY.d_model * 6],
                             ids=["default", "parts"])
    @pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "paired"])
    @pytest.mark.parametrize("peft", [False, True])
    def test_trained_tensors_equal_a_plain_loop_bit_for_bit(self, paired_inputs, monkeypatch,
                                                           peft, cpus, budget):
        """`train_loop` against the loop it stands for: the same permutations
        and weights, `loss_and_grad` without `out`, and `adamw_step` on the
        tensors dict at `lr_at`."""
        monkeypatch.setattr(model, "SUB_BATCH_BUDGET", budget)
        monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
        examples, cfg = paired_inputs, self.CFG
        real_fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        params, ads = self.model_state(peft)
        train_loop(examples, params, TINY, cfg, adapters=ads, peft_mode=peft)
        assert len(forks) == (cpus == 2 and budget == TINY.d_model * 6)

        want_params, want_ads = self.model_state(peft)
        want = {**({} if peft else want_params), **adapters_to_dict(want_ads or {})}
        n, b, accum = len(examples), cfg.per_device_batch, cfg.grad_accum_steps
        total = cfg.epochs * math.ceil(math.ceil(n / b) / accum)
        state, step = OptimizerState(hyper=AdamWConfig(lr=cfg.base_lr)), 0
        for epoch in range(cfg.epochs):
            order = substream(cfg.seed, OP_ENCODER_TRAIN, epoch).permutation(n)
            micros = [order[s:s + b] for s in range(0, n, b)]
            for g0 in range(0, len(micros), accum):
                group = micros[g0:g0 + accum]
                batch = [examples[i] for micro in group for i in micro]
                weights = [1.0 / (len(micro) * len(group)) for micro in group for _ in micro]
                _, grads = loss_and_grad(want_params, batch, TINY, want_ads, peft_mode=peft,
                                         weights=weights)
                step += 1
                adamw_step(want, grads, state,
                           lr=lr_at(step, total, cfg.base_lr, cfg.warmup_ratio))
        got = {**params, **adapters_to_dict(ads or {})}
        for name, t in want.items():
            assert got[name].tobytes() == t.tobytes(), name

    def test_the_fork_rule_measures_length_as_the_cut_does(self, paired_inputs,
                                                           monkeypatch):
        # Two unmasked ids, but a trimmed length of 6: a step of 4 rows is two
        # sub-batches under a budget of 3 rows x 6 columns.
        monkeypatch.setattr(model, "SUB_BATCH_BUDGET", 3 * 6 * TINY.d_model)
        mask = np.array([1, 0, 0, 0, 0, 1])
        examples = [((np.arange(6) + i) % TINY.vocab_size, mask, i % 3) for i in range(8)]
        assert len(model._sub_batches(np.tile(mask, (4, 1)), TINY.d_model)) == 2
        cfg = TrainConfig(per_device_batch=2, grad_accum_steps=2)
        params, _ = self.model_state(False)
        with train_mod.paired(examples, params, TINY, cfg, None, False) as flat:
            assert flat.peer is not None

    @pytest.mark.parametrize("peft", [False, True])
    def test_only_trainable_tensors_move_to_the_shared_store(self, paired_inputs, peft):
        params, ads = self.model_state(peft)
        before = {**params, **adapters_to_dict(ads or {})}
        with train_mod.paired(paired_inputs, params, TINY, self.CFG, ads, peft) as flat:
            assert flat.peer is not None
            after = {**params, **adapters_to_dict(ads or {})}
            moved = {name for name in before if after[name] is not before[name]}
            assert moved == set(before) - (set(params) if peft else set())
            assert set(flat.tensors) == set(flat.grads) == moved
            # One contiguous vector each for weights and gradients, matrices
            # first, split between the processes at its middle element.
            sizes = [t.size for t in flat.tensors.values()]
            starts = [8 * int(s) for s in np.cumsum([0] + sizes[:-1])]
            for vec, views in ((flat.w, flat.tensors), (flat.g, flat.grads)):
                assert vec.size == sum(sizes)
                assert [v.ctypes.data - vec.ctypes.data for v in views.values()] == starts
            matrices = [t.ndim >= 2 for t in flat.tensors.values()]
            assert matrices == sorted(matrices, reverse=True)
            assert flat.decay == sum(s for s, m in zip(sizes, matrices) if m)
            assert flat.mid == flat.w.size // 2 > 0
            for name in before:
                assert after[name] is flat.tensors.get(name, before[name])
                assert np.array_equal(after[name], before[name]), name

    def test_inline_the_tensors_move_too(self, paired_inputs, monkeypatch):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
        params, _ = self.model_state(False)
        with train_mod.paired(paired_inputs, params, TINY, self.CFG, None, False) as flat:
            assert flat.peer is None
            assert all(params[name] is t for name, t in flat.tensors.items())
            assert set(flat.tensors) == set(params)

    def test_the_parent_runs_only_the_second_part(self, paired_inputs, monkeypatch):
        params, _ = self.model_state(False)
        ids, mask, _ = model._stack(paired_inputs)
        first, second = model._parts(model._sub_batches(mask, TINY.d_model), mask)
        assert first and second
        real, rows = model.encoder_forward, []

        def forward(ids_, *args, **kwargs):
            rows.append(len(ids_))  # the peer appends to its own copy, unseen here
            return real(ids_, *args, **kwargs)

        monkeypatch.setattr(model, "encoder_forward", forward)
        with train_mod.paired(paired_inputs, params, TINY, self.CFG, None, False) as flat:
            batch_logits(ids, mask, params, TINY, peer=flat.peer)
            assert rows == [len(sub) for sub in second]
            rows.clear()
            loss_and_grad(params, paired_inputs, TINY, peer=flat.peer, out=flat.grads)
            assert rows == [len(sub) for sub in second]

    def test_a_non_finite_gradient_aborts_both_halves_untouched(self, paired_inputs,
                                                                monkeypatch):
        params, _ = self.model_state(False)
        real, seen = train_mod.loss_and_grad, []

        def loss_and_grad(*args, out=None, **kwargs):
            loss, grads = real(*args, out=out, **kwargs)
            seen.append({name: t.copy() for name, t in params.items()})
            if len(seen) == 2:
                seen.append(list(out)[-1])
                out[seen[2]].flat[-1] = np.nan  # in the peer's half of the vector
            return loss, grads

        monkeypatch.setattr(train_mod, "loss_and_grad", loss_and_grad)
        with pytest.raises(ValueError) as info:
            train_loop(paired_inputs, params, TINY, self.CFG)
        assert str(info.value) == f"non-finite gradient for {seen[2]!r}; step aborted"
        for name, t in seen[1].items():
            assert np.array_equal(params[name], t), name
        assert any(not np.array_equal(seen[0][name], t) for name, t in seen[1].items())

    @staticmethod
    def owner(views, element):
        """The name whose view holds `element` of the flat vector, and the
        element's index in that view."""
        for name, view in views.items():
            if element < view.size:
                return name, element
            element -= view.size
        raise IndexError(element)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "paired"])
    def test_a_non_finite_gradient_is_named_and_no_weight_moves(self, paired_inputs,
                                                                monkeypatch, cpus, where):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
        params, ads = self.model_state(True)
        real, seen = train_mod.loss_and_grad, {}

        def loss_and_grad(*args, out=None, peer=None, **kwargs):
            loss, grads = real(*args, out=out, peer=peer, **kwargs)
            seen["forked"] = peer is not None
            seen["before"] = {name: t.copy() for name, t in adapters_to_dict(ads).items()}
            size = sum(view.size for view in out.values())
            element = {"first": 0, "middle": size // 2, "last": size - 1}[where]
            seen["name"], index = self.owner(out, element)
            out[seen["name"]].flat[index] = np.inf
            return loss, grads

        monkeypatch.setattr(train_mod, "loss_and_grad", loss_and_grad)
        with pytest.raises(ValueError) as info:
            train_loop(paired_inputs, params, TINY, self.CFG, adapters=ads, peft_mode=True)
        assert seen["forked"] == (cpus == 2)
        assert str(info.value) == f"non-finite gradient for {seen['name']!r}; step aborted"
        for name, t in adapters_to_dict(ads).items():
            assert np.array_equal(t, seen["before"][name]), name


class TestTraceCsv:
    def test_header_and_blank_optional_fields(self):
        from finsent.encoder import TraceRow
        rows = [TraceRow(step=1, epoch=0, lr=1e-4, loss=1.5),
                TraceRow(step=2, epoch=0, lr=2e-4, loss=1.2, train_acc=0.5,
                         val_loss=1.3, val_acc=0.4)]
        text = trace_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "step,epoch,lr,loss,train_acc,val_loss,val_acc"
        assert lines[1].endswith(",,,")
        assert "0.5" in lines[2]
