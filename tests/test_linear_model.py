import math
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from finsent import _fork, linear_model
from finsent._rng import OP_LINEAR_TRAIN, substream
from finsent.linear_model import (
    Halves,
    LinearParams,
    LinearTrainConfig,
    forward,
    load_checkpoint,
    loss_and_grad,
    predict,
    save_checkpoint,
    softmax,
    train,
)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), [1/3, 1/3, 1/3],
                                   atol=1e-12)

    def test_large_logit_no_overflow(self):
        p = softmax([1000.0, 0.0, 0.0])
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_ln2(self):
        np.testing.assert_allclose(softmax([math.log(2), 0.0, 0.0]),
                                   [0.5, 0.25, 0.25], atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = softmax(rng.normal(size=5) * 10)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p > 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax([np.inf, 0.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("axis", [1, -1])
    def test_rows_reject_non_finite(self, bad, axis):
        z = np.zeros((4, 3))
        z[2, 1] = bad
        with pytest.raises(ValueError):
            softmax(z, axis=axis)

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 5000])
    @pytest.mark.parametrize("axis", [1, -1])
    def test_rows_bit_identical_to_last_axis_formula(self, n, axis):
        rng = np.random.default_rng(n)
        for scale in (0.1, 5.0, 300.0):
            z = rng.normal(size=(n, 3)) * scale
            shifted = z - z.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            want = e / e.sum(axis=1, keepdims=True)
            got = softmax(z, axis=axis)
            assert got.shape == (n, 3)
            np.testing.assert_array_equal(got, want)

    def test_axis_zero_normalizes_columns(self):
        z = np.random.default_rng(1).normal(size=(3, 5))
        np.testing.assert_array_equal(softmax(z, axis=0), softmax(z.T, axis=1).T)


class TestForward:
    def test_zero_params_uniform(self):
        params = LinearParams.zeros(4)
        _, probs = forward(params, np.zeros(4))
        np.testing.assert_allclose(probs, [1/3, 1/3, 1/3])

    def test_identity_like_rows_argmax(self):
        params = LinearParams.zeros(3)
        params.W = np.eye(3)
        x = np.array([1.0, 0.0, 0.0])
        logits, probs = forward(params, x)
        assert np.argmax(logits) == 0
        assert np.argmax(probs) == 0

    def test_bias_only(self):
        params = LinearParams.zeros(2)
        params.b = np.array([1.0, 0.0, 0.0])
        _, probs = forward(params, np.zeros(2))
        np.testing.assert_allclose(probs, softmax([1.0, 0.0, 0.0]))

    def test_sparse_row(self):
        params = LinearParams.zeros(5)
        params.W = np.arange(15, dtype=float).reshape(3, 5)
        x = sp.csr_matrix(([2.0], ([0], [3])), shape=(1, 5))
        logits, _ = forward(params, x)
        np.testing.assert_allclose(logits[0], params.W[:, 3] * 2.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            forward(LinearParams.zeros(4), np.zeros(3))

    def test_argmax_invariant_under_constant_shift(self):
        rng = np.random.default_rng(1)
        params = LinearParams(W=rng.normal(size=(3, 6)), b=rng.normal(size=3))
        shifted = LinearParams(W=params.W.copy(), b=params.b + 123.0)
        X = rng.normal(size=(20, 6))
        np.testing.assert_array_equal(predict(params, X), predict(shifted, X))


class TestLossAndGrad:
    def test_uniform_prediction_loss_ln3(self):
        params = LinearParams.zeros(4)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(7, 4))
        y = rng.integers(0, 3, size=7)
        loss, _, _ = loss_and_grad(params, X, y)
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_perfect_prediction_zero_loss_and_grads(self):
        params = LinearParams.zeros(3)
        params.W = np.eye(3) * 1000.0
        X = np.eye(3)
        y = np.array([0, 1, 2])
        loss, dW, db = loss_and_grad(params, X, y)
        assert loss == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(dW, 0.0, atol=1e-9)
        np.testing.assert_allclose(db, 0.0, atol=1e-9)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            loss_and_grad(LinearParams.zeros(2), np.zeros((0, 2)), np.array([]))

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    def test_gradients_match_finite_differences(self, l2):
        rng = np.random.default_rng(3)
        params = LinearParams(W=rng.normal(size=(3, 6)) * 0.5,
                              b=rng.normal(size=3) * 0.5)
        X = rng.normal(size=(4, 6))
        y = rng.integers(0, 3, size=4)
        _, dW, db = loss_and_grad(params, X, y, l2=l2)

        eps = 1e-5
        max_rel = 0.0
        for tensor, grad in ((params.W, dW), (params.b, db)):
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = tensor[idx]
                tensor[idx] = orig + eps
                lp, _, _ = loss_and_grad(params, X, y, l2=l2)
                tensor[idx] = orig - eps
                lm, _, _ = loss_and_grad(params, X, y, l2=l2)
                tensor[idx] = orig
                num = (lp - lm) / (2 * eps)
                rel = abs(grad[idx] - num) / max(abs(grad[idx]), abs(num), 1e-6)
                max_rel = max(max_rel, rel)
        assert max_rel <= 1e-6

    def test_sparse_batch_matches_dense(self):
        rng = np.random.default_rng(4)
        params = LinearParams(W=rng.normal(size=(3, 8)), b=rng.normal(size=3))
        dense = rng.normal(size=(5, 8)) * (rng.random((5, 8)) > 0.6)
        y = rng.integers(0, 3, size=5)
        l_d, dW_d, db_d = loss_and_grad(params, dense, y)
        l_s, dW_s, db_s = loss_and_grad(params, sp.csr_matrix(dense), y)
        assert l_s == pytest.approx(l_d, abs=1e-12)
        np.testing.assert_allclose(dW_s, dW_d, atol=1e-12)
        np.testing.assert_allclose(db_s, db_d, atol=1e-12)


def separable_toy():
    X = np.array([[1.0, 0.0, 0.0, 0.2],
                  [0.9, 0.1, 0.0, 0.0],
                  [0.0, 1.0, 0.1, 0.0],
                  [0.1, 0.9, 0.0, 0.1],
                  [0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.1, 0.9, 0.3]])
    y = np.array([0, 0, 1, 1, 2, 2])
    return X, y


class TestTrain:
    def test_separable_reaches_full_accuracy(self):
        X, y = separable_toy()
        params, trace = train(X, y, LinearTrainConfig(lr=1.0, epochs=200))
        assert np.mean(predict(params, X) == y) == 1.0
        assert trace[-1] < trace[0]

    def test_zero_epochs_returns_init(self):
        X, y = separable_toy()
        params, trace = train(X, y, LinearTrainConfig(lr=0.5, epochs=0))
        np.testing.assert_array_equal(params.W, 0.0)
        np.testing.assert_array_equal(params.b, 0.0)
        assert trace == []

    def test_deterministic_same_seed(self):
        X, y = separable_toy()
        cfg = LinearTrainConfig(lr=0.3, epochs=20, batch_size=2, seed=5)
        a, trace_a = train(X, y, cfg)
        b, trace_b = train(X, y, cfg)
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.b, b.b)
        assert trace_a == trace_b

    def test_full_batch_loss_never_increases(self):
        X, y = separable_toy()
        _, trace = train(X, y, LinearTrainConfig(lr=0.1, epochs=100, batch_size=0))
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-9)

    def test_invalid_lr(self):
        X, y = separable_toy()
        with pytest.raises(ValueError):
            train(X, y, LinearTrainConfig(lr=0.0, epochs=1))

    def test_label_count_mismatch(self):
        X, _ = separable_toy()
        with pytest.raises(ValueError):
            train(X, np.array([0, 1]), LinearTrainConfig(lr=0.1, epochs=1))


def two_call_reference(X, y, hyper):
    """The loop as first written: every epoch steps over a row-permuted copy
    in batches (the whole set in full batch), then recomputes the full-set loss."""
    X = sp.csr_matrix(X) if sp.issparse(X) else np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    params = LinearParams.zeros(X.shape[1])
    batch = hyper.batch_size if hyper.batch_size > 0 else n
    trace = []
    for epoch in range(hyper.epochs):
        order = substream(hyper.seed, OP_LINEAR_TRAIN, epoch).permutation(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            _, dW, db = loss_and_grad(params, X[idx], y[idx], hyper.l2)
            params.W -= hyper.lr * dW
            params.b -= hyper.lr * db
        trace.append(loss_and_grad(params, X, y, hyper.l2)[0])
    return params, trace


def random_problem(seed, n=60, dim=25, sparse=True):
    rng = np.random.default_rng(seed)
    X = rng.random((n, dim)) * (rng.random((n, dim)) > 0.7)
    y = rng.integers(0, 3, size=n)
    return (sp.csr_matrix(X) if sparse else X), y


class TestFusedFullBatch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("l2", [0.0, 0.003])
    @pytest.mark.parametrize("epochs", [0, 1, 2, 17])
    def test_matches_two_call_loop(self, seed, l2, epochs):
        X, y = random_problem(seed, sparse=seed != 2)
        hyper = LinearTrainConfig(lr=0.7, epochs=epochs, batch_size=0, l2=l2, seed=seed)
        got, trace = train(X, y, hyper)
        want, want_trace = two_call_reference(X, y, hyper)
        assert len(trace) == epochs
        np.testing.assert_allclose(trace, want_trace, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.W, want.W, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.b, want.b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("epochs", [1, 2, 9])
    def test_one_loss_and_grad_per_epoch(self, epochs):
        X, y = random_problem(3)
        with mock.patch.object(linear_model, "loss_and_grad",
                               wraps=linear_model.loss_and_grad) as spy:
            train(X, y, LinearTrainConfig(lr=0.5, epochs=epochs, batch_size=0))
        assert spy.call_count == epochs + 1
        for call in spy.call_args_list:
            assert call.args[1].shape[0] == 60

    def test_no_epochs_no_calls(self):
        X, y = random_problem(3)
        with mock.patch.object(linear_model, "loss_and_grad",
                               wraps=linear_model.loss_and_grad) as spy:
            train(X, y, LinearTrainConfig(lr=0.5, epochs=0, batch_size=0))
        assert spy.call_count == 0

    def test_seed_free(self):
        X, y = random_problem(4)
        a, trace_a = train(X, y, LinearTrainConfig(lr=0.5, epochs=5, seed=1))
        b, trace_b = train(X, y, LinearTrainConfig(lr=0.5, epochs=5, seed=2))
        np.testing.assert_array_equal(a.W, b.W)
        assert trace_a == trace_b

    @pytest.mark.parametrize("batch_size", [1, 7, 60, 200])
    @pytest.mark.parametrize("l2", [0.0, 0.01])
    def test_mini_batch_bit_identical_to_reference(self, batch_size, l2):
        X, y = random_problem(5)
        hyper = LinearTrainConfig(lr=0.4, epochs=4, batch_size=batch_size, l2=l2, seed=9)
        got, trace = train(X, y, hyper)
        want, want_trace = two_call_reference(X, y, hyper)
        assert trace == want_trace
        np.testing.assert_array_equal(got.W, want.W)
        np.testing.assert_array_equal(got.b, want.b)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        params = LinearParams(W=rng.normal(size=(3, 7)), b=rng.normal(size=3))
        path = tmp_path / "linear.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.W, params.W)
        np.testing.assert_array_equal(loaded.b, params.b)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_classes=st.integers(1, 4), dim=st.integers(0, 6))
    def test_any_parameters_round_trip(self, data, n_classes, dim):
        finite = st.floats(allow_nan=False, width=64)
        params = LinearParams(
            W=data.draw(hnp.arrays(np.float64, (n_classes, dim), elements=finite)),
            b=data.draw(hnp.arrays(np.float64, (n_classes,), elements=finite)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "linear.json"
            save_checkpoint(params, path)
            loaded = load_checkpoint(path)
        assert loaded.W.shape == params.W.shape and loaded.b.shape == params.b.shape
        assert np.array_equal(loaded.W, params.W) and np.array_equal(loaded.b, params.b)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_checkpoint(path)


def repeated_problem(seed, n_rows=40, n_records=90, sparse=True):
    """Distinct rows, and the records that repeat them unevenly: record i is
    row `rows[i]`, and some rows are no record at all."""
    X, y = random_problem(seed, n=n_rows, sparse=sparse)
    rows = np.random.default_rng(seed + 100).integers(0, n_rows, size=n_records)
    return X, y, rows


class TestWeightedRows:
    """Training on distinct rows with `rows` is training on the records."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("l2", [0.0, 0.003])
    @pytest.mark.parametrize("epochs", [0, 1, 2, 17])
    def test_full_batch_matches_the_expanded_matrix(self, seed, l2, epochs):
        X, y, rows = repeated_problem(seed, sparse=seed != 2)
        hyper = LinearTrainConfig(lr=0.7, epochs=epochs, batch_size=0, l2=l2, seed=seed)
        got, trace = train(X, y, hyper, rows)
        want, want_trace = train(X[rows], y[rows], hyper)
        assert len(trace) == epochs
        np.testing.assert_allclose(trace, want_trace, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.W, want.W, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.b, want.b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("batch_size", [1, 7, 60, 200])
    @pytest.mark.parametrize("l2", [0.0, 0.01])
    def test_mini_batch_bit_identical_to_the_expanded_matrix(self, batch_size, l2):
        X, y, rows = repeated_problem(5)
        hyper = LinearTrainConfig(lr=0.4, epochs=4, batch_size=batch_size, l2=l2, seed=9)
        got, trace = train(X, y, hyper, rows)
        want, want_trace = train(X[rows], y[rows], hyper)
        np.testing.assert_array_equal(got.W, want.W)
        np.testing.assert_array_equal(got.b, want.b)
        np.testing.assert_allclose(trace, want_trace, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sparse", [True, False])
    @pytest.mark.parametrize("l2", [0.0, 0.003])
    def test_count_weights_give_the_mean_over_the_records(self, sparse, l2):
        X, y, rows = repeated_problem(6, sparse=sparse)
        rng = np.random.default_rng(7)
        params = LinearParams(W=rng.normal(size=(3, X.shape[1])), b=rng.normal(size=3))
        counts = np.bincount(rows, minlength=len(y))
        loss, dW, db = loss_and_grad(params, X, y, l2, weights=counts / counts.sum())
        want_loss, want_dW, want_db = loss_and_grad(params, X[rows], y[rows], l2)
        assert loss == pytest.approx(want_loss, rel=0, abs=1e-15)
        np.testing.assert_allclose(dW, want_dW, rtol=0, atol=1e-15)
        np.testing.assert_allclose(db, want_db, rtol=0, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(counts=st.lists(st.integers(0, 4), min_size=1, max_size=12).filter(any),
           batch_size=st.sampled_from([0, 1, 3, 8]), seed=st.integers(0, 2 ** 16))
    def test_any_repeat_pattern_trains_as_its_records(self, counts, batch_size, seed):
        X, y = random_problem(seed, n=len(counts), dim=6)
        rows = np.random.default_rng(seed).permutation(
            np.repeat(np.arange(len(counts)), counts))
        hyper = LinearTrainConfig(lr=0.5, epochs=3, batch_size=batch_size, l2=0.001,
                                  seed=seed)
        got, trace = train(X, y, hyper, rows)
        want, want_trace = train(X[rows], y[rows], hyper)
        np.testing.assert_allclose(trace, want_trace, rtol=0, atol=1e-12)
        if batch_size:
            np.testing.assert_array_equal(got.W, want.W)
            np.testing.assert_array_equal(got.b, want.b)
        else:
            np.testing.assert_allclose(got.W, want.W, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.b, want.b, rtol=0, atol=1e-12)

    def test_full_batch_takes_the_distinct_rows_once_per_epoch(self):
        X, y, rows = repeated_problem(3)
        with mock.patch.object(linear_model, "loss_and_grad",
                               wraps=linear_model.loss_and_grad) as spy:
            train(X, y, LinearTrainConfig(lr=0.5, epochs=4, batch_size=0), rows)
        assert spy.call_count == 5
        assert all(call.args[1].shape[0] == 40 for call in spy.call_args_list)

    @pytest.mark.parametrize("rows", [[], [0, 40], [-1, 2]])
    def test_rows_must_name_distinct_rows(self, rows):
        X, y, _ = repeated_problem(3)
        with pytest.raises(ValueError):
            train(X, y, LinearTrainConfig(lr=0.5, epochs=1), rows)

    def test_non_finite_logits_rejected(self):
        X = np.array([[np.inf, 0.0], [1.0, 0.0]])
        params = LinearParams(W=np.ones((3, 2)), b=np.zeros(3))
        with pytest.raises(ValueError, match="non-finite logits"):
            loss_and_grad(params, X, np.array([0, 1]))


@contextmanager
def halves_of(X, y, rows, forked, mid=None):
    """`Halves` of a problem cut at row `mid` (default: the middle): the
    first half served here, the second by a forked peer or here too."""
    mid = len(y) // 2 if mid is None else mid
    weights = np.bincount(rows, minlength=len(y)) / len(rows)

    def handlers(part):
        return {"grad": lambda W, b: linear_model.loss_and_grad(
            LinearParams(W, b), X[part], y[part], 0.0, weights[part])}

    second = (_fork.Peer if forked else _fork.InProcess)(handlers(slice(mid, None)))
    try:
        yield Halves((_fork.InProcess(handlers(slice(mid))), second), (len(y), X.shape[1]))
    finally:
        if forked:
            second.close()


class TestHalves:
    """Full batch over rows cut in `Halves` is one pass over them, summed in
    another order, whether the second half is served by a peer or here."""

    @pytest.mark.parametrize("forked", [False, True])
    @pytest.mark.parametrize("l2", [0.0, 0.003])
    @pytest.mark.parametrize("epochs", [0, 1, 17])
    def test_matches_one_pass(self, forked, l2, epochs):
        X, y, rows = repeated_problem(epochs)
        hyper = LinearTrainConfig(lr=0.7, epochs=epochs, batch_size=0, l2=l2)
        with halves_of(X, y, rows, forked) as halves:
            got, trace = train(halves, y, hyper, rows)
        want, want_trace = train(X, y, hyper, rows)
        assert len(trace) == epochs
        np.testing.assert_allclose(trace, want_trace, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.W, want.W, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.b, want.b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mid", [1, 17, 39])
    def test_a_peer_and_this_process_give_the_same_bits(self, mid):
        X, y, rows = repeated_problem(4, sparse=False)
        hyper = LinearTrainConfig(lr=0.5, epochs=9, batch_size=0, l2=0.003)
        runs = []
        for forked in (False, True):
            with halves_of(X, y, rows, forked, mid) as halves:
                params, trace = train(halves, y, hyper, rows)
            runs.append((params.W.tobytes(), params.b.tobytes(), trace))
        assert runs[0] == runs[1]

    def test_no_epochs_no_requests(self):
        X, y, rows = repeated_problem(3)
        refuse = _fork.InProcess({})  # any request raises KeyError
        params, trace = train(Halves((refuse, refuse), X.shape), y,
                              LinearTrainConfig(lr=0.5, epochs=0), rows)
        assert trace == [] and not params.W.any() and not params.b.any()

    def test_one_request_per_half_and_epoch(self):
        X, y, rows = repeated_problem(3)
        with halves_of(X, y, rows, False) as halves:
            with mock.patch.object(linear_model, "loss_and_grad",
                                   wraps=linear_model.loss_and_grad) as spy:
                train(halves, y, LinearTrainConfig(lr=0.5, epochs=4), rows)
        assert [call.args[1].shape[0] for call in spy.call_args_list] == [20, 20] * 5

    def test_mini_batch_refused(self):
        X, y, rows = repeated_problem(3)
        with halves_of(X, y, rows, False) as halves:
            with pytest.raises(ValueError, match="full batch only"):
                train(halves, y, LinearTrainConfig(lr=0.5, epochs=1, batch_size=4), rows)

    def test_an_error_in_the_peer_reaches_train_and_the_peer_is_reaped(self):
        X, y, rows = repeated_problem(3)
        here = _fork.InProcess({"grad": lambda W, b: (0.0, np.zeros_like(W), np.zeros_like(b))})
        peer = _fork.Peer({"grad": lambda W, b: loss_and_grad(LinearParams(W, b),
                                                              X[:, :5], y)})
        try:
            with pytest.raises(ValueError, match="feature dim 5 != model dim 25"):
                train(Halves((here, peer), X.shape), y,
                      LinearTrainConfig(lr=0.5, epochs=2), rows)
        finally:
            peer.close()
        with pytest.raises(ChildProcessError):
            os.waitpid(peer.pid, os.WNOHANG)
