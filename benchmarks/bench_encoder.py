"""Encoder layer micro-benchmark (pytest-benchmark), kept out of tier-1.

Times the encoder's batched forward pass and `loss_and_grad` on fixed,
seeded inputs at two configs: the CLI default (d_model 32, 2 layers,
max_seq_len 24, with adapters, as paper_pipeline trains it) and
encoder_long's (d_model 128, 4 layers, max_seq_len 64, full fine-tune).
Only calls that exist at older commits too are used, so the same file
times a parent checkout for a before/after comparison; the one exception
is `test_adamw_step`, which times one optimizer step as `train_loop` takes
it inline (`train.Trainable`: the gradient check and one `adamw_step` call
over the flat vector of every trainable element) and skips itself where
that store does not exist.

`test_loss_and_grad_peak` records, in each benchmark's `extra_info`, the
tracemalloc peak of one `loss_and_grad` group of 8: the memory numpy
allocates for the activation cache, the gradients and the temporaries,
above what was allocated before the call.  `test_forward_peak` records the
same for a forward-only `batch_loss` over the eval set, whose sub-batches
keep no activation cache.

    python -m pytest benchmarks/bench_encoder.py --benchmark-json=bench.json
"""
import tracemalloc

import numpy as np
import pytest

from finsent.encoder import (
    AdamWConfig,
    EncoderConfig,
    OptimizerState,
    batch_loss,
    init_adapters,
    init_params,
    loss_and_grad,
    train,
)

# name: (config, real lengths drawn from [lo, hi], adapter targets or None)
CONFIGS = {
    "cli_default": (EncoderConfig(vocab_size=400, d_model=32, n_heads=4, d_ff=64,
                                  n_layers=2, max_seq_len=24),
                    (4, 17), ("W_Q", "W_V", "W_o")),
    "encoder_long": (EncoderConfig(vocab_size=400, d_model=128, n_heads=4, d_ff=256,
                                   n_layers=4, max_seq_len=64),
                     (8, 64), None),
}
GROUP = 8        # one accumulation group: grad_accum_steps 8 x per_device_batch 1
EVAL_SET = 90    # rows of one eval pass (paper_pipeline's test split)


def _setup(name, size):
    config, (lo, hi), targets = CONFIGS[name]
    rng = np.random.default_rng(0)
    examples = []
    for _ in range(size):
        n = int(rng.integers(lo, hi + 1))
        ids = np.full(config.max_seq_len, config.vocab_size - 1)
        ids[:n] = rng.integers(0, config.vocab_size - 2, size=n)
        mask = (np.arange(config.max_seq_len) < n).astype(np.int64)
        examples.append((ids, mask, int(rng.integers(0, 3))))
    params = init_params(config, seed=1)
    adapters = targets and init_adapters(config, targets=targets, rank=4, alpha=8.0,
                                         seed=2)
    return config, params, adapters, examples


@pytest.mark.parametrize("name", CONFIGS)
def test_forward(benchmark, name):
    config, params, adapters, examples = _setup(name, EVAL_SET)
    loss = benchmark(batch_loss, params, examples, config, adapters)
    assert np.isfinite(loss)


@pytest.mark.parametrize("name", CONFIGS)
def test_loss_and_grad(benchmark, name):
    config, params, adapters, examples = _setup(name, GROUP)
    loss, grads = benchmark(loss_and_grad, params, examples, config, adapters,
                            peft_mode=adapters is not None)
    assert np.isfinite(loss) and grads


def _record_peak(benchmark, call):
    """Runs `call` under tracemalloc for three rounds and records its peak."""
    def peak_bytes():
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak = benchmark.pedantic(peak_bytes, rounds=3, iterations=1)
    benchmark.extra_info["tracemalloc_peak_bytes"] = peak
    assert peak > 0


@pytest.mark.parametrize("name", CONFIGS)
def test_loss_and_grad_peak(benchmark, name):
    config, params, adapters, examples = _setup(name, GROUP)
    _record_peak(benchmark, lambda: loss_and_grad(params, examples, config, adapters,
                                                  peft_mode=adapters is not None))


@pytest.mark.parametrize("name", CONFIGS)
def test_forward_peak(benchmark, name):
    config, params, adapters, examples = _setup(name, EVAL_SET)
    _record_peak(benchmark, lambda: batch_loss(params, examples, config, adapters))


@pytest.mark.parametrize("name", CONFIGS)
def test_adamw_step(benchmark, name):
    """The adapters' step at cli_default, every parameter's at encoder_long."""
    if not hasattr(train, "Trainable"):
        pytest.skip("no flat trainable store at this commit")
    config, params, adapters, _ = _setup(name, 1)
    flat = train.Trainable(params, adapters or {}, adapters is not None)
    flat.g[:] = np.random.default_rng(3).normal(scale=1e-3, size=flat.g.size)
    state = OptimizerState(hyper=AdamWConfig(lr=2e-4))

    def step():
        flat.check()
        flat.step(0, flat.g.size, state, 2e-4)

    benchmark(step)
    benchmark.extra_info["trainable_elements"] = int(flat.w.size)
    assert state.step > 0 and np.isfinite(flat.w).all()
