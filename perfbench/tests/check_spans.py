"""Span recording and the self-time arithmetic.

    python3 -m pytest -q perfbench/tests/check_spans.py
"""
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import spans  # noqa: E402
from spans import Span  # noqa: E402


def S(name, start, end, parent=None, **attrs):
    return Span(name, start, end, parent, "run", attrs)


def test_self_time_subtracts_direct_children_only():
    tree = [
        S("root", 0, 100),            # 0
        S("a", 10, 40, 0),            # 1
        S("a.inner", 20, 30, 1),      # 2
        S("b", 50, 90, 0),            # 3
    ]
    assert spans.self_times(tree) == pytest.approx(
        [(100 - 30 - 40) / 1e9, (30 - 10) / 1e9, 10 / 1e9, 40 / 1e9])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    tree = [
        S("pool", 0, 100),
        S("w1", 10, 60, 0),
        S("w2", 30, 70, 0),           # overlaps w1: union is [10, 70]
        S("w3", 90, 120, 0),          # runs past the parent: counts [90, 100]
    ]
    assert spans.self_times(tree)[0] == pytest.approx((100 - 60 - 10) / 1e9)


def test_self_time_of_leaf_is_its_duration():
    assert spans.self_times([S("x", 5, 17)]) == pytest.approx([12 / 1e9])


def test_forward_phase_follows_ancestors():
    tree = [
        S("cli.train-encoder", 0, 100),
        S("encoder.train_loop", 1, 90, 0),
        S("encoder.loss_and_grad", 2, 10, 1),
        S("encoder.forward", 3, 5, 2),          # train
        S("encoder.eval_hook", 20, 80, 1),
        S("encoder.forward", 21, 23, 4),        # eval
        S("cli.predict", 100, 120),
        S("encoder.forward", 101, 103, 6),      # predict
    ]
    assert [spans.forward_phase(tree, i) for i in (3, 5, 7)] == ["train", "eval", "predict"]


def test_layer_metrics_of_a_small_trace():
    tree = [
        S("cli.train-encoder", 0, 1000),
        S("encoder.train_loop", 100, 900, 0),
        S("encoder.loss_and_grad", 110, 300, 1),
        S("encoder.forward", 120, 200, 2, positions=24, real=6),
        S("encoder.backward", 200, 280, 2),
        S("encoder.adamw_step", 300, 320, 1),
        S("encoder.eval_hook", 400, 800, 1),
        S("encoder.forward", 410, 450, 6, positions=24, real=12),
    ]
    m = spans.layer_metrics(tree)
    assert set(m) == {name for name, _, _ in spans.METRICS}
    assert m["cli.train_encoder_s"] == pytest.approx(1000 / 1e9)
    assert m["cli.train_encoder_unaccounted_s"] == pytest.approx(200 / 1e9)
    assert m["encoder.forward_calls.train"] == 1
    assert m["encoder.forward_calls.eval"] == 1
    assert m["encoder.forward_calls.predict"] == 0
    assert m["encoder.forward_us_p50.train"] == pytest.approx(80 / 1e3)
    assert m["encoder.loss_and_grad_self_s"] == pytest.approx((190 - 80 - 80) / 1e9)
    assert m["encoder.positions_computed"] == 48
    assert m["encoder.token_util"] == pytest.approx(18 / 48)
    assert m["encoder.eval_share"] == pytest.approx(400 / 800)
    assert m["linear_model.train_s"] == 0


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert spans._pct(values, 50) == 5
    assert spans._pct(values, 90) == 9
    assert spans._pct([], 90) == 0.0


def _fake_module():
    mod = types.ModuleType("perfbench_fake")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    def fan_out(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return sum(pool.map(mod.leaf, range(n)))

    mod.leaf, mod.outer, mod.fan_out = leaf, outer, fan_out
    sys.modules[mod.__name__] = mod
    return mod


def test_install_records_nesting_and_thread_parents_then_uninstalls():
    mod = _fake_module()
    originals = (mod.leaf, mod.outer, mod.fan_out)
    tracer = spans.Tracer("t")
    patches = [(mod.__name__, "leaf", "leaf", None),
               (mod.__name__, "outer", "outer", None),
               (mod.__name__, "fan_out", "fan_out", None),
               (mod.__name__, "absent", "absent", None)]
    undo, missing = spans.install(tracer, patches)
    try:
        assert mod.outer(1) == 4
        assert mod.fan_out(4) == 10
    finally:
        spans.uninstall(undo)
        del sys.modules[mod.__name__]
    assert (mod.leaf, mod.outer, mod.fan_out) == originals
    assert missing == [f"{mod.__name__}.absent"]
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["outer", "leaf"]
    assert tracer.spans[1].parent == 0
    fan = names.index("fan_out")
    workers = tracer.spans[fan + 1:]
    assert len(workers) == 4 and all(s.parent == fan for s in workers)
    assert all(s.end >= s.start for s in tracer.spans)


def test_spans_from_many_threads_keep_their_own_ids_and_parents():
    tracer = spans.Tracer("t")

    def work(k):
        for _ in range(200):
            outer = tracer.open(f"outer{k}")
            inner = tracer.open(f"inner{k}")
            tracer.close(inner)
            tracer.close(outer)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(work, k) for k in range(8)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(tracer.spans) == 8 * 200 * 2
    for s in tracer.spans:
        assert s.end >= s.start > 0
        if s.name.startswith("inner"):
            assert tracer.spans[s.parent].name == "outer" + s.name[len("inner"):]
        else:
            assert s.parent is None
