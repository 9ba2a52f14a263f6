"""The benchmark's span bindings (`perfbench/spans.py` `PATCHES`) name
functions that still exist where their callers look them up.

perfbench's own checks run outside this suite; this test only reads the
table and patches nothing.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# Deleted with `EncoderBackend`; the benchmark's own upkeep repoints it.
STALE = ["finsent.promptkit.EncoderBackend.generate"]


def test_every_binding_resolves_but_the_known_stale_one(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    missing = []
    for module_name, path, _, _ in spans.PATCHES:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert missing == STALE
