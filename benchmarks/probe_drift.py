"""Probe drift: does one extra import change perfbench's host-speed reading?

    python3 benchmarks/probe_drift.py --extra-import requests --pairs 10

perfbench scales every end-to-end timing by the host speed, which it reads
inside each repetition's process from the time of `perfbench/probe.py`'s
`chunk`.  If the state of the process alone moved that time, a change that
only adds or drops an import would move the scaled metrics.  This script
times `chunk` as `probe.Sampler` does, a warm run and then a timed run, in
fresh processes that do nothing else: a plain one, and one that first
imports MODULE (from the standard path, or from this tree's `src/`).  The two
alternate, the plain one first in even pairs.  Each process takes
`--samples` samples and reports their median.  The script prints, per side,
the median and interquartile range of those per-process medians in
microseconds, the ratio of the medians (with the import over plain), and in
how many pairs the side with the import was faster.
perfbench/ is only read.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from ab import ROOT, stats

CHILD = """
import importlib, json, statistics, sys, time
n, module = int(sys.argv[1]), sys.argv[2]
if module:
    importlib.import_module(module)
from probe import chunk
chunk()
times = []
for _ in range(n):
    chunk()
    t0 = time.perf_counter()
    chunk()
    times.append(time.perf_counter() - t0)
print(json.dumps(statistics.median(times)))
"""


def probe_median(samples: int, module: str) -> float:
    """Median seconds of one timed chunk over `samples`, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(samples), module],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"probe process with {module or 'no extra import'} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--extra-import", required=True, metavar="MODULE",
                    help="module that the second side imports before it samples")
    ap.add_argument("--pairs", type=int, default=10, help="process pairs")
    ap.add_argument("--samples", type=int, default=200, help="timed chunks per process")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.samples < 1:
        ap.error("--pairs and --samples must be at least 1")

    sides = {"plain": "", f"import {args.extra_import}": args.extra_import}
    runs: dict[str, list[float]] = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for side in order:
            runs[side].append(probe_median(args.samples, sides[side]) * 1e6)
        print(f"pair {pair}: " + ", ".join(f"{side} {runs[side][-1]:.1f} us"
                                           for side in sides), file=sys.stderr, flush=True)

    print(f"probe chunk, median us over {args.samples} samples per process, "
          f"{args.pairs} pair(s), Python {sys.version.split()[0]}")
    for side in sides:
        s = stats(runs[side])
        print(f"{side:<24} median {s['median']:>8.1f}  IQR {s['q1']:.1f}-{s['q3']:.1f}")
    plain, extra = (runs[side] for side in sides)
    print(f"ratio (import / plain)   {statistics.median(extra) / statistics.median(plain):.3f}"
          f"; the import side was faster in {sum(e < p for p, e in zip(plain, extra))} "
          f"of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
