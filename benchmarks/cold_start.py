"""Cold start: the criterion-12 sequence as separate CLI processes.

    python3 benchmarks/cold_start.py --reps 5
    python3 benchmarks/cold_start.py --reps 5 --parent HEAD

perfbench runs a whole sequence in one process, so it pays for
`import finsent.cli` once, as `setup_s`.  A user runs every subcommand as its
own process and pays for it every time.  This script times a bare
`python3 -c "import finsent.cli"` and then each of the nine commands of the
criterion-12 sequence, from `ingest` to `compare`, as perfbench's
paper_pipeline workload lists them (`perfbench/workloads.py`), each as a
`python3 -m finsent.cli` process on the bundled sample, in a fresh run
directory per repetition.  It runs on the working tree; with `--parent REV`
it also runs on the committed files of REV, extracted with `git archive`
into a temporary directory, the two sides alternating (the parent first in
even repetitions).  One untimed `import finsent.cli` per side compiles its
bytecode first.  It prints the median wall-clock seconds of each command
and of the whole sequence, per side.
"""
from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab import ROOT, export

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

PIPELINE = workloads.WORKLOADS["paper_pipeline"]
IMPORT = "import finsent.cli"


def label(argv: list[str]) -> str:
    """A command's row: its subcommand, and for `evaluate` the model's name."""
    return argv[0] + (f" {argv[argv.index('--name') + 1]}" if argv[0] == "evaluate" else "")


def sequence(plan: dict, out: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of each command of the sequence, run in `out`."""
    return [(label(argv), argv) for argv in workloads.argv_list(PIPELINE, plan, out)]


def timed(tree: Path, argv: list[str]) -> float:
    """Wall-clock seconds of one Python process that imports from `tree`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return elapsed


def one_rep(tree: Path, scratch: Path, plan: dict) -> dict[str, float]:
    """Seconds of the bare import and of each command of one fresh sequence."""
    out = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    times = {IMPORT: timed(tree, ["-c", IMPORT])}
    commands = sequence(plan, out)
    for name, argv in commands:
        times[name] = timed(tree, ["-m", "finsent.cli", *argv])
    times["sequence"] = sum(times[name] for name, _ in commands)
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=5, help="sequences per side")
    ap.add_argument("--parent", help="also time the committed files of this commit")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    with tempfile.TemporaryDirectory(prefix="cold-start-") as tmp:
        trees = {"change": ROOT}
        if args.parent:
            trees["parent"] = Path(tmp) / "parent"
            trees["parent"].mkdir()
            export(args.parent, trees["parent"])
        plan = workloads.prepare(PIPELINE, ROOT, Path(tmp) / "inputs", seed=0)
        for tree in trees.values():
            timed(tree, ["-c", IMPORT])
        runs: dict[str, list[dict[str, float]]] = {side: [] for side in trees}
        for rep in range(args.reps):
            order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
            for side in (side for side in order if side in trees):
                runs[side].append(one_rep(trees[side], Path(tmp), plan))
                print(f"rep {rep} {side}: {runs[side][-1]['sequence']:.2f} s",
                      file=sys.stderr, flush=True)

    sides = [side for side in ("parent", "change") if side in runs]
    print(f"median seconds over {args.reps} rep(s), Python {sys.version.split()[0]}")
    print(f"{'command':<20}" + "".join(f"{side:>10}" for side in sides))
    for row in [IMPORT] + [name for name, _ in sequence(plan, Path())] + ["sequence"]:
        print(f"{row:<20}" + "".join(
            f"{statistics.median(r[row] for r in runs[side]):>10.3f}"
            for side in sides))
    return 0


if __name__ == "__main__":
    sys.exit(main())
