"""Per-stage wall time and memory of one perfbench workload, in one process.

    python3 benchmarks/stage_rss.py --workload paper_pipeline --reps 5
    python3 benchmarks/stage_rss.py --workload encoder_long --seed 12 --reps 5 --parent HEAD

perfbench's `peak_rss_mb` is one number per repetition: the `RUSAGE_SELF`
peak of the process that ran the whole command sequence.  This script runs
the same command list (`perfbench/workloads.py`, for `--seed`) in one fresh
Python process per repetition, calling `finsent.cli.main` per command as
perfbench does but without its host-speed sampler, and records after each
command:

- `wall_s`: the command's wall-clock seconds;
- `self_mb`, `children_mb`: `ru_maxrss` of `RUSAGE_SELF` and of
  `RUSAGE_CHILDREN`, the largest reaped child so far (forked augmentation
  ranges and eval children; their shared pages count in full);
- `rss_mb`: the process's resident memory now (`/proc/self/statm`);
- `arena_mb`, `free_mb`, `keepcost_mb`: glibc `mallinfo2` `arena`,
  `fordblks` and `keepcost`, where glibc provides `mallinfo2`.

It runs on the working tree; with `--parent REV` it also runs on the
committed files of REV, extracted with `git archive` into a temporary
directory, the two sides alternating (the parent first in even repetitions),
as `cold_start.py` does.  It prints, per side, the median of each value per
command; its last line is those medians as one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab import ROOT, export

FIELDS = ("wall_s", "self_mb", "children_mb", "rss_mb", "arena_mb", "free_mb",
          "keepcost_mb")
MB = 1024 * 1024


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def _mallinfo2():
    try:
        fn = ctypes.CDLL(None).mallinfo2
    except AttributeError:
        return None
    fn.restype = _Mallinfo2
    return fn


def sample(mallinfo2) -> dict[str, float]:
    """Memory of this process now, in MB (`wall_s` is the caller's)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        resident = int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    facts = {"self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
             "children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
             "rss_mb": resident / MB}
    if mallinfo2 is not None:
        info = mallinfo2()
        facts.update(arena_mb=info.arena / MB, free_mb=info.fordblks / MB,
                     keepcost_mb=info.keepcost / MB)
    return facts


def one_run(tree: Path, workload: str, seed: int, work: Path) -> list[dict]:
    """The workload's commands run in this process on `tree`'s finsent; one
    record per command."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads

    import finsent.cli as cli
    wl = workloads.WORKLOADS[workload]
    plan = workloads.prepare(wl, tree, work / "inputs", seed)
    mallinfo2 = _mallinfo2()
    stages = []
    for argv in workloads.argv_list(wl, plan, work / "run"):
        log = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main(argv)
        wall = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"{argv[0]} exited {code}:\n{log.getvalue()[-2000:]}")
        stages.append({"command": argv[0], "wall_s": wall, **sample(mallinfo2)})
    return stages


def spawn(tree: Path, args, scratch: Path) -> list[dict]:
    work = Path(tempfile.mkdtemp(prefix="rep-", dir=scratch))
    proc = subprocess.run(
        [sys.executable, __file__, "--one", str(tree), "--workload", args.workload,
         "--seed", str(args.seed), "--work", str(work)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--reps", type=int, default=5, help="runs per side")
    ap.add_argument("--parent", help="also run the committed files of this commit")
    ap.add_argument("--one", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(one_run(args.one.resolve(), args.workload, args.seed, args.work)))
        return 0
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    with tempfile.TemporaryDirectory(prefix="stage-rss-") as tmp:
        trees = {"change": ROOT}
        if args.parent:
            trees["parent"] = Path(tmp) / "parent"
            trees["parent"].mkdir()
            export(args.parent, trees["parent"])
        runs: dict[str, list[list[dict]]] = {side: [] for side in trees}
        for rep in range(args.reps):
            order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
            for side in (side for side in order if side in trees):
                runs[side].append(spawn(trees[side], args, Path(tmp)))
                print(f"rep {rep} {side}: peak {runs[side][-1][-1]['self_mb']:.2f} MB",
                      file=sys.stderr, flush=True)

    medians = {}
    for side in (side for side in ("parent", "change") if side in runs):
        commands = [stage["command"] for stage in runs[side][0]]
        fields = [f for f in FIELDS if f in runs[side][0][0]]
        medians[side] = [{"command": command, **{
            f: round(statistics.median(run[i][f] for run in runs[side]), 4)
            for f in fields}} for i, command in enumerate(commands)]
        print(f"{side}: medians over {args.reps} run(s), {args.workload} seed {args.seed}")
        print(f"{'command':<15}" + "".join(f"{f:>13}" for f in fields))
        for stage in medians[side]:
            print(f"{stage['command']:<15}" + "".join(f"{stage[f]:>13.3f}" for f in fields))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "reps": args.reps,
                      "medians": medians}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
