"""Regression oracle: do a parent commit and the working tree write the same files?

    python3 benchmarks/same_outputs.py --parent HEAD --seed 12
    python3 benchmarks/same_outputs.py --parent HEAD --seed 31 --workload encoder_long

For each workload (`--workload`, default all), the command list that
perfbench runs (`perfbench/workloads.py`, only read) is run at `--seed` on
each side: the committed files of `--parent`, extracted with `git archive`
into a temporary directory, and the working tree.  Every command runs in a
fresh `python -m finsent.cli` process, as a user runs it, on that side's
sources and inputs.  The two run directories are then compared byte for
byte.  Each file that differs, or that only one side wrote, is printed; the
exit status is 1 if there is any, else 0.
"""
from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from ab import ROOT, SPEC, export

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def run_workload(tree: Path, name: str, seed: int, work: Path) -> Path:
    """The workload's commands run on `tree`'s finsent under `work`; returns
    the run directory."""
    wl = workloads.WORKLOADS[name]
    plan = workloads.prepare(wl, tree, work / "inputs", seed)
    out = work / "run"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for argv in workloads.argv_list(wl, plan, out):
        proc = subprocess.run([sys.executable, "-m", "finsent.cli", *argv], cwd=tree,
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{name} on {tree}: {argv[0]} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return out


def differing(a: Path, b: Path) -> list[str]:
    """Paths under the two directories, relative to them, whose bytes differ
    or that only one of them holds."""
    files = {p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()}
    return sorted(str(f) for f in files
                  if not ((a / f).is_file() and (b / f).is_file()
                          and filecmp.cmp(a / f, b / f, shallow=False)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="commit to compare against")
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--workload", default="all",
                    choices=[w["name"] for w in SPEC["workloads"]] + ["all"])
    args = ap.parse_args(argv)
    names = ([w["name"] for w in SPEC["workloads"]] if args.workload == "all"
             else [args.workload])

    found = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        parent = Path(tmp) / "parent"
        parent.mkdir()
        export(args.parent, parent)
        for name in names:
            runs = [run_workload(tree, name, args.seed, Path(tmp) / side / name)
                    for side, tree in (("parent", parent), ("change", ROOT))]
            diff = differing(*runs)
            found += len(diff)
            print(f"{name} seed {args.seed}: {len(list(runs[1].iterdir()))} files, "
                  + (f"{len(diff)} differ" if diff else "all the same"))
            for path in diff:
                print(f"  differs: {path}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
