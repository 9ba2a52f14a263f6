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
exit status is 1 if there is any, else 0.  For a differing JSON or CSV file
of the same shape on both sides (the same keys and list lengths, or the same
number of cells in each row), the largest absolute difference between its
numeric values is printed beside it, with the count of other values that
differ (hashes, say).
"""
from __future__ import annotations

import argparse
import csv
import filecmp
import json
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


def _shape_and_values(path: Path) -> tuple[list, list]:
    """A JSON document's container keys and lengths and its leaves, in order;
    or a CSV file's row lengths and its cells."""
    if path.suffix == ".csv":
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        return [len(row) for row in rows], [cell for row in rows for cell in row]
    shape, values = [], []

    def walk(node):
        if isinstance(node, (dict, list)):
            shape.append(list(node) if isinstance(node, dict) else len(node))
            for child in (node.values() if isinstance(node, dict) else node):
                walk(child)
        else:
            values.append(node)

    walk(json.loads(path.read_text(encoding="utf-8")))
    return shape, values


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def size_of_difference(a: Path, b: Path) -> str:
    """How far two versions of a JSON or CSV file lie apart, or "" for other files."""
    if a.suffix not in (".json", ".csv"):
        return ""
    (shape_a, values_a), (shape_b, values_b) = _shape_and_values(a), _shape_and_values(b)
    if shape_a != shape_b:
        return "shapes differ"
    largest, other = 0.0, 0
    for x, y in zip(values_a, values_b):
        if x != y:
            nx, ny = _number(x), _number(y)
            if nx is None or ny is None:
                other += 1
            else:
                largest = max(largest, abs(nx - ny))
    return (f"largest numeric difference {largest:.3g}"
            + (f", {other} other values differ" if other else ""))


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
                sides = [run / path for run in runs]
                size = (size_of_difference(*sides) if all(p.is_file() for p in sides)
                        else "only one side wrote it")
                print(f"  differs: {path}" + (f" ({size})" if size else ""))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
