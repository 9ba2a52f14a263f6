"""A/B benchmark: perfbench on a parent commit and on the working tree, in pairs.

    python3 benchmarks/ab.py --number <n> --workload linear_bulk --seed 23 --pairs 10 \\
        --claim train_samples_per_s --note "what the change does"

The parent's committed files (`--parent`, default HEAD: the commit the working
tree is based on) are extracted with `git archive` into a temporary
directory, so the repository's `.git` is never written.  Each pair runs
`perfbench/run.py` once on each side for BENCHMARK.json's `run_seconds`, the
parent first in even pairs and second in odd ones.  The run stops after the
first pair if both sides report the same source digest, as they do when the
change is already committed and `--parent` was left at HEAD.  The result is merged into `BENCH_<number>.json` at the
repository root, as one section:

- `claim` (with `--claim METRIC`): for each end-to-end metric of the
  workload, both sides' runs, medians, quartiles and the pairs the change
  won, and whether the claim holds: the change wins at least 9 in 10 pairs
  and its median is better than the parent's by more than the parent's
  interquartile range.  For a timing, `wall_counterpart` says whether its
  unscaled wall-clock counterpart moved the same way;
- `all_workloads` (`--workload all`): the same statistics for every workload;
- `traced_per_layer` (`--trace 1`): the per-layer metrics of each workload
  that either side reports as non-zero.

perfbench scales its end-to-end timings by the host speed it samples, and
prints the unscaled ones (`WALL`) only in its report lines.  Untraced
sections record those too, parsed from the report, beside the scaled ones.

The host facts of perfbench's `host:` line and both trees' source digests are
recorded beside them.  perfbench/ and BENCHMARK.json are only read.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
# The wall-clock counterpart of each scaled end-to-end timing, and the host speed.
WALL_OF = {"setup_s": "setup_wall_s", "pipeline_s": "pipeline_wall_s",
           "train_samples_per_s": "train_samples_per_wall_s"}
WALL = [*WALL_OF.values(), "speed"]
BETTER |= {wall: BETTER[m] for m, wall in WALL_OF.items()} | {"speed": "higher"}
WIN_SHARE = 0.9


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, text=True,
                          capture_output=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of commit `rev`, as committed, under `dest`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def perfbench(tree: Path, args) -> tuple[dict, dict[str, dict]]:
    """One perfbench run in `tree`: its host facts and, per workload, its
    last-line JSON (correct, attempted, failed, metrics), with the `WALL`
    values of its report lines added to the metrics."""
    n_workloads = len(SPEC["workloads"]) if args.workload == "all" else 1
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(args.trace)],
        cwd=tree, text=True, capture_output=True,
        timeout=6 * SPEC["run_seconds"] * n_workloads)
    host, results, walls, name = {}, {}, {}, None
    for line in proc.stdout.splitlines():
        fields = line.split()
        if line.startswith("host: "):
            host = json.loads(line[len("host: "):])
        elif line.startswith("workload "):
            name, walls = fields[1], {}
        elif fields and fields[0] in WALL:  # "  <name> <value> <unit> n=<reps>"
            walls[fields[0]] = {"value": float(fields[1]), "unit": fields[2]}
        elif line.startswith("{") and name is not None:
            results[name] = json.loads(line)
            results[name]["metrics"].update(walls)
    if not results:
        raise RuntimeError(f"perfbench in {tree} exited {proc.returncode} with no "
                           f"result:\n{proc.stderr[-2000:]}")
    return host, results


def sig(x: float) -> float:
    return float(f"{x:.4g}")


def stats(runs: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1
                 else (runs[0],) * 3)
    return {"median": sig(statistics.median(runs)), "q1": sig(q1), "q3": sig(q3),
            "runs": [sig(r) for r in runs]}


def compare(name: str, parent: list[float], change: list[float]) -> dict:
    """Both sides' statistics and the pairs in which the change did better."""
    sign = 1 if BETTER.get(name, "lower") == "higher" else -1
    return {"parent": stats(parent), "change": stats(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change))}


def ratio_of_medians(name: str, parent: list[float], change: list[float]) -> float:
    """The change's median over the parent's, taken so that > 1 is better."""
    p, c = statistics.median(parent), statistics.median(change)
    return round(c / p if BETTER[name] == "higher" else p / c, 3)


def claim_holds(name: str, parent: list[float], change: list[float], wins: int) -> bool:
    """The change won >= 90% of pairs and its median gain exceeds the parent's
    interquartile range."""
    p, c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    return (wins >= math.ceil(WIN_SHARE * len(parent))
            and (c - p if BETTER[name] == "higher" else p - c) > q3 - q1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]] + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--parent", default="HEAD", help="commit to compare against")
    ap.add_argument("--claim", help="end-to-end metric the change claims to improve")
    ap.add_argument("--note", help="one line on what the change does")
    args = ap.parse_args(argv)
    if args.claim and (args.claim not in END_TO_END or args.workload == "all"
                       or args.trace or args.pairs < 2):
        ap.error("--claim takes an end-to-end metric, one workload, --trace 0 "
                 "and at least 2 pairs")

    parent_commit = git("rev-parse", args.parent)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    hosts: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        export(parent_commit, Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                host, results = perfbench(trees[side], args)
                hosts.setdefault(side, host)
                if len(hosts) == 2 and (hosts["parent"].get("src_sha256_16")
                                        == hosts["change"].get("src_sha256_16")):
                    sys.exit(f"the parent {parent_commit[:12]} has the same sources "
                             f"as the working tree: pass --parent")
                runs[side].append(results)
                print(f"pair {pair} {side}: " + json.dumps(
                    {wl: {m: v["value"] for m, v in r["metrics"].items()
                          if m in END_TO_END or m in WALL or m.startswith("cli.")}
                     for wl, r in results.items()}), file=sys.stderr, flush=True)

    def series(side: str, wl: str, metric: str) -> list[float]:
        return [r[wl]["metrics"][metric]["value"] for r in runs[side]]

    def reported(wl: str) -> list[str]:
        if not args.trace:
            return END_TO_END + WALL
        return [m for m in runs["parent"][0][wl]["metrics"]
                if any(v for side in runs for v in series(side, wl, m))]

    workloads = list(runs["parent"][0])
    table = {wl: {m: compare(m, series("parent", wl, m), series("change", wl, m))
                  for m in reported(wl)}
             for wl in workloads}
    incorrect = [f"{side} run {k} {wl}" for side in runs
                 for k, r in enumerate(runs[side]) for wl in r if not r[wl]["correct"]]
    command = (f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
               f"--seconds {SPEC['run_seconds']} --trace {args.trace}")
    section = {"command": command, "pairs": args.pairs,
               "order": "alternating, parent first in even pairs",
               "incorrect_runs": incorrect}
    if args.claim:
        wl = workloads[0]
        parent, change = series("parent", wl, args.claim), series("change", wl, args.claim)
        met = claim_holds(args.claim, parent, change, table[wl][args.claim]["change_wins"])
        ratio = ratio_of_medians(args.claim, parent, change)
        key = "claim"
        section = {"metric": args.claim, "workload": wl, **section,
                   "rule": f"change wins >= {WIN_SHARE:.0%} of pairs and the median "
                           f"gain exceeds the parent's interquartile range",
                   "metrics": table[wl], "met": met and not incorrect,
                   "ratio_of_medians": ratio}
        wall = WALL_OF.get(args.claim)
        if wall:
            wall_ratio = ratio_of_medians(wall, series("parent", wl, wall),
                                          series("change", wl, wall))
            section["wall_counterpart"] = {
                "metric": wall, "ratio_of_medians": wall_ratio,
                "change_wins": table[wl][wall]["change_wins"],
                "same_way": (wall_ratio > 1) == (ratio > 1)}
    elif args.trace:
        key, section["values"] = "traced_per_layer", table
    else:
        key, section["medians"] = "all_workloads", table

    out = ROOT / f"BENCH_{args.number}.json"
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    if args.note:
        doc["change"] = args.note
    doc["host"] = {k: v for k, v in hosts["change"].items()
                   if k not in ("commit", "src_sha256_16")}
    doc["parent"] = {"commit": parent_commit,
                     "src_sha256_16": hosts["parent"].get("src_sha256_16")}
    doc["change_tree"] = {"based_on": git("rev-parse", "HEAD"),
                          "uncommitted_changes": bool(git("status", "--porcelain")),
                          "src_sha256_16": hosts["change"].get("src_sha256_16")}
    doc[key] = section
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote section {key} of {out}", file=sys.stderr)
    return 0 if not incorrect else 1


if __name__ == "__main__":
    sys.exit(main())
