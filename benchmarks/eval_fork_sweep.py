"""Sweep: at what eval work does a forked eval beside the next epoch pay?

    python3 benchmarks/eval_fork_sweep.py --reps 5

`train-encoder` forks each epoch's eval when its work, real tokens x d_model
x n_layers summed over the eval sets, reaches `cli.EVAL_FORK_MIN_WORK`.  This
script times `train-encoder` both ways, with that constant set to 0 (forked)
and to infinity (inline), for a range of encoder sizes: encoder_long's
inputs (`perfbench/workloads.py`, seed 12, 120 train and 120 test records,
3 epochs, full fine-tune) under six (d_model, n_layers) pairs, and
paper_pipeline's criterion-12 `train-encoder` (PEFT, 30 epochs, 90 records).
Each timed run is a fresh process that runs the stage through
`finsent.cli.main`; the two ways alternate, inline first in even
repetitions.  It prints, per size, the work, the median seconds and peak RSS
(`RUSAGE_SELF`, MB) of each way, the speed-up and the pairs the fork won;
its last line is the same as one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab import ROOT

# (name, encoder config YAML or None for paper_pipeline's)
SIZES = [(f"encoder_long d{d} L{n}",
          f"split: {{train_total: 120, test_total: 120}}\n"
          f"features: {{max_seq_len: 64}}\n"
          f"encoder: {{d_model: {d}, n_heads: 4, d_ff: {2 * d}, n_layers: {n},\n"
          f"          train: {{epochs: 3, base_lr: 0.002}}}}\n")
         for d, n in [(16, 1), (32, 1), (32, 2), (64, 2), (128, 2), (128, 4)]]
SIZES.insert(0, ("paper_pipeline", None))


def cli(*argv: str) -> None:
    subprocess.run([sys.executable, "-m", "finsent.cli", *argv], check=True,
                   capture_output=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


def prepare(name: str, config: str | None, work: Path) -> list[str]:
    """Writes the stage's inputs under `work`; returns its argv."""
    out = work / "run"
    if config is None:
        cli("ingest", "--out", str(out))
        cli("split", "--train-total", "45", "--test-total", "45", "--seed", "7",
            "--out", str(out))
        cli("augment", "--seed", "7", "--out", str(out))
        return ["train-encoder", "--peft", "--epochs", "30", "--seed", "7",
                "--train", f"{out}/train_augmented.csv", "--out", str(out)]
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    plan = workloads.prepare(workloads.WORKLOADS["encoder_long"], ROOT, work, 12)
    (work / "config.yaml").write_text(config, encoding="utf-8")
    common = ["--out", str(out), "--config", str(work / "config.yaml")]
    cli("ingest", "--data", plan["data"], *common)
    cli("split", *common)
    return ["train-encoder", "--test", f"{out}/test.csv", *common]


def one_run(argv: list[str], forked: bool) -> dict:
    """`train-encoder` in this process: seconds, peak RSS and eval work."""
    sys.path.insert(0, str(ROOT / "src"))
    import finsent.cli as finsent_cli
    from finsent import encoder as enc
    finsent_cli.EVAL_FORK_MIN_WORK = 0 if forked else float("inf")
    tokens, encode = [], enc.EncoderTextClassifier.encode

    def counted(self, texts):
        ids, mask = encode(self, texts)
        tokens.append(int(mask.sum()))
        return ids, mask

    enc.EncoderTextClassifier.encode = counted
    config = {}
    real_loop = enc.train_loop

    def loop(examples, params, cfg, *args, **kwargs):
        config.update(d_model=cfg.d_model, n_layers=cfg.n_layers)
        return real_loop(examples, params, cfg, *args, **kwargs)

    enc.train_loop = loop
    start = time.perf_counter()
    if finsent_cli.main(argv) != 0:
        raise SystemExit(f"{argv} failed")
    return {"seconds": time.perf_counter() - start,
            "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "work": sum(tokens) * config["d_model"] * config["n_layers"]}


def spawn(argv: list[str], forked: bool) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--one", json.dumps([argv, forked])],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=5, help="runs per size and way")
    ap.add_argument("--one", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(one_run(*json.loads(args.one))))
        return 0

    rows = []
    with tempfile.TemporaryDirectory(prefix="eval-fork-sweep-") as tmp:
        stages = [(name, prepare(name, config, Path(tmp) / str(i)))
                  for i, (name, config) in enumerate(SIZES)]
        runs = {name: {"inline": [], "forked": []} for name, _ in stages}
        for rep in range(args.reps):
            ways = (False, True) if rep % 2 == 0 else (True, False)
            for name, stage in stages:
                for forked in ways:
                    runs[name]["forked" if forked else "inline"].append(spawn(stage, forked))
            print(f"rep {rep} done", file=sys.stderr, flush=True)
    print(f"{'size':<24}{'work':>10}{'inline s':>10}{'forked s':>10}{'speed-up':>10}"
          f"{'won':>6}{'inline MB':>11}{'forked MB':>11}")
    for name, _ in stages:
        inline, forked = runs[name]["inline"], runs[name]["forked"]
        med = {way: {key: statistics.median(r[key] for r in rs)
                     for key in ("seconds", "peak_mb")}
               for way, rs in (("inline", inline), ("forked", forked))}
        won = sum(f["seconds"] < i["seconds"] for i, f in zip(inline, forked))
        rows.append({"size": name, "work": inline[0]["work"], **med, "forked_won": won,
                     "speedup": med["inline"]["seconds"] / med["forked"]["seconds"],
                     "runs": runs[name]})
        r = rows[-1]
        print(f"{name:<24}{r['work']:>10}{med['inline']['seconds']:>10.3f}"
              f"{med['forked']['seconds']:>10.3f}{r['speedup']:>10.2f}"
              f"{won:>3}/{args.reps}{med['inline']['peak_mb']:>11.2f}"
              f"{med['forked']['peak_mb']:>11.2f}")
    print(json.dumps({"reps": args.reps, "sizes": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
