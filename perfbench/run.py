"""finsent benchmark: run one workload (or all) and report its metrics.

    python3 perfbench/run.py --workload paper_pipeline --seed 1 --seconds 40 --trace 0

`src/finsent` is imported from the directory above perfbench/.  Each
repetition of the workload's command sequence runs in a fresh process
(perfbench/rep.py).  Repetitions continue while the next one fits in
`--seconds` (at least MIN_REPS).  `--trace 0` reports the end-to-end metrics
(END_TO_END); `--trace 1` alternates untraced and traced repetitions and
reports per-layer metrics and the tracing overhead.  A host-speed sampler
(perfbench/probe.py) runs inside every repetition, and the end-to-end
timings are scaled to the reference host speed.  Every repetition's outputs
are checked.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics; the exit code is 1 when a check
failed.  Work files go to .bench_build/perfbench/<workload>/.  See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
SETUP_PROBES = 5        # set-up-only processes per untraced run, besides the reps
RUN_LIMIT_S = 170       # a run must end within 180 s; children past this are killed

# Median time of one sampler chunk (perfbench/probe.py) on the reference host:
# a 2-core shared x86-64 KVM guest.  A repetition's speed is REF_CHUNK_S over
# its median chunk time, and its timings are scaled by speed ** SPEED_ELASTICITY
# to read as seconds on a host of the reference speed, whatever the host did
# meanwhile.  Other work on a shared host changes its speed by up to ~40% for
# stretches as long as a run, and no statistic over one run's own
# repetitions removes that; the sampler measures it while it happens.
REF_CHUNK_S = 0.5e-3
# The share of a change in the chunk's speed that reaches the workloads'
# wall times.  Over two sets of ten runs per workload, the slope of log wall
# time on log speed was 0.75 and 0.77 (paper_pipeline), 0.76 and 0.42
# (linear_bulk), 0.39 and 0.58 (encoder_long, whose BLAS work follows the
# chunk least); scaling by the full speed over-corrected encoder_long by 13%
# in a stretch when the host ran 1.5 times faster.
SPEED_ELASTICITY = 0.5

# End-to-end metrics of BENCHMARK.json, reported by every workload, each with
# the statistic taken over the run's samples.  The wall time (unscaled) of
# each timing is printed beside it, with the run's median speed.
END_TO_END = [
    ("setup_s", "s", statistics.median),     # over set-up probes and repetitions
    ("pipeline_s", "s", statistics.median),
    ("train_samples_per_s", "1/s", statistics.median),
    ("peak_rss_mb", "MB", max),
    ("macro_f1", "ratio", statistics.median),
]
# Per-stage throughputs and per-model F1, where a workload has them; printed
# in the report only, since a workload without that stage cannot report them.
DETAILS = [
    ("encoder_train_samples_per_s", "1/s", statistics.median),
    ("encoder_predict_headlines_per_s", "1/s", statistics.median),
    ("linear_train_records_per_s", "1/s", statistics.median),
    ("encoder_macro_f1", "ratio", statistics.median),
    ("linear_macro_f1", "ratio", statistics.median),
]
# Raw wall-clock counterparts of the scaled timings, printed only.
WALL = [("setup_wall_s", "s"), ("pipeline_wall_s", "s"),
        ("train_samples_per_wall_s", "1/s"), ("speed", "ratio")]
TRACE_EXTRA = [("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio")]


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# host facts
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def host_facts(root: Path) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
        "src_sha256_16": _source_digest(root),
    }


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

def spawn(root: Path, work: Path, plan: dict, tag: str,
          deadline: float) -> tuple[dict | None, float, str]:
    """Runs rep.py on `plan`, killing it at `deadline` (CLOCK_MONOTONIC);
    returns (result or None, wall seconds, error)."""
    plan_path, result_path = work / f"plan_{tag}.json", work / f"result_{tag}.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = clock()
    proc = subprocess.Popen([sys.executable, str(HERE / "rep.py"), str(plan_path),
                             str(result_path)], cwd=work, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, clock() - t0, f"{tag}: killed at the {RUN_LIMIT_S} s run limit"
    wall = clock() - t0
    if proc.returncode != 0 or not result_path.exists():
        return None, wall, f"{tag}: exit {proc.returncode}: {err.strip()[-2000:]}"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - t0 - result["setup_busy_s"]
    if not result["chunks"]:
        return None, wall, f"{tag}: no host-speed sample"
    result["speed"] = REF_CHUNK_S / statistics.median(result["chunks"])
    result["scale"] = result["speed"] ** SPEED_ELASTICITY
    expected = (root / "src" / "finsent" / "cli.py").resolve()
    if Path(result["finsent"]).resolve() != expected:
        return None, wall, f"{tag}: imported finsent from {result['finsent']}, not {expected}"
    return result, wall, ""


def _count_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def rep_metrics(wl, rep: dict, facts: dict, out: Path) -> dict[str, float]:
    """End-to-end and per-stage metrics of one untraced repetition; timings are
    scaled by the host speed measured while it ran."""
    scale = rep["scale"]
    stage: dict[str, float] = {}
    for c in rep["commands"]:
        stage[c["command"]] = stage.get(c["command"], 0.0) + c["seconds"] * scale
    train_records = _count_rows(out / wl.train_file)
    models = facts["models"]
    train_per_s = wl.train_epochs * train_records / stage[wl.train_stage]
    m = {
        "setup_s": rep["setup_s"] * scale,
        "pipeline_s": rep["pipeline_s"] * scale,
        "train_samples_per_s": train_per_s,
        "peak_rss_mb": rep["peak_rss_mb"],
        "macro_f1": statistics.fmean(v["macro_f1"] for v in models.values()),
        "setup_wall_s": rep["setup_s"],
        "pipeline_wall_s": rep["pipeline_s"],
        "train_samples_per_wall_s": train_per_s * scale,
        "speed": rep["speed"],
    }
    if "encoder" in models:
        m["encoder_train_samples_per_s"] = (wl.train_epochs * train_records
                                            / stage["train-encoder"])
        m["encoder_predict_headlines_per_s"] = facts["test_records"] / stage["predict"]
        m["encoder_macro_f1"] = models["encoder"]["macro_f1"]
    if "linear" in models:
        m["linear_train_records_per_s"] = train_records / stage["train-linear"]
        m["linear_macro_f1"] = models["linear"]["macro_f1"]
    return m


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    work = root / ".bench_build" / "perfbench" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = clock()
    deadline = started + RUN_LIMIT_S
    plan = workloads.prepare(wl, root, work / "inputs", seed)

    errors: list[str] = []
    setups: list[dict] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    digests: dict[str, str] | None = None
    attempted = failed = 0

    if not trace:
        for k in range(SETUP_PROBES):
            only, _, err = spawn(root, work, {"config": plan["config"], "commands": []},
                                 f"setup{k}", deadline)
            if only is None:
                errors.append(err)
            else:
                setups.append({"setup_s": only["setup_s"] * only["scale"],
                               "setup_wall_s": only["setup_s"], "speed": only["speed"]})

    walls: list[float] = []
    k = 0
    while True:
        is_traced = trace and k % 2 == 1
        out = work / f"rep{k}"
        rep_plan = {"config": plan["config"], "out": str(out), "trace": is_traced,
                    "run_id": f"{name}-seed{seed}-rep{k}",
                    "commands": workloads.argv_list(wl, plan, out)}
        rep, wall, err = spawn(root, work, rep_plan, f"rep{k}", deadline)
        walls.append(wall)
        k += 1
        n_commands = len(rep_plan["commands"])
        if rep is None:
            errors.append(err)
            attempted += n_commands
            failed += n_commands
            break
        attempted += n_commands
        bad = [c for c in rep["commands"] if c["exit"] != 0]
        if bad or len(rep["commands"]) != n_commands:
            failed += n_commands - sum(1 for c in rep["commands"] if c["exit"] == 0)
            errors.append(f"rep{k - 1}: command {bad[0]['command'] if bad else '?'} "
                          f"exited {bad[0]['exit'] if bad else '?'}; see {out}/console.log")
            break
        rep_errors, facts = workloads.check_outputs(wl, out)
        attempted += facts["test_records"] * len(wl.models)
        failed += facts["failed_headlines"]
        errors += [f"rep{k - 1}: {e}" for e in rep_errors]
        found = workloads.manifest_digests(out)
        if digests is None:
            digests = found
        elif found != digests:
            differ = sorted(n for n in set(found) | set(digests)
                            if found.get(n) != digests.get(n))
            errors.append(f"rep{k - 1}: manifests differ from rep0: {', '.join(differ)}")
        if is_traced:
            traced.append(rep)
        else:
            rep["metrics"] = m = rep_metrics(wl, rep, facts, out)
            setups.append({n: m[n] for n in ("setup_s", "setup_wall_s", "speed")})
            untraced.append(rep)
        if rep_errors:
            break
        # Stop when the next repetition (in a traced run, the next untraced and
        # traced pair) would end after `seconds`.
        if trace:
            enough, next_wall = k % 2 == 0, sum(walls[-2:])
        else:
            enough, next_wall = len(untraced) >= MIN_REPS, max(walls[-2:])
        if enough and clock() - started + next_wall > seconds:
            break

    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "errors": errors, "attempted": attempted, "failed": failed,
            "setups": setups, "untraced": untraced, "traced": traced,
            "input_properties": plan["input_properties"],
            "elapsed_s": clock() - started, "work_dir": str(work)}


# ---------------------------------------------------------------------------
# reduction and report
# ---------------------------------------------------------------------------

def summarize(res: dict) -> tuple[dict, list[str]]:
    """The JSON metrics and the report lines of one workload run."""
    lines = []
    metrics: dict[str, dict] = {}

    def line(name, value, unit, n, note=""):
        lines.append(f"  {name:<40} {value:>14.6g} {unit:<6} n={n}{note}")

    def reduced(name, unit, stat, values):
        value = stat(values)
        note = ("" if stat is statistics.median else
                f"  ({stat.__name__}; median {statistics.median(values):.6g})")
        line(name, value, unit, len(values), note)
        return value

    if not res["trace"]:
        reps = [r["metrics"] for r in res["untraced"]]
        for name, unit, stat in END_TO_END:
            values = [r[name] for r in (res["setups"] if name == "setup_s" else reps)]
            if values:
                metrics[name] = {"value": reduced(name, unit, stat, values), "unit": unit}
        lines.append("  wall-clock timings, unscaled, and host speed (report only):")
        for name, unit in WALL:
            values = [r[name] for r in (res["setups"] if name == "setup_wall_s" else reps)]
            if values:
                reduced(name, unit, statistics.median, values)
        lines.append("  per-stage and per-model metrics, scaled (report only):")
        for name, unit, stat in DETAILS:
            if reps and name in reps[0]:
                reduced(name, unit, stat, [r[name] for r in reps])
        line("failed_frac", res["failed"] / max(res["attempted"], 1), "ratio",
             res["attempted"])
    else:
        per_rep = [r["layers"] for r in res["traced"]]
        if per_rep:
            layer = spans.median_metrics(per_rep)
            # Each traced repetition runs right after an untraced one; the
            # median of the pairs' differences, in scaled time, is the
            # tracing overhead.
            pairs = [(u["pipeline_s"] * u["scale"], t["pipeline_s"] * t["scale"])
                     for u, t in zip(res["untraced"], res["traced"])]
            layer["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
            layer["trace.overhead_frac"] = layer["trace.overhead_s"] / statistics.median(
                u for u, _ in pairs)
            units = {n: u for n, u, _ in spans.METRICS} | dict(TRACE_EXTRA)
            for name, unit in units.items():
                metrics[name] = {"value": layer[name], "unit": unit}
                line(name, layer[name], unit, len(per_rep))
            stage = layer["cli.train_encoder_s"]
            if stage:
                loop = layer["encoder.train_loop_s"]
                rest = layer["cli.train_encoder_unaccounted_s"]
                lines.append(
                    f"  train-encoder stage {stage:.3f} s: encoder.train_loop "
                    f"{loop:.3f} s ({loop / stage:.1%}); not covered by any traced call "
                    f"{rest:.3f} s ({rest / stage:.1%}): turning records into examples, "
                    f"parameter and adapter init, checkpoint, trace and manifest writing")
            missing = res["traced"][0].get("untraced_bindings")
            if missing:
                lines.append(f"  bindings not found, not traced: {', '.join(missing)}")
    return metrics, lines


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "finsent" / "cli.py").is_file():
        print(f"perfbench: no finsent source tree at {root / 'src' / 'finsent'}",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    host = host_facts(root)
    print("host: " + json.dumps(host, sort_keys=True))
    ok = True
    for name in names:
        res = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        metrics, lines = summarize(res)
        correct = not res["errors"] and bool(metrics)
        ok &= correct
        print(f"workload {name} seed {args.seed} trace {args.trace}: "
              f"{len(res['untraced'])} untraced + {len(res['traced'])} traced reps, "
              f"{res['elapsed_s']:.1f} s, correct={correct}")
        print("  input: " + json.dumps(res["input_properties"], sort_keys=True))
        print("\n".join(lines))
        for e in res["errors"]:
            print(f"  CHECK FAILED: {e}")
        res["host"] = host
        Path(res["work_dir"], "result.json").write_text(
            json.dumps(res, indent=1, sort_keys=True), encoding="utf-8")
        print(json.dumps({"correct": correct, "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": metrics}), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
