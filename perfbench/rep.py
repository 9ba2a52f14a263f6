"""One repetition of a workload, in a fresh process.

    python3 perfbench/rep.py <plan.json> <result.json>

Starts the host-speed sampler (probe.py), imports `finsent.cli` and loads the
run configuration (the set-up a user pays on every command), stamps
CLOCK_MONOTONIC, then calls `finsent.cli.main` once per command of the plan
and writes timings, exit codes, peak RSS and the sampler's chunk times to
result.json.  Every timing leaves out the time spent in sampler chunks.
With `"trace": true` in the plan, spans are recorded around the calls into
each module and written to spans.json next to the result.
"""
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import probe


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sampler = probe.Sampler()
    sampler.start()
    import finsent.cli as cli
    cli.load_config(plan["config"])
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    setup_busy = sampler.busy

    result = {"ready": ready, "setup_busy_s": setup_busy, "finsent": cli.__file__}
    if plan["commands"]:
        result.update(run(cli, plan, sampler))
    sampler.stop()
    result["chunks"] = sampler.chunks
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def run(cli, plan: dict, sampler: probe.Sampler) -> dict:
    out = Path(plan["out"])
    out.mkdir(parents=True, exist_ok=True)
    tracer = missing = undo = None
    if plan["trace"]:
        import spans
        tracer = spans.Tracer(plan["run_id"])
        undo, missing = spans.install(tracer)

    commands = []
    start, busy0 = time.perf_counter(), sampler.busy
    with open(out / "console.log", "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for argv in plan["commands"]:
            t0, b0 = time.perf_counter(), sampler.busy
            code = cli.main(argv)
            commands.append({"command": argv[0], "exit": code,
                             "seconds": time.perf_counter() - t0 - (sampler.busy - b0)})
            if code != 0:
                break
    pipeline = time.perf_counter() - start - (sampler.busy - busy0)

    result = {"commands": commands, "pipeline_s": pipeline,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        spans.uninstall(undo)
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["untraced_bindings"] = missing
        result["span_count"] = len(tracer.spans)
        (out / "spans.json").write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    return result


if __name__ == "__main__":
    sys.exit(main())
