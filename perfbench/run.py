"""flagcodes benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload sim-gf3 --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from ./src. With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer metrics of a traced run of fixed size. The last line of output
is the result object; the line before it holds the run's context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def pass_ops(passes):
    """Each analyze pass as one operation: its report and verify intervals."""
    return [reports + [verify] for reports, verify in passes]


def summarize(setups, ops, duration):
    """End-to-end metrics from set-up intervals and per-operation intervals
    (each operation a list of intervals), timed by `duration`."""
    latencies = [sum(duration(i) for i in op) for op in ops]
    p50, p90 = workloads.percentiles_ms(latencies)
    return {
        "setup_s": metric(statistics.median(duration(i) for i in setups), "s"),
        "trials_per_s": metric(workloads.rate(latencies), "1/s"),
        "trial_p50_ms": metric(p50, "ms"),
        "trial_p90_ms": metric(p90, "ms"),
    }


def end_to_end(w, seed, seconds, gate, context):
    """End-to-end metrics at the yardstick's nominal machine speed; the raw
    figures go to the context."""
    with workloads.Yardstick() as ys:
        prepared, setups = workloads.timed_setups(w.codes, gate)
        if w.sampler is None:
            passes = workloads.run_passes(prepared, gate, seconds=seconds)
        else:
            rng = workloads.trial_rng(w.name, seed)
            trials = workloads.run_trials(prepared, w.sampler, rng, gate, seconds=seconds,
                                          forbid_step1=w.forbid_step1)
    if w.sampler is None:
        ops = pass_ops(passes)
        for part, pick in (("report_s", lambda p: p[0]), ("verify_s", lambda p: [p[1]])):
            value = statistics.median(sum(map(ys.duration, pick(p))) for p in passes)
            context[part] = {**metric(value, "s"), "samples": len(passes)}
        context["samples"] = {"setup": len(setups), "passes": len(passes)}
    else:
        ops = [[i] for i in trials.intervals]
        context["samples"] = {"setup": len(setups), "trials": len(ops)}
        context["steps"] = trials.steps
    context["yardstick"] = {
        "samples": len(ys.samples),
        "median_s": statistics.median(ys.samples),
        "nominal_s": ys.NOMINAL_S,
    }
    context["raw"] = summarize(setups, ops, ys.raw)
    return summarize(setups, ops, ys.duration)


def traced(w, seed, seconds, gate, context):
    """Per-layer metrics over a fixed amount of work, plus the tracing
    overhead against an untraced window of the same loop."""
    tracer = Tracer()
    with tracer.installed():
        prepared = workloads.setup(w.codes, gate, tracer)
    # Separate streams, so the traced work is the same whatever the
    # untraced window managed to run.
    if w.sampler is None:
        plain = pass_ops(workloads.run_passes(prepared, gate, count=1))
        with tracer.installed():
            passes = workloads.run_passes(prepared, gate, count=w.traced_count)
        timed = pass_ops(passes)
    else:
        run = workloads.run_trials
        plain = run(prepared, w.sampler, workloads.trial_rng(w.name + "/untraced", seed),
                    gate, seconds=seconds / 2, forbid_step1=w.forbid_step1).intervals
        with tracer.installed():
            result = run(prepared, w.sampler, workloads.trial_rng(w.name, seed), gate,
                         count=w.traced_count, forbid_step1=w.forbid_step1)
        plain = [[i] for i in plain]
        timed = [[i] for i in result.intervals]
        context["steps"] = result.steps

    def ops_per_s(ops):
        return len(ops) / sum(end - start for op in ops for start, end in op)

    plain_rate, traced_rate = ops_per_s(plain), ops_per_s(timed)
    context["samples"] = {"setup": 1, "untraced": len(plain), "traced": len(timed)}
    context["tracing_overhead"] = {
        "untraced_trials_per_s": plain_rate,
        "traced_trials_per_s": traced_rate,
        "traced_minus_untraced_trials_per_s": traced_rate - plain_rate,
    }
    out = ROOT / ".perfbench" / f"trace-{w.name}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(tracer.call_tree(), indent=1))
    context["call_tree"] = str(out.relative_to(ROOT))
    return tracer.metrics()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    w = workloads.WORKLOADS[args.workload]
    gate = workloads.Gate()
    context = {
        "workload": w.name,
        "codes": list(w.codes),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
    }
    t0 = time.perf_counter()
    run = traced if args.trace else end_to_end
    metrics = run(w, args.seed, args.seconds, gate, context)
    context["wall_s"] = time.perf_counter() - t0
    context["failed_ratio"] = metric(gate.failed / gate.attempted, "ratio")
    if gate.misses:
        context["misses"] = gate.misses
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        from tracer import Tracer
    except ImportError as exc:
        print(f"error: cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(workloads.flagcodes.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: flagcodes imported from outside {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
