"""Benchmark of record for repro's serving stack (E25).

Run from the repository root::

    python3 perfbench/run.py --workload cm_inproc --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload cm_sharded --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py      # every workload untraced, then traced

One run of one workload: build the inputs from ``--seed``, run an
untimed in-process reference pass of the same sessions (the warm-up, and
the oracle every later pass is checked against), then run timed passes,
each a fresh deployment whose streams, built anew from the seed, are
driven to the end, until ``--seconds`` of driving have been measured.
With ``--trace 1`` the passes alternate untraced and traced; the
per-layer numbers come from the traced ones, and the tracing overhead
is the throughput ratio of the two kinds.

Metric names and units come from ``BENCHMARK.json``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics without tracing, the
per-layer metrics with it). The exit code is 0 only when every check
passed and nothing the run started is left behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import repro  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import procs  # noqa: E402
from loop import CLASSES, request_class, run_pass, setup_only  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench")
MIN_SETUPS = 5
MIN_CLASS_SAMPLES = 10
TAIL_SAMPLES = 10          # samples a tail percentile needs beyond it
TAIL_PERCENTILE = 90


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; refuses a tail without enough samples."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if q > 50 and len(ordered) - rank < TAIL_SAMPLES:
        raise RuntimeError(f"p{q:g} needs {TAIL_SAMPLES} samples beyond it; "
                           f"have {len(ordered) - rank}")
    return ordered[rank - 1]


def end_to_end(passes, setups, error) -> dict:
    latencies = {name: [] for name in CLASSES}
    everything = []
    for result in passes:
        for request in result.requests:
            if request.error is None:
                ms = request.latency * 1e3
                everything.append(ms)
                latencies[request_class(request.kind,
                                        request.decision)].append(ms)
    for name, samples in latencies.items():
        if len(samples) < MIN_CLASS_SAMPLES:
            raise RuntimeError(f"class {name!r} has {len(samples)} samples; "
                               f"a run needs {MIN_CLASS_SAMPLES}")
    return {
        "setup_s": statistics.median(setups),
        "throughput_rps": (sum(len(p.requests) for p in passes)
                           / sum(p.drive_s for p in passes)),
        "latency_p50_ms": percentile(everything, 50),
        f"latency_p{TAIL_PERCENTILE}_ms": percentile(everything,
                                                     TAIL_PERCENTILE),
        **{f"{name}_p50_ms": percentile(samples, 50)
           for name, samples in latencies.items()},
        "max_answer_error": error,
    }


def _updates(decision) -> int:
    decisions = decision if isinstance(decision, tuple) else (decision,)
    return sum(1 for source in decisions if source == "update")


def per_layer(passes, units: dict) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    rows = []
    for result in traced:
        ok = [r for r in result.requests if r.error is None]
        gateway = [r for r in ok if r.via_gateway and r.service_times]
        rows.append(layers.layer_metrics(
            result.layer_totals, requests=len(ok),
            gateway_wait_s=sum(r.service_times[0] - r.t_submit
                               for r in gateway),
            gateway_requests=len(gateway),
            latency_total_s=sum(r.latency for r in ok),
            worker_serve_s=result.worker_serve_s,
            cache_hit_ratio=result.cache_hit_ratio,
            updates=sum(_updates(r.decision) for r in ok)))
    problems = []
    metrics = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        metrics[name] = statistics.median(values)
        if units[name] == "count" and len(set(values)) > 1:
            problems.append(f"layer count {name} differs between traced "
                            f"passes: {values}")
    metrics["process.cpu_ms_per_req"] = statistics.median(
        p.cpu_s * 1e3 / len(p.requests) for p in untraced)
    metrics["process.peak_rss_mb"] = statistics.median(
        p.rss_growth_mib for p in untraced)
    metrics["trace.overhead_pct"] = 100.0 * (
        sum(p.drive_s for p in traced) / sum(len(p.requests) for p in traced)
        / (sum(p.drive_s for p in untraced)
           / sum(len(p.requests) for p in untraced)) - 1.0)
    return metrics, problems


def print_classes(passes, failed: Counter) -> None:
    """Requests attempted, succeeded and failed per class."""
    print(f"{'class':<8}{'per pass':>10}{'attempted':>11}{'succeeded':>11}"
          f"{'failed':>8}")
    expected = checks.expected_counts(passes[0].inputs.sessions)
    for name, per_pass in expected.items():
        attempted = per_pass * len(passes)
        print(f"{name:<8}{per_pass:>10}{attempted:>11}"
              f"{attempted - failed[name]:>11}{failed[name]:>8}")


def measure(name: str, seed: int, seconds: float, trace: bool,
            workdir: str, started: set, units: dict) -> dict:
    inputs = build_inputs(name, seed)
    sharded = name == "cm_sharded"
    serial = iter(range(10**6))

    def fresh_dir(tag):
        return os.path.join(workdir, f"{next(serial):03d}-{tag}")

    problems: list[str] = []

    def report(found):
        # Printed when found: a failure may leave no metric to compute.
        for text in found:
            print(f"CHECK FAILED {text}", flush=True)
        problems.extend(found)

    reference = run_pass(inputs, fresh_dir("reference"), sharded=False)
    bounds = checks.guarantees(reference)
    report(checks.check_pass(reference, reference, bounds)[0])
    if sharded:
        # Start the forkserver once, as a long-lived supervisor would.
        setup_only(inputs, fresh_dir("warm"), sharded=True)
        started.update(procs.helper_pids())
    tracer = layers.LayerTracer() if trace else None
    passes, failed, driven = [], Counter(), 0.0
    while driven < seconds or (trace and len(passes) < 2):
        traced = trace and len(passes) % 2 == 1
        # Newly built queries, outside the timed region: their memos
        # (fingerprints) are paid on the request path.
        result = run_pass(inputs.fresh(), fresh_dir("pass"), sharded=sharded,
                          tracer=tracer if traced else None)
        started.update(result.worker_pids, procs.helper_pids())
        found, bad = checks.check_pass(result, reference, bounds)
        report(found)
        sessions = result.inputs.sessions
        failed.update(checks.EXPECTED_CLASS[sessions[index].items[item].kind]
                      for index, item in bad)
        passes.append(result)
        driven += result.drive_s
        print(f"pass {len(passes)}: {'traced' if traced else 'untraced'} "
              f"setup {result.setup_s:.4f} s, {len(result.requests)} "
              f"requests in {result.drive_s:.3f} s "
              f"({result.throughput:.2f} req/s), peak RSS "
              f"+{result.rss_growth_mib:.3f} MiB", flush=True)
    print_classes(passes, failed)
    if trace:
        metrics, layer_problems = per_layer(passes, units)
        report(layer_problems)
        last = [p for p in passes if p.traced][-1]
        print(layers.layer_table(last.layer_totals, len(last.requests)))
    else:
        setups = [p.setup_s for p in passes]
        while len(setups) < MIN_SETUPS:
            setups.append(setup_only(inputs, fresh_dir("setup"),
                                     sharded=sharded))
        metrics = end_to_end(passes, setups,
                             checks.max_answer_error(passes[0]))
    return {"problems": problems, "metrics": metrics,
            "failed": sum(failed.values()),
            "attempted": sum(len(p.requests) for p in passes)}


def run_one(args) -> int:
    if not repro.__file__.startswith(os.path.join(ROOT, "src")):
        print(f"repro imported from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {WORKLOADS[args.workload]}")
    print("context " + json.dumps(procs.run_context()), flush=True)
    steal_before = procs.cpu_steal_ticks()
    shm_before = procs.shm_segments()
    os.makedirs(SCRATCH, exist_ok=True)
    # multiprocessing keeps its sockets under tempfile's directory; a
    # relative path keeps them inside the checkout and short.
    tempfile.tempdir = os.path.relpath(SCRATCH)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    started: set[int] = set()
    # A SIGTERM unwinds like an exception, so every deployment closes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        outcome = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), workdir, started, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        procs.stop_helpers()
        leftover = procs.leftovers(started, shm_before)
        for text in leftover:
            print(f"LEFTOVER {text}", file=sys.stderr)
    steal = ((procs.cpu_steal_ticks() - steal_before)
             / os.sysconf("SC_CLK_TCK"))
    print(f"context end loadavg {os.getloadavg()} cpu_steal_s {steal:.2f}")
    metrics = {m["name"]: {"value": outcome["metrics"][m["name"]],
                           "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name:<30}{metric['value']:>16.6g} {metric['unit']}")
    correct = not outcome["problems"] and not leftover
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced, then one traced run each, in subprocesses.

    A SIGTERM is passed on to the running child, whose own handler
    closes its deployments; this process then waits for it to end.
    """
    child = None
    terminated = []

    def forward(signum, frame):
        terminated.append(signum)
        if child is not None:
            child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    status = 0
    summary = []
    for trace in (0, 1):
        for name in WORKLOADS:
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            child = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
            if terminated:
                child.send_signal(signal.SIGTERM)
            stdout, stderr = child.communicate()
            sys.stdout.write(stdout)
            sys.stderr.write(stderr)
            if terminated:
                return 128 + signal.SIGTERM
            status = status or child.returncode
            lines = stdout.strip().splitlines()
            if lines and lines[-1].startswith("{"):
                summary.append((name, trace, json.loads(lines[-1])))
    for name, trace, result in summary:
        print(f"== {name} trace={trace} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"   {metric:<30}{value['value']:>16.6g} {value['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    started = time.perf_counter()
    status = run_one(args)
    print(f"run took {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
