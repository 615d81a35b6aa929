#!/usr/bin/env python3
"""Repository benchmark: wall-clock cost of the simulator on three workloads.

    python3 perfbench/run.py --workload restore-matrix --seed 1 --seconds 15 --trace 0

Run from the repository root. Builds the perfbench driver (perfbench.cc) from
source into $CARGO_TARGET_DIR (default .bench_build), runs one workload, and
prints every metric BENCHMARK.json names for that mode: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics; the
lines before it give the context (digest, tail percentile, span table, ratio
bases). The exit code is nonzero when an output check fails.

perfbench/README.md describes the workloads and every metric.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("restore-matrix", "burst", "cluster")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Seconds of one calibration round (perfbench.cc, Calibrator) at the speed
# that wall-clock metrics are scaled to: about what it takes on an idle
# 4-vCPU Xeon (Sapphire Rapids) guest.
CAL_REFERENCE_S = 0.060

# Tail percentile candidates, highest first; the reported tail is the highest
# one with at least TAIL_MIN_BEYOND samples above it. The rungs are far apart so
# that run-to-run changes in the iteration count rarely switch the rung.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# Spans whose self time is reported per call and as a share of the timed phase.
TIMED_SPANS = ("workloads.generate", "core.record", "runtime.invoke", "cluster.add_function",
               "cluster.run")
# Root spans of the timed phase (iterations, and the cluster probe beside them).
TIMED_ROOTS = ("iter", "probe")

FAULT_CLASSES = {
    "anon": "anonymous",
    "minor": "minor",
    "major": "major",
    "inflight": "inflight-wait",
    "uffd": "uffd-handled",
    "preinstalled": "uffd-preinstalled",
}

# Metrics each workload cannot observe from public calls; they print 0.
NOT_OBSERVABLE = {
    "cluster": ("sim.", "mem.", "storage.", "restore.", "core.sim_fetch_ms", "runtime."),
    "restore-matrix": ("cluster.",),
    "burst": ("cluster.",),
}


def percentile(values, p):
    """Linear-interpolated percentile (0 <= p <= 100) of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of `count` samples above it.

    Falls back to the median when there are too few samples for any rung.
    """
    for p in TAIL_LADDER:
        if count * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return p
    return 50.0


def self_times(names, records):
    """Aggregates spans per name: calls, total and self nanoseconds.

    `records` holds [name_index, parent_index, start_ns, end_ns, iteration]. A
    span's self time is its duration minus the part of it that its child spans
    cover (children are clipped to the parent and overlaps counted once).
    """
    children = {}
    for index, record in enumerate(records):
        children.setdefault(record[1], []).append(index)
    out = {}
    for index, (name, _parent, start, end, _iteration) in enumerate(records):
        covered = 0
        cursor = start
        for child_start, child_end in sorted(
                (records[c][2], records[c][3]) for c in children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        entry = out.setdefault(names[name], {"calls": 0, "total_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += (end - start) - covered
    return out


def parse_raw(text):
    """The driver's measurement document: the last non-empty line of its stdout."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("driver printed nothing")
    doc = json.loads(lines[-1])
    if not isinstance(doc, dict) or "timed" not in doc or "sim" not in doc:
        raise ValueError("driver output is not a measurement document")
    return doc


def load_spec(path):
    """BENCHMARK.json, with every metric name and unit checked against the grammar."""
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            name = entry["name"]
            if not NAME_RE.match(name) or name in seen:
                raise ValueError("bad or repeated name: %r" % name)
            seen.add(name)
            if section != "workloads" and not UNIT_RE.match(entry["unit"]):
                raise ValueError("bad unit for %s: %r" % (name, entry["unit"]))
    return spec


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def scaled_iter_ms(phase):
    """Iteration wall times of a phase at the reference speed.

    Each is multiplied by CAL_REFERENCE_S over the calibration round time next
    to it, so a slow period on a shared host cancels out.
    """
    return [ms * CAL_REFERENCE_S / cal for ms, cal in zip(phase["iter_ms"], phase["iter_cal_s"])]


def scaled_pass_s(phase, per_pass):
    """Per pass: the sum of its scaled iteration times, in seconds."""
    ms = scaled_iter_ms(phase)
    return [sum(ms[i * per_pass:(i + 1) * per_pass]) / 1e3 for i in range(len(phase["pass_s"]))]


def end_to_end(raw):
    """End-to-end metrics of an untraced run, plus context lines."""
    timed = raw["timed"]
    per_pass = raw["iterations_per_pass"]
    iter_ms = scaled_iter_ms(timed)
    pass_s = scaled_pass_s(timed, per_pass)
    sim = raw["sim"]
    # The rung follows the guaranteed pass count, so it never changes with the
    # speed of the machine.
    tail_p = tail_percentile(raw["min_passes"] * per_pass)
    attempted = timed["attempted"]
    setups = [s * CAL_REFERENCE_S / cal for s, cal in zip(raw["setup_s"], raw["setup_cal_s"])]
    metrics = {
        "setup_s": statistics.median(setups),
        "sim_inv_per_s": statistics.median(
            ratio(done, sec) for done, sec in zip(timed["pass_completed"], pass_s)),
        "iter_ms_p50": statistics.median(iter_ms),
        "iter_ms_tail": percentile(iter_ms, tail_p),
        "peak_rss_mib": raw["peak_rss_kib"] / 1024.0,
        "sim_latency_ms_p50": sim["latency_ms_p50"],
        "sim_latency_ms_p99": sim["latency_ms_p99"],
        "ok_frac": 1.0 - ratio(timed["failed"], attempted),
        "cold_start_rate": sim["cold_start_rate"],
    }
    notes = [
        "wall times are scaled to a calibration round of %g s; rounds took %.4f s"
        " (median), %.4f to %.4f"
        % (CAL_REFERENCE_S, statistics.median(timed["iter_cal_s"]), min(timed["iter_cal_s"]),
           max(timed["iter_cal_s"])),
        "unscaled: pass %.3f s (median of %d passes of %d iterations), iteration p50 %.3f ms,"
        " set-up %.3f s"
        % (statistics.median(timed["pass_s"]), len(timed["pass_s"]), per_pass,
           statistics.median(timed["iter_ms"]), statistics.median(raw["setup_s"])),
        "iter_ms_tail is p%g over %d iterations" % (tail_p, len(iter_ms)),
        "setup_s is the median of %d scaled set-ups: %s"
        % (len(setups), " ".join("%.3f" % s for s in setups)),
        "sim_inv_per_s: median over passes of %d simulated invocations each"
        % statistics.median(timed["pass_completed"]),
        "ok_frac: %d failed of %d attempted" % (timed["failed"], attempted),
    ]
    return metrics, notes


def per_layer(raw):
    """Per-layer metrics of a traced run, plus context lines."""
    sim = raw["sim"]
    untraced = raw["timed"]
    traced = raw["traced"]
    names, records = raw["spans"]["names"], raw["spans"]["records"]
    spans = self_times(names, records)
    timed_spans = self_times(names, timed_records(records))
    timed_wall = sum(timed_spans.get(root, {}).get("total_ns", 0) for root in TIMED_ROOTS)

    def timed_share(name):
        return ratio(timed_spans.get(name, {}).get("self_ns", 0), timed_wall)

    traced_ms = scaled_iter_ms(traced)
    untraced_ms = scaled_iter_ms(untraced)
    inv = sim["invocations"]
    faults = sim["faults"]
    total_faults = sum(faults.values())
    metrics = {}
    for name in TIMED_SPANS:
        # Per call in the timed phase; records on restore-matrix and burst
        # happen only in set-up.
        entry = timed_spans.get(name) or spans.get(name) or {"calls": 0, "self_ns": 0}
        metrics[name + "_ms"] = ratio(entry["self_ns"], entry["calls"]) / 1e6
        metrics[name + "_share"] = timed_share(name)
    invoke_wall = spans.get("runtime.invoke", {}).get("total_ns", 0)
    metrics.update({
        "workloads.trace_ops_per_inv": ratio(sim["trace_ops"], sim["traces"]),
        "sim.events_per_inv": ratio(sim["events"], inv),
        "sim.ns_per_event": ratio(invoke_wall, traced["events"]),
        "mem.nofault_frac": ratio(sim["trace_ops"] - total_faults, sim["trace_ops"]),
        "mem.sim_fault_wait_ms": ratio(sim["fault_wait_ms"], inv),
        "storage.read_requests": ratio(sim["read_requests"], inv),
        "storage.sim_demand_wait_ms": ratio(sim["demand_wait_ms"], inv),
        "storage.merged_frac": ratio(sim["merged_requests"], sim["read_requests"]),
        "core.sim_fetch_ms": ratio(sim["fetch_ms"], inv),
        "restore.sim_setup_ms": ratio(sim["setup_ms"], inv),
        "restore.mmap_calls": ratio(sim["mmap_calls"], inv),
        "cluster.epochs": ratio(sim["epochs"], sim["scenarios"]),
        # Schedule 0 is the first iteration of every pass.
        "cluster.thread_speedup": ratio(
            statistics.median(raw["serial_scenario_s"]) * 1e3,
            statistics.median(untraced["iter_ms"][::raw["iterations_per_pass"]]))
        if raw["serial_scenario_s"] else 0.0,
        "cluster.routing.warm_frac": ratio(sim["warm_routes"], sim["routed"]),
        "cluster.routing.cached_frac": ratio(sim["cached_routes"], sim["routed"]),
        "cluster.routing.spill_frac": ratio(sim["spills"], sim["routed"]),
        "trace.overhead_frac": ratio(statistics.median(traced_ms),
                                     statistics.median(untraced_ms)) - 1.0,
        "trace.spans": len(raw["spans"]["records"]),
    })
    for short, cls in FAULT_CLASSES.items():
        metrics["mem.faults_per_inv." + short] = ratio(faults[cls], inv)
    notes = [
        "per-invocation ratios are over %d simulated invocations of pass 1" % inv,
        "workloads.trace_ops_per_inv: %d page accesses in %d traces"
        % (sim["trace_ops"], sim["traces"]),
        "mem.nofault_frac base: %d accesses, %d faults" % (sim["trace_ops"], total_faults),
        "sim.ns_per_event base: %d events in %.1f ms of runtime.invoke"
        % (traced["events"], invoke_wall / 1e6),
        "storage.merged_frac base: %d read requests" % sim["read_requests"],
        "cluster.routing base: %d routed arrivals, %d worker threads"
        % (sim["routed"], raw["threads"]),
        "trace.overhead_frac: traced iteration p50 %.3f ms vs untraced %.3f ms (scaled)"
        % (statistics.median(traced_ms), statistics.median(untraced_ms)),
        "spans (self time; share of the timed phase, %.1f ms):" % (timed_wall / 1e6),
    ]
    for name, entry in sorted(spans.items(), key=lambda kv: -kv[1]["self_ns"]):
        notes.append("  %-22s calls %7d  self %10.1f ms  per call %9.4f ms  share %.3f"
                     % (name, entry["calls"], entry["self_ns"] / 1e6,
                        ratio(entry["self_ns"], entry["calls"]) / 1e6,
                        timed_share(name)))
    return metrics, notes


def timed_records(records):
    """The timed-phase spans (iteration id >= 0), parents re-indexed.

    Set-up spans carry a negative iteration id.
    """
    index_map = {}
    out = []
    for index, record in enumerate(records):
        if record[4] >= 0:
            index_map[index] = len(out)
            out.append(list(record))
    for record in out:
        record[1] = index_map.get(record[1], -1)
    return out


def result_line(entries, metrics, skipped, raw, correct):
    """The final result object: every metric `entries` names, with its unit.

    Metrics whose name starts with one of `skipped` are not observable on the
    workload and print as 0.
    """
    out = {}
    for entry in entries:
        name = entry["name"]
        value = 0 if name.startswith(tuple(skipped)) else metrics[name]
        out[name] = {"value": value, "unit": entry["unit"]}
    timed, traced = raw["timed"], raw["traced"]
    return {
        "correct": correct,
        "attempted": timed["attempted"] + traced["attempted"],
        "failed": timed["failed"] + traced["failed"],
        "metrics": out,
    }


def build(build_root, deadline):
    """Configures and builds the driver; returns the binary path."""
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=max(1, deadline - time.time()))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j",
                    str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=max(1, deadline - time.time()))
    return os.path.join(build_dir, "perfbench")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    start = time.time()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources beside %s" % HERE, file=sys.stderr)
        return 2
    spec = load_spec(os.path.join(ROOT, "BENCHMARK.json"))
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root, start + 870)

    # Stay inside the time limits: 180 s per run, 900 s for one that builds.
    deadline = min(time.time() + 170, start + 890)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, timeout=max(1, deadline - time.time()),
        check=False)
    try:
        raw = parse_raw(proc.stdout)
    except ValueError as err:
        print("perfbench: %s (exit %d)" % (err, proc.returncode), file=sys.stderr)
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    metrics, notes = (per_layer if args.trace else end_to_end)(raw)
    skipped = NOT_OBSERVABLE[args.workload]
    if args.trace:
        notes = [n for n in notes if not n.startswith(skipped)]
        notes.append("not observable on %s (printed as 0): %s"
                     % (args.workload, " ".join(skipped)))
    print("workload %s seed %d digest %s" % (args.workload, args.seed, raw["digest"]))
    for note in notes:
        print(note)
    for violation in raw["violations"]:
        print("CHECK FAILED: %s" % violation)

    correct = proc.returncode == 0 and not raw["violations"]
    result = result_line(spec[section], metrics, skipped if args.trace else (), raw, correct)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
