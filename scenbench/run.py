#!/usr/bin/env python3
"""Scenario benchmark: host cost of simulating four paper scenarios.

Usage (from the repository root):
    python3 scenbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the simulator library from ./src together with the benchmark binary in this
directory (into .bench_build/scenbench), runs workload W for S seconds of
repetitions and checks every repetition against the recorded reference
(scenbench/reference.json) or, for a seed without one, against the run's
own first repetition. With --trace 0 it reports the end-to-end metrics
over the untraced repetitions; with --trace 1 it adds one traced
repetition, validates its Chrome trace with tools/validate_trace.py and
reports the per-layer split of that repetition. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

See scenbench/README.md for the workloads and the metric table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fabric_1p", "fabric_rs", "kv_e2e", "dctcp_e2e")
# Workloads whose seeds are fixed inside src/ (the --seed argument does not
# reach them); their reference is recorded once, under "*".
FIXED_SEED = ("kv_e2e", "dctcp_e2e")
# Fields of a repetition that must repeat exactly.
EXACT = ("digest", "digest_count", "counts", "outputs")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the benchmark binary; returns its path or None."""
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "scenbench")
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("scenbench: no simulator sources (src/CMakeLists.txt) in the current directory")
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "scenbench"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        return None
    return os.path.join(build_dir, "scenbench")


def run_binary(exe, args, out_dir):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=170)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log(f"scenbench: benchmark binary exited with {r.returncode}")
        return None
    return json.loads(lines[-1])


def exact(rep):
    return {k: rep[k] for k in EXACT}


def reference_for(workload, seed):
    path = os.path.join(HERE, "reference.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        refs = json.load(f)
    per = refs.get(workload, {})
    return per.get("*" if workload in FIXED_SEED else str(seed))


def sanity(workload, out):
    """Invariants every correct run of the workload satisfies."""
    if workload.startswith("fabric"):
        return (out["flows"] > 0 and 0 < out["bg_delivered_pkts"] <= out["bg_sent_pkts"]
                and 0 < out["pair_replies"] <= out["pair_requests"])
    if workload == "kv_e2e":
        return 0 < out["window_ops"] == out["latency_samples"]
    return out["goodput_bps"] > 0 and out["ecn_marks"] > 0


def check_reps(doc, ref):
    """Marks each repetition good or failed; returns list of failure notes."""
    reps = doc["reps"]
    base = ref if ref is not None else exact(reps[0])
    notes = []
    for rep in reps:
        why = None
        if not rep["ok"]:
            why = "SimulationError: " + rep.get("error", "?")
        elif exact(rep) != base:
            diff = [k for k in EXACT if rep[k] != base[k]]
            why = "differs from the reference in " + ", ".join(diff)
        elif not sanity(doc["workload"], rep["outputs"]):
            why = "outputs violate the workload invariants"
        rep["good"] = why is None
        if why:
            notes.append(f"rep {rep['rep']}{' (traced)' if rep['traced'] else ''}: {why}")
    return notes


def validate_trace(path):
    r = subprocess.run([sys.executable, os.path.join("tools", "validate_trace.py"), path],
                       stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0


def write_spans(doc, path):
    """The benchmark's own workload/build/run/collect spans as a Chrome trace."""
    events = [{"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
               "args": {"name": "scenbench " + doc["workload"]}}]
    for s in doc["spans"]:
        events.append({"ph": "X", "name": s["name"], "pid": 1, "tid": 1,
                       "ts": s["start_s"] * 1e6, "dur": s["dur_s"] * 1e6,
                       "args": {"rep": s["rep"]}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)


def p10(values):
    return statistics.quantiles(values, n=10)[0] if len(values) >= 10 else min(values)


def end_to_end(doc, good):
    cps = doc["cycles_per_second"]
    # Run times are reported at their 10th percentile: on a shared host,
    # neighbours' cache and memory traffic slows whole stretches of
    # repetitions by 20-60%, which moves per-run medians far more than any
    # code change this benchmark should resolve (see README.md).
    series = {
        "run_s": ([r["run_s"] for r in good], p10),
        "setup_s": ([r["assemble_s"] + r["instantiate_s"] for r in good], statistics.median),
        "parallel_bound_s": ([r["cycles"]["busy_max"] / cps for r in good], p10),
    }
    print(f"{doc['workload']} seed {doc['seed']}: {len(good)} timed repetitions")
    metrics = {}
    for name, (vals, estimate) in series.items():
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        value = estimate(vals)
        print(f"  {name:18s} {value:.6f} s ({estimate.__name__}; p10 {p10(vals):.6f},"
              f" q1 {q[0]:.6f}, median {statistics.median(vals):.6f}, q3 {q[2]:.6f},"
              f" n={len(vals)})")
        metrics[name] = {"value": value, "unit": "s"}
    gap = statistics.median(r["run_s"] - r["stats_wall_s"] for r in good)
    print(f"  run_s - RunStats::wall_seconds: median {gap * 1e3:.3f} ms")
    rss = doc["peak_rss_kb"] / 1024.0
    print(f"  peak_rss_mb        {rss:.3f} MB")
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return metrics


def per_layer(doc, traced, untraced, trace_path):
    cps = doc["cycles_per_second"]
    c, cy = traced["counts"], traced["cycles"]
    run_s = traced["run_s"]
    busy_s = cy["busy"] / cps
    untraced_run = statistics.median(r["run_s"] for r in untraced)
    with open(trace_path) as f:
        tdoc = json.load(f)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("orch.build_s", traced["assemble_s"] + traced["instantiate_s"], "s")
    put("orch.components", c["components"], "count")
    put("orch.channels", c["channels"], "count")
    # The runner's share is taken inside Simulation::run (RunStats wall):
    # the traced call around it also exports the trace, which is obs cost.
    stats_wall = traced["stats_wall_s"]
    put("runtime.run_s", run_s, "s")
    put("runtime.busy_s", busy_s, "s")
    put("runtime.sched_s", stats_wall - busy_s, "s")
    put("runtime.busy_share", ratio(busy_s, stats_wall), "ratio")
    put("runtime.wall_gap_s",
        statistics.median(r["run_s"] - r["stats_wall_s"] for r in untraced), "s")
    put("runtime.batches", c["batches"], "count")
    put("runtime.events_per_batch", ratio(c["events"], c["batches"]), "ratio")
    put("des.events", c["events"], "count")
    put("des.ns_per_event", ratio(busy_s * 1e9, c["events"]), "ns")
    put("sync.data_msgs", c["data_msgs"], "count")
    put("sync.sync_msgs", c["sync_msgs"], "count")
    put("sync.data_ratio", ratio(c["data_msgs"], c["sync_msgs"]), "ratio")
    put("sync.tx_s", cy["sync_tx"] / cps, "s")
    put("sync.rx_s", cy["sync_rx"] / cps, "s")
    put("sync.backpressure_stalls", c["backpressure_stalls"], "count")
    for layer in ("netsim", "hostsim", "nicsim"):
        lb = cy[layer + "_busy"] / cps
        ev = c[layer + "_events"]
        put(layer + ".busy_s", lb, "s")
        put(layer + ".events", ev, "count")
        put(layer + ".ns_per_event", ratio(lb * 1e9, ev), "ns")
    put("obs.untraced_run_s", untraced_run, "s")
    put("obs.trace_overhead", ratio(run_s, untraced_run), "ratio")
    put("obs.wall_gap_s", run_s - traced["stats_wall_s"], "s")
    put("obs.trace_events", len(tdoc["traceEvents"]), "count")
    put("obs.trace_dropped", tdoc.get("otherData", {}).get("dropped", 0), "count")

    v = {k: x["value"] for k, x in m.items()}
    print(f"{doc['workload']} traced repetition (per layer)")
    print(f"  runtime.busy_share {v['runtime.busy_share']:.4f} = busy {busy_s:.6f} s"
          f" / RunStats wall {stats_wall:.6f} s; sched {v['runtime.sched_s']:.6f} s")
    print(f"  runtime.events_per_batch {v['runtime.events_per_batch']:.4f} ="
          f" {c['events']} events / {c['batches']} batches")
    print(f"  sync.data_ratio {v['sync.data_ratio']:.4f} = {c['data_msgs']} data"
          f" / {c['sync_msgs']} sync messages")
    print(f"  obs.trace_overhead {v['obs.trace_overhead']:.4f} = traced {run_s:.6f} s"
          f" / untraced median {untraced_run:.6f} s (n={len(untraced)})")
    print(f"  RunStats::wall_seconds vs own clock: traced gap {v['obs.wall_gap_s'] * 1e3:.3f} ms,"
          f" untraced median gap {v['runtime.wall_gap_s'] * 1e3:.3f} ms")
    for layer in ("netsim", "hostsim", "nicsim"):
        print(f"  {layer:8s} busy {v[layer + '.busy_s']:.6f} s"
              f" ({ratio(v[layer + '.busy_s'], stats_wall):.1%} of run),"
              f" {v[layer + '.events']} events, {v[layer + '.ns_per_event']:.1f} ns/event")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        log("scenbench: build failed")
        return 1
    out_dir = os.path.join(".bench_out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace.json")
    if os.path.exists(trace_path):
        os.remove(trace_path)  # never validate an earlier run's trace
    doc = run_binary(exe, args, out_dir)
    if doc is None:
        return 1

    ref = reference_for(args.workload, args.seed)
    if ref is None:
        log(f"scenbench: no recorded reference for seed {args.seed}; checking the"
            " repetitions against the first one")
    notes = check_reps(doc, ref)
    untraced = [r for r in doc["reps"] if not r["traced"] and r["good"]]

    if args.trace:
        traced = next(r for r in doc["reps"] if r["traced"])
        spans_path = os.path.join(out_dir, "bench_spans.json")
        write_spans(doc, spans_path)
        if doc["public_digest"] and doc["public_digest"] != doc["reps"][0]["digest"]:
            notes.append("assembly diverges from the public scenario entry point:"
                         f" digest {doc['reps'][0]['digest']} vs {doc['public_digest']}")
        if not (os.path.isfile(trace_path) and validate_trace(trace_path)
                and validate_trace(spans_path)):
            notes.append("trace validation failed")
        usable = traced["ok"] and untraced and os.path.isfile(trace_path)
        metrics = per_layer(doc, traced, untraced, trace_path) if usable else {}
    else:
        metrics = end_to_end(doc, untraced) if untraced else {}

    for n in notes:
        print("FAILED " + n)
    correct = not notes and bool(untraced)
    failed = sum(1 for r in doc["reps"] if not r["good"])
    print(json.dumps({"correct": correct, "attempted": len(doc["reps"]), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
