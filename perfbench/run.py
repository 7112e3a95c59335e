#!/usr/bin/env python3
"""Repository benchmark: simulator cost and simulated MPTCP outcomes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

NAME is one of the workloads in BENCHMARK.json (fleet, capacity,
serving). The first call builds the simulator libraries and the runner
from source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later calls reuse the build.

A seed stands for a few simulator inputs (INPUTS). Each repetition runs the
workload on one input in its own runner process (so its peak RSS belongs
to that workload alone): set-up, the fixed simulated duration, then the
counters. WORKERS repetitions run side by side; they cycle through the
inputs until every input has run and the next would end after
--seconds. --trace 0 reports every end-to-end
metric of BENCHMARK.json; --trace 1 runs every input untraced and then
traced (pass-through probes on every link) and reports every per-layer
metric, the tracing overhead among them. Host times are medians over the
repetitions; simulated outcomes are deterministic for an input and
build, are averaged over the inputs, and every repetition of one input
must produce the same fingerprint, traced or not. The last line of
stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`--workload all` runs every workload in both modes and prints every
metric by name with its unit; it exits non-zero if any check fails.

Host-time metrics are refused from sanitizer, assert-enabled or
unoptimised builds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Distinct simulator inputs per benchmark seed: simulated outcomes are
# averaged over them, and host times are medians over repetitions that
# cycle through them. serving is the cheapest workload, and its
# Pareto-sized responses make its peak memory and p99 vary most from one
# input to the next, so it averages over the most.
INPUTS = {"fleet": 3, "capacity": 3, "serving": 8}
REP_TIMEOUT_S = 170
# Repetitions run side by side, one per core, leaving a core for the rest
# of the machine.
WORKERS = max(1, min(3, (os.cpu_count() or 1) - 1))
OPTIMISED_BUILDS = ("Release", "RelWithDebInfo")

# Full-scale sample floors: p99 needs 1,000 samples, p999 10,000.
P99_MIN_SAMPLES = 1000
P999_MIN_SAMPLES = 10000


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: simulator sources (src/) not found "
                         "next to perfbench/; nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    bdir = os.path.join(target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            raise SystemExit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench_runner")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_rep(runner, workload, seed, trace, scale):
    cmd = [runner, "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale)]
    if trace:
        cmd.append("--trace")
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, timeout=REP_TIMEOUT_S)
    if res.returncode != 0:
        raise SystemExit("perfbench: runner failed (%d): %s"
                         % (res.returncode, " ".join(cmd)))
    return json.loads(res.stdout.strip().splitlines()[-1])


def derive(rep):
    """Per-repetition values that combine several raw runner fields."""
    d = dict(rep)
    d["peak_rss_mb"] = rep["peak_rss_kb"] / 1024.0
    conns = max(1.0, rep["app.peak_conns"])
    d["rss_kb_per_conn"] = (rep["peak_rss_kb"]
                            - rep["rss_before_start_kb"]) / conns
    d["app.failed_share"] = rep["app.ops_failed"] / max(
        1.0, rep["app.ops_attempted"])
    d["tcp.retransmit_ratio"] = rep["tcp.retransmits"] / max(
        1.0, rep["tcp.segments_sent"])
    d["sim.ns_per_event"] = rep["run_s"] * 1e9 / max(
        1.0, rep["sim.events_fired"])
    enough = rep["app.fct_samples"] >= P999_MIN_SAMPLES
    d["app.fct_p999_ms"] = rep["fct_p999_ms"] if enough else 0.0
    return d


def input_seeds(workload, seed):
    """The simulator seeds one benchmark seed stands for: distinct inputs,
    so simulated outcomes average over more than one population."""
    n = INPUTS[workload]
    return [seed * n + i + 1 for i in range(n)]


def checks(workload, reps, traced, scale):
    """Correctness checks over one workload's repetitions; returns a list
    of failure messages (empty = correct)."""
    bad = []
    for sim_seed in sorted({r["seed"] for r in reps + traced}):
        prints = {r["fingerprint"] for r in reps + traced
                  if r["seed"] == sim_seed}
        if len(prints) != 1:
            bad.append("input %d: fingerprints differ across %s: %s"
                       % (sim_seed, "traced and untraced runs" if traced
                          else "repeated runs", sorted(prints)))
    for r in distinct(reps):
        if r["app.ops_attempted"] < 1 or r["app.bytes"] <= 0:
            bad.append("input %d moved no traffic" % r["seed"])
        if r["app.fct_samples"] < 1:
            bad.append("input %d: no completion-time samples" % r["seed"])
        if r["tcp.segments_received"] > r["tcp.segments_sent"]:
            bad.append("input %d: TCP received more segments than were "
                       "sent" % r["seed"])
        if scale != 1.0:
            continue
        if r["app.fct_samples"] < P99_MIN_SAMPLES:
            bad.append("input %d: fewer than %d FCT samples for p99"
                       % (r["seed"], P99_MIN_SAMPLES))
        if workload == "fleet" and (r["core.fallbacks"] == 0
                                    or r["core.checksum_failures"] == 0):
            bad.append("input %d: fleet saw no fallback or no DSS checksum "
                       "failure" % r["seed"])
        if workload == "capacity" and r["app.peak_conns"] < 5000:
            bad.append("input %d: capacity peaked below 5,000 connections"
                       % r["seed"])
        if workload == "serving" and r["app.fct_samples"] < P999_MIN_SAMPLES:
            bad.append("input %d: serving completed fewer than %d requests"
                       % (r["seed"], P999_MIN_SAMPLES))
    for t in traced:
        spans = (t["sim.router.rx_s"] + t["sim.host.server_rx_s"]
                 + t["sim.host.client_rx_s"] + t["sim.loop.self_s"])
        if abs(spans - t["run_s"]) > 1e-6 * max(1.0, t["run_s"]):
            bad.append("traced spans do not add up to run_s")
        if t["sim.loop.self_s"] < 0:
            bad.append("probe spans exceed the run (double counting)")
    return bad


def distinct(reps):
    """One repetition per input seed, in first-run order."""
    seen, out = set(), []
    for r in reps:
        if r["seed"] not in seen:
            seen.add(r["seed"])
            out.append(r)
    return out


def refuse_host_times(rep):
    if rep["sanitizer"] or rep["asserts"] or \
            rep["build_type"] not in OPTIMISED_BUILDS:
        raise SystemExit("perfbench: refusing host-time metrics from a %s "
                         "build (sanitizer=%d, asserts=%d)"
                         % (rep["build_type"], rep["sanitizer"],
                            rep["asserts"]))


# Host-cost values: medians over every repetition.
HOST_KEYS = ("setup_s", "setup.topology_s", "setup.workload_s", "run_s",
             "cpu_s", "peak_rss_mb", "rss_kb_per_conn", "sim.ns_per_event")
# Per-layer spans, all taken from one traced repetition.
SPAN_KEYS = ("sim.router.rx_s", "sim.router.rx_calls",
             "sim.router.rx_segments", "sim.host.server_rx_s",
             "sim.host.server_rx_calls", "sim.host.server_rx_segments",
             "sim.host.client_rx_s", "sim.host.client_rx_calls",
             "sim.host.client_rx_segments", "sim.loop.self_s")
# Counts that add up over inputs rather than average.
SUMMED_KEYS = ("app.ops_attempted", "app.ops_failed", "app.fct_samples")


def measure(runner, workload, seed, seconds, trace, scale):
    """Runs repetitions and returns (metrics, reps, traced_reps).

    WORKERS jobs run at a time. Jobs cycle through the input seeds, so
    with --trace 0 every repetition past the last input repeats one
    (the determinism check), and with --trace 1 every input runs both
    untraced and traced."""
    inputs = input_seeds(workload, seed)
    reps, traced, job_s, errors = [], [], [], []
    lock = threading.Lock()
    issued = [0]
    start = time.monotonic()

    def next_input():
        """The next job's input, or None when the run is over. A job is
        one repetition, or with --trace 1 an untraced + traced pair on
        one input. Once every input has had a job, another starts only
        if it should end within --seconds, going by the median job so
        far, so a run does not overshoot by a job."""
        with lock:
            n = issued[0]
            if errors:
                return None
            if n >= len(inputs):
                ahead = statistics.median(job_s) if job_s else 0.0
                if time.monotonic() - start + ahead > seconds:
                    return None
            issued[0] += 1
            return inputs[n % len(inputs)]

    def worker():
        while (sim_seed := next_input()) is not None:
            t0 = time.monotonic()
            try:
                got = [derive(run_rep(runner, workload, sim_seed, probes,
                                      scale))
                       for probes in ((False, True) if trace else (False,))]
            except (SystemExit, Exception) as e:
                with lock:
                    errors.append(e)
                return
            with lock:
                job_s.append(time.monotonic() - t0)
                reps.append(got[0])
                traced.extend(got[1:])

    threads = [threading.Thread(target=worker) for _ in range(WORKERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    refuse_host_times(reps[0])

    # Simulated outcomes are deterministic per input: average them over
    # the distinct inputs (counts add up).
    per_input = distinct(reps)
    m = {}
    for key, value in per_input[0].items():
        if isinstance(value, str):
            m[key] = value
        elif key in SUMMED_KEYS:
            m[key] = sum(r[key] for r in per_input)
        else:
            m[key] = statistics.fmean(r[key] for r in per_input)
    for key in HOST_KEYS:
        m[key] = statistics.median(r[key] for r in reps)
    if trace:
        # Spans come from the traced repetition with the median run time,
        # so they add up to that repetition's run_s exactly.
        t = sorted(traced, key=lambda x: x["run_s"])[(len(traced) - 1) // 2]
        for key in SPAN_KEYS:
            m[key] = t[key]
        m["trace.run_s"] = t["run_s"]
        untraced = statistics.median(r["run_s"] for r in reps)
        m["trace.untraced_run_s"] = untraced
        m["trace.overhead_share"] = (
            statistics.median(x["run_s"] for x in traced) / untraced - 1.0)
    return m, reps, traced


def report(spec, workload, seed, seconds, trace, scale, runner):
    """Measures one workload in one mode; prints metric lines and returns
    the result object."""
    m, reps, traced = measure(runner, workload, seed, seconds, trace, scale)
    bad = checks(workload, reps, traced, scale)
    for msg in bad:
        log("perfbench: CHECK FAILED [%s]: %s" % (workload, msg))
    r = reps[0]
    print("# host: nproc=%d cpu=%s compiler=%s build=%s sanitizer=%d"
          % (os.cpu_count() or 0, cpu_model(), r["compiler"],
             r["build_type"], r["sanitizer"]))
    print("# %s seed=%d inputs=%s trace=%d scale=%g reps=%d traced_reps=%d "
          "fct_samples=%d fingerprints=%s"
          % (workload, seed, input_seeds(workload, seed), trace, scale,
             len(reps), len(traced), m["app.fct_samples"],
             ",".join(x["fingerprint"] for x in distinct(reps))))
    print("# %s run_s per repetition: %s"
          % (workload, " ".join("%.3f" % r["run_s"] for r in reps)))
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in listed:
        name = entry["name"]
        metrics[name] = {"value": m[name], "unit": entry["unit"]}
        print("%-12s %-30s %18.6f %s" % (workload, name, m[name],
                                        entry["unit"]))
    return {"correct": not bad, "attempted": int(m["app.ops_attempted"]),
            "failed": int(m["app.ops_failed"]), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="client-count scale (the self-test uses < 1)")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        raise SystemExit("perfbench: unknown workload %r (have %s)"
                         % (args.workload, ", ".join(names)))
    runner = build()

    if args.workload != "all":
        result = report(spec, args.workload, args.seed, args.seconds,
                        bool(args.trace), args.scale, runner)
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1

    ok = True
    for name in names:
        for trace in (False, True):
            result = report(spec, name, args.seed, args.seconds, trace,
                            args.scale, runner)
            ok = ok and result["correct"]
    print("perfbench: all workloads %s" % ("correct" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
