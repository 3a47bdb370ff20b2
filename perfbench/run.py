#!/usr/bin/env python3
"""End-to-end benchmark of the OSIRIS simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune, then runs the workload in fresh
single-threaded processes, one run each:

  --trace 0  repeats untraced runs until S seconds have been measured (at
             least three), checks that every run passed its correctness
             gate and that all of them simulated the identical event
             sequence (same fingerprint), and reports the end-to-end
             metrics over the runs: the timed-run figures from the
             slowest run, everything else as the median.
  --trace 1  makes one untraced and one traced run and reports the
             per-layer metrics of the traced run plus the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A failed correctness gate exits 1
and prints no result. See perfbench/README.md for the workloads and the
metric definitions.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = [
    "pair_udp_bulk",
    "star_small_pdu",
    "fattree_transport",
    # must-fail: rejected by the correctness gate (see README.md)
    "star_small_pdu_overload",
]

# (name, unit, how the runs of one invocation are combined). The timed-run
# figures take the slowest run: on a shared host the speed of a run swings
# with the neighbours' load, and the slowest run is the one that repeats
# (README.md, "Aggregation").
END_TO_END = [
    ("goodput_mb_per_cpu_s", "MB/s", min),
    ("run_wall_s", "s", max),
    ("setup_s", "s", statistics.median),
    ("peak_rss_mb", "MB", statistics.median),
    ("alloc_words_per_kb", "words/KB", statistics.median),
    ("sim_goodput_mbps", "Mb/s", statistics.median),
    ("sim_latency_p50_us", "us", statistics.median),
    ("sim_latency_p99_us", "us", statistics.median),
]

PER_LAYER = [
    ("sim.events", "count"),
    ("sim.events_per_kb", "count/KB"),
    ("sim.events_per_cpu_s", "1/s"),
    ("sim.ns_per_event", "ns"),
    ("atm.cells", "count"),
    ("atm.sar_segment_ns_per_cell", "ns"),
    ("atm.sar_push_ns_per_cell", "ns"),
    ("atm.words_per_cell", "words"),
    ("util.crc32_ns_per_byte", "ns"),
    ("util.checksum_ns_per_byte", "ns"),
    ("util.bytes_crc", "bytes"),
    ("util.bytes_checksummed", "bytes"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.stale_reads", "count"),
    ("proto.udp_delivered", "count"),
    ("proto.udp_checksum_errors", "count"),
    ("proto.udp_stale_recoveries", "count"),
    ("board.tx_dma", "count"),
    ("board.rx_dma", "count"),
    ("board.rx_reassembly_errors", "count"),
    ("board.rx_no_buffer_drops", "count"),
    ("board.pio_writes", "count"),
    ("board.desc_queue_ns_per_op", "ns"),
    ("os.rx_cpu_busy_frac", "ratio"),
    ("os.interrupts_per_pdu", "ratio"),
    ("core.build_s", "s"),
    ("core.vc_open_us", "us"),
    ("core.tx_post_ns", "ns"),
    ("core.tx_blocked_ratio", "ratio"),
    ("core.rx_crc_drops", "count"),
    ("mem.host_bytes", "bytes"),
    ("mem.live_heap_mb", "MB"),
    ("mem.rss_outside_heap_mb", "MB"),
    ("xkernel.msg_alloc_ns", "ns"),
    ("xkernel.read_all_ns_per_kb", "ns"),
    ("link.cells_sent", "count"),
    ("link.cells_delivered", "count"),
    ("link.dropped", "count"),
    ("link.reordered", "count"),
    ("switch.cells_in", "count"),
    ("switch.forwarded_ratio", "ratio"),
    ("switch.dropped_overflow", "count"),
    ("switch.dropped_epd", "count"),
    ("switch.marked", "count"),
    ("switch.ingress_drain_ns_per_cell", "ns"),
    ("classify.board_probes_avg", "probes"),
    ("classify.switch_probes_avg", "probes"),
    ("classify.probes_p99", "probes"),
    ("classify.find_ns", "ns"),
    ("transport.retransmit_ratio", "ratio"),
    ("transport.timeouts", "count"),
    ("transport.fast_retransmits", "count"),
    ("transport.on_ack_ns", "ns"),
    ("lb.recycled_pick_ratio", "ratio"),
    ("lb.pick_ns", "ns"),
    ("gc.minor_words", "words"),
    ("gc.minor_collections", "count"),
    ("gc.major_collections", "count"),
    ("gc.minor_s", "s"),
    ("gc.major_s", "s"),
    ("bench.verify_s", "s"),
    ("bench.explained_share", "ratio"),
    ("bench.trace_overhead_pct", "%"),
]

# Process-level figures taken from the untraced run: the traced run
# allocates and spends time on its spans.
UNTRACED_LAYER = ("sim.events_per_cpu_s", "gc.minor_words",
                  "gc.minor_collections", "gc.major_collections")

MIN_RUNS = 3
DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 700.0
OUT_DIR = ".perfbench"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune_cmd():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a simulator checkout (dune-project, lib/)")
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            dune_cmd() + ["build", "--root", ".", "./perfbench/bench.exe"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stdout[-4000:])
        fail("build failed")


def run_once(workload, seed, trace, deadline):
    cmd = [EXE, "--workload", workload, "--seed", str(seed)]
    env = dict(os.environ)
    if trace:
        cmd += ["--trace", "--spans",
                os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (workload, seed))]
        # the runtime's event ring file lives (and is removed) in here
        env["OCAML_RUNTIME_EVENTS_DIR"] = OUT_DIR
    left = deadline - time.monotonic()
    if left <= 1:
        fail("out of time before a run could start")
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        fail("%s seed %d: run exceeded the time limit" % (workload, seed))
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("%s seed %d: run failed (exit %d)" % (workload, seed, r.returncode))
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("%s seed %d: run printed nothing" % (workload, seed))
    return json.loads(lines[-1])


def same_simulation(a, b):
    return (a["fingerprint"] == b["fingerprint"]
            and a["attempted"] == b["attempted"]
            and a["failed"] == b["failed"])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    start = time.monotonic()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    # A build from scratch (the first run in a checkout) may take long;
    # otherwise the whole invocation, build check included, keeps to
    # DEADLINE_S.
    built = time.monotonic()
    deadline = (start if built - start < 5.0 else built) + DEADLINE_S
    w, seed = args.workload, args.seed

    if args.trace == 0:
        runs = []
        t0 = time.monotonic()
        longest = 0.0
        while True:
            r0 = time.monotonic()
            runs.append(run_once(w, seed, False, deadline))
            longest = max(longest, time.monotonic() - r0)
            measured = time.monotonic() - t0
            if len(runs) >= MIN_RUNS and measured >= args.seconds:
                break
            if time.monotonic() + 2 * longest > deadline:
                break
        first = runs[0]
        for r in runs[1:]:
            if not same_simulation(first, r):
                fail("runs of one seed simulated different event sequences")
        metrics = {
            name: metric(combine([r["e2e"][name] for r in runs]), unit)
            for name, unit, combine in END_TO_END
        }
        print("perfbench %s seed=%d runs=%d fingerprint=%s"
              % (w, seed, len(runs), first["fingerprint"]))
        print("  latency samples=%d (sim_latency_p50_us, sim_latency_p99_us)"
              % first["latency_samples"])
        print("  failed_op_ratio=%g (%d of %d ops)"
              % (first["e2e"]["failed_op_ratio"], first["failed"], first["attempted"]))
        print("  generator max lateness=%gus" % first["max_late_us"])
        for name, unit, _ in END_TO_END:
            print("  %-22s %14.6g %-8s runs: %s" % (
                name, metrics[name]["value"], unit,
                " ".join("%.6g" % r["e2e"][name] for r in runs)))
    else:
        plain = run_once(w, seed, False, deadline)
        traced = run_once(w, seed, True, deadline)
        if not same_simulation(plain, traced):
            fail("the traced run simulated a different event sequence")
        first = traced
        layer = dict(traced["layer"])
        for name in UNTRACED_LAYER:
            layer[name] = plain["layer"][name]
        base = plain["e2e"]["run_wall_s"]
        layer["bench.trace_overhead_pct"] = (
            100.0 * (traced["e2e"]["run_wall_s"] / base - 1.0) if base > 0 else 0.0)
        missing = [n for n, _ in PER_LAYER if n not in layer]
        if missing:
            fail("per-layer metrics missing: " + ", ".join(missing))
        metrics = {name: metric(layer[name], unit) for name, unit in PER_LAYER}
        print("perfbench %s seed=%d traced fingerprint=%s spans=%s"
              % (w, seed, traced["fingerprint"],
                 os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (w, seed))))
        for name, unit in PER_LAYER:
            print("  %-34s %14.6g %s" % (name, metrics[name]["value"], unit))

    print(json.dumps({
        "correct": True,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
