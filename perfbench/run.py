#!/usr/bin/env python3
"""End-to-end benchmark for the TCP-PR simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dumbbell-4096 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (which links the simulator library from src/) in Release
under .bench_build/perfbench, then:

  1. runs one untimed check run of the workload with a DeliveryHasher: its
     delivery hash and fingerprint are the reference for this seed (for
     dumbbell-4096-par2 the same plant on one stamped LP runs beside it,
     and the two hashes must be equal);
  2. repeats runs, one process each, for --seconds of wall time: timed runs
     with --trace 0; traced and timed runs alternately with --trace 1;
  3. checks every run's fingerprint against the reference and the counts
     that must repeat exactly across runs of one seed;
  4. prints a table, then one JSON line: times in reference seconds (see
     end_to_end), memory and per-layer values as medians over the runs.

Exits nonzero, after the table, when a run failed or mismatched, and
without a result when the build is unoptimised, the host has fewer cores
than the workload's LPs, or the simulator sources are missing.
Metric names and units come from BENCHMARK.json at the checkout root.
See README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Not resolved: the checkout root is where run.py sits, links or not.
HERE = Path(os.path.abspath(__file__)).parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "tcppr_perfbench"

# Workload -> logical processes (0: the sequential scheduler).
WORKLOADS = {
    "dumbbell-4096": 0,
    "multipath-pr": 0,
    "churn-10k": 0,
    "dumbbell-4096-par2": 2,
}

# The per-layer ns_per_pkt values that split trace.ns_per_pkt.
LAYER_SPLIT = [
    "core.ns_per_pkt",
    "tcp.sack.ns_per_pkt",
    "tcp.receiver.ns_per_pkt",
    "routing.ns_per_pkt",
    "workload.flow_server.ns_per_pkt",
    "sim_net.self_ns_per_pkt",
]

# Counts a run of one seed must reproduce exactly; a difference is
# nondeterminism, never noise.
EXACT_COUNTS = [
    "sim.events",
    "net.pump_ops",
    "core.retransmissions",
    "workload.completed",
    "harness.par.cross_lp_pkts",
]

OPTIMISED_BUILDS = {"Release", "RelWithDebInfo", "MinSizeRel"}
# End-to-end times are reported in reference seconds: a measured time over
# the time of the reference kernel run next to it (src/host_speed.hpp in
# this directory), times this, about the kernel's fastest time on a shared
# 2.1 GHz Xeon core.
REFERENCE_S = 0.008
RUN_TIMEOUT_S = 150


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def metric_units():
    """{name: unit} for the end-to-end and the per-layer metrics."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return [{m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs,
           "--target", "tcppr_perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_binary(workload, seed, mode):
    """One run in its own process; its JSON result, or None if it failed."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} run timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {mode} run exited {proc.returncode}: "
              f"{proc.stderr.strip()}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs(workload, seed):
    """The reference check run, started side by side (they are untimed)
    with, for a parallel workload, the same plant on one stamped LP: the
    canonical trajectory every LP count must reproduce."""
    variants = [[workload]]
    if WORKLOADS[workload] > 0:
        variants.append([workload, "--lps", "1"])
    procs = [subprocess.Popen(
        [str(BINARY), "--workload", *v, "--seed", str(seed), "--mode", "check"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for v in variants]
    results = []
    for p in procs:
        try:
            out, err = p.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            out, err = "", "timed out"
        if p.returncode != 0 or not out.strip():
            for q in procs:
                if q.poll() is None:
                    q.kill()
                    q.communicate()
            fail(f"check run failed: {err.strip()}", 1)
        results.append(json.loads(out.strip().splitlines()[-1]))
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def window_ratios(run):
    """Each timed window's wall time over the reference kernel's beside it."""
    return [t / ref for t, ref in zip(run["window_run_s"], run["window_ref_s"])]


def ref_run_s(run):
    """One run's run_s in reference seconds."""
    return REFERENCE_S * sum(window_ratios(run))


def end_to_end(runs):
    """Samples per end-to-end metric, and the reported values.

    A shared host's speed for this process moves by up to 2x within
    seconds, so wall times are divided by the reference kernel's time
    measured right beside them, which moves with the host, and reported in
    reference seconds. run_s sums over the windows each window's median
    ratio over the runs (window i of every run of one seed does the same
    work); ns_per_pkt is that run_s over the windows' packets (fixed by the
    seed); setup_s is the median over the runs of each run's median
    set-up ratio. Memory reports the median run."""
    run_s = REFERENCE_S * sum(
        statistics.median(w) for w in zip(*(window_ratios(r) for r in runs)))
    pkts = runs[0]["pkts"]
    values = {
        "setup_s": [REFERENCE_S * r["setup_per_ref"] for r in runs],
        "run_s": [ref_run_s(r) for r in runs],
        "ns_per_pkt": [ref_run_s(r) * 1e9 / pkts for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    return values, {
        "setup_s": statistics.median(values["setup_s"]),
        "run_s": run_s,
        "ns_per_pkt": run_s * 1e9 / pkts,
        "peak_rss_mb": statistics.median(values["peak_rss_mb"]),
    }


def per_layer(runs, timed, units):
    """Samples per per-layer metric, one per traced run, and their medians
    (so the layers' ns_per_pkt values sum to the median trace.ns_per_pkt)."""
    values = {name: [r["layers"][name] for r in runs]
              for name in units if name.split(".")[0] != "trace"}
    values["trace.ns_per_pkt"] = [r["run_s"] * 1e9 / r["pkts"] for r in runs]
    # The median traced run against the median untraced one, both in
    # reference seconds.
    overhead = (statistics.median(ref_run_s(r) for r in runs)
                / statistics.median(ref_run_s(r) for r in timed))
    values["trace.overhead"] = [overhead]
    return values, {name: statistics.median(v) for name, v in values.items()}


def report(values, reported, units):
    """Prints one row per metric and returns the result's metrics."""
    print(f"{'metric':34} {'reported':>12} {'min':>12} {'q1':>12} "
          f"{'median':>12} {'q3':>12}  unit   (samples)")
    metrics = {}
    for name, unit in units.items():
        v = values[name]
        lo, hi = quartiles(v)
        metrics[name] = {"value": reported[name], "unit": unit}
        print(f"{name:34} {metrics[name]['value']:12.6g} {min(v):12.6g} "
              f"{lo:12.6g} {statistics.median(v):12.6g} {hi:12.6g}  {unit}"
              f"   ({len(v)})")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="traced vs untraced delivery hashes, all workloads")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()
    e2e_units, layer_units = metric_units()
    if args.selftest:
        sys.exit(subprocess.run([str(BINARY), "--selftest",
                                 "--seed", str(args.seed)]).returncode)
    if args.workload is None:
        fail("--workload is required")

    workload, seed = args.workload, args.seed
    lps = WORKLOADS[workload]
    nproc = len(os.sched_getaffinity(0))
    checks = check_runs(workload, seed)
    ref = checks[0]
    stamp = {k: ref[k] for k in ("build_type", "optimized", "compiler", "cpu")}
    stamp["nproc"] = nproc
    print(f"perfbench {workload} seed {seed}: " + json.dumps(stamp))
    if not ref["optimized"] or ref["build_type"] not in OPTIMISED_BUILDS:
        fail(f"refusing to measure an unoptimised build ({ref['build_type']})",
             3)
    if nproc < lps:
        fail(f"refusing to measure {workload}: {lps} LPs on {nproc} cores", 3)

    problems = []
    if ref["fingerprint"]["delivered"] == 0:
        problems.append("check run delivered no packets")
    if len(checks) > 1 and checks[1]["hash"] != ref["hash"]:
        problems.append(f"{lps}-LP hash {ref['hash']:016x} != 1-LP hash "
                        f"{checks[1]['hash']:016x}")

    # Timed runs carry no trace sink; with --trace 1 traced runs alternate
    # with timed ones so trace.overhead compares runs made side by side.
    modes = ["traced", "timed"] if args.trace else ["timed"]
    runs = {m: [] for m in modes}
    attempted = 0
    failed = 0
    # Start a run only while it is expected to end within --seconds.
    start = time.monotonic()
    while attempted < 2 * len(modes) or (
            time.monotonic() + (time.monotonic() - start) / attempted
            < start + args.seconds):
        mode = modes[attempted % len(modes)]
        attempted += 1
        r = run_binary(workload, seed, mode)
        if r is None:
            failed += 1
            continue
        if r["fingerprint"] != ref["fingerprint"]:
            failed += 1
            problems.append(f"{mode} run fingerprint {r['fingerprint']} != "
                            f"check run {ref['fingerprint']}")
            continue
        runs[mode].append(r)

    # Exact-repeat counts. Unsliced timed runs must also match the check
    # run's scheduler and pump counts; traced runs (sliced) among themselves.
    for mode, rs in runs.items():
        series = {"sim.events": [x["events"] for x in rs],
                  "net.pump_ops": [x["pump_ops"] for x in rs]}
        if mode == "timed":
            series["sim.events"].append(ref["events"])
            series["net.pump_ops"].append(ref["pump_ops"])
        else:
            for name in EXACT_COUNTS:
                series[name] = [x["layers"][name] for x in rs]
        for name, values in series.items():
            if len(set(values)) > 1:
                problems.append(f"nondeterminism: {name} differs across "
                                f"{mode} runs of seed {seed}: {sorted(set(values))}")

    if not all(runs.values()):
        problems.append("no successful run to report")
    for p in problems:
        print(f"perfbench: FAIL {p}", file=sys.stderr)

    correct = not problems and failed == 0
    metrics = {}
    if all(runs.values()):
        if args.trace:
            metrics = report(*per_layer(runs["traced"], runs["timed"],
                                        layer_units), layer_units)
        else:
            metrics = report(*end_to_end(runs["timed"]), e2e_units)
            for name in ("setup_s", "run_s"):
                wall = [r[name] for r in runs["timed"]]
                print(f"{'wall ' + name + ' (min, median)':34} "
                      f"{min(wall):12.6g} {statistics.median(wall):12.6g}  s")
        print(f"{'failed_frac':34} {failed / attempted:12.6g}")
        if workload == "churn-10k":
            fps = statistics.median(r["flows"] / ref_run_s(r)
                                    for r in runs["timed"])
            print(f"{'flows_per_s':34} {fps:12.6g}  1/s")
        if args.trace:
            split = sum(metrics[n]["value"] for n in LAYER_SPLIT)
            whole = metrics["trace.ns_per_pkt"]["value"]
            print(f"layer split: {split:.1f} ns/pkt summed over "
                  f"{len(LAYER_SPLIT)} layers = {100 * split / whole:.1f}% "
                  f"of trace.ns_per_pkt")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
