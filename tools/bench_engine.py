#!/usr/bin/env python3
"""Run the engine benchmarks and record before/after numbers.

Runs bench/micro_engine and bench/scale_flows (google-benchmark) from a
Release build, compares each benchmark against a recorded baseline, and
writes BENCH_engine.json at the repository root:

    {"context": {...}, "benchmarks": {name: {baseline_ns, after_ns, speedup}}}

"context" fingerprints the host: usable cores, CPU model, compiler and
version, the build's CMAKE_BUILD_TYPE, and google-benchmark's own
library_build_type.

The default baseline is embedded below: it was measured on the seed build
(pre optimization — binary-heap-of-24-byte-nodes event queue, shared_ptr
control blocks per event, heap-allocated SACK/route vectors, std::deque
link queues) so speedups track the zero-allocation hot-path work. Pass
--baseline FILE (google-benchmark JSON) to compare against a different run,
e.g. one captured with:

    ./build/bench/micro_engine --benchmark_format=json > baseline.json

Every row bench_check.py gates, and every row its ratio and calibration
gates read, is recorded as the median of 5 warmed-up, randomly interleaved
repetitions (one process per ratio group, then one for a binary's other
gated rows); the other rows are single shots (see RATIO_GROUPS).

Exits non-zero when a benchmark binary is missing, crashes, exits with an
error, or reports a per-benchmark error (google-benchmark error_occurred),
so CI cannot silently record a partial run. It also runs bench_check.py's
same-run gates (batching, churn, million-flow, telemetry) on the record
before writing it, and exits 1 without writing when one fails. When --out
already holds a record, the new one is compared with it through
bench_check.py's calibrated wall-time gate: the comparison is printed and
summarised under context.previous_record (machine factor, rows compared,
every row over the threshold with its change), and the new record is
written either way.

Usage:
    python3 tools/bench_engine.py [--build-dir build] [--out BENCH_engine.json]
                                  [--baseline FILE] [--filter REGEX]
                                  [--repetitions N] [--skip-scale]
"""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))
import bench_check  # noqa: E402  (the gates live there)

# Seed-build numbers (ns), recorded on the reference box (1-core Xeon
# 2.1 GHz, g++ 12.2, -O3). Benchmarks added together with the optimization
# work have no seed counterpart and appear with baseline_ns = null.
EMBEDDED_BASELINE_NS = {
    "BM_SchedulerScheduleRun/1000": 112467.26,
    "BM_SchedulerScheduleRun/100000": 20501445.56,
    "BM_SchedulerCancel": 975522.31,
    "BM_DumbbellSimulation/4": 47030444.80,
    "BM_DumbbellSimulation/16": 54253765.85,
}

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Parallel-harness benchmarks encode their LP count in the name
# (BM_ScaleFlowsParallel/flows:256/lps:4); that, not google-benchmark's own
# threads field, is the number of worker threads the row needs.
LPS_RE = re.compile(r"/lps:(\d+)")

# Rows recorded as medians of warmed-up, randomly interleaved repetitions:
# every row bench_check.py gates (GATED_PATTERNS, compared against another
# record), and the rows its ratios divide by. Single-shot timings swing
# well past the gate's margin — the first benchmark in a process pays
# allocator warm-up, and box speed drifts over minutes — so two records
# of one tree would flag rows against each other. Each group below runs
# in its own process, interleaving its rows' repetitions so drift hits
# every row of a ratio alike: the same-run ratio groups and the
# calibration rows behind the machine factor; then the binary's other
# gated rows share one process, as they did as single shots. (Alone in a
# fresh process, BM_SchedulerCancel's per-iteration allocations read about
# twice as slow as after other rows have warmed the allocator.) Ungated
# rows stay single-shot for runtime.
RATIO_GROUPS = [
    # telemetry tap overhead vs the untapped forwarding loop
    ("micro_engine", r"BM_TelemetryTap/[01]$|BM_PacketForwardLoop$"),
    # the machine factor's pure-compute rows
    ("micro_engine",
     "|".join(f"{name}$" for name in bench_check.CALIBRATION_NAMES)),
]
GATED_RE = re.compile("|".join(bench_check.GATED_PATTERNS))
MEDIAN_REPS = 5
MEDIAN_FLAGS = [
    "--benchmark_enable_random_interleaving=true",
    "--benchmark_min_warmup_time=0.5",
]


def exact_filter(names):
    return "^(" + "|".join(re.escape(n) for n in names) + ")$"


def plan_passes(binary_name, names):
    """Splits a binary's rows into (single-shot rows, median groups)."""
    left = list(names)
    groups = []
    for group_binary, pattern in RATIO_GROUPS:
        group = [n for n in left
                 if group_binary == binary_name and re.fullmatch(pattern, n)]
        if group:
            groups.append(group)
            left = [n for n in left if n not in group]
    gated = [n for n in left if GATED_RE.search(n)]
    if gated:
        groups.append(gated)
    return [n for n in left if not GATED_RE.search(n)], groups


def to_ns(value, unit):
    return value * TIME_UNIT_NS[unit]


def benchmark_threads(name, row):
    m = LPS_RE.search(name)
    if m:
        return int(m.group(1))
    return int(row.get("threads", 1))


def runner_cpus():
    """Cores actually available to this process (affinity-aware, so a
    cgroup-limited CI container reports its real allowance, not the host's
    core count — the bug this replaces was trusting the benchmark library's
    num_cpus)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def cmake_cache(build_dir):
    """{key: value} from the build directory's CMakeCache.txt ({} if absent)."""
    cache = {}
    try:
        text = (build_dir / "CMakeCache.txt").read_text()
    except OSError:
        return cache
    for line in text.splitlines():
        m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*):[A-Z]+=(.*)$", line)
        if m:
            cache[m.group(1)] = m.group(2)
    return cache


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host_fingerprint(build_dir, library_context):
    """What the numbers were measured on: usable cores, CPU model, the
    compiler and our CMAKE_BUILD_TYPE (from the build's CMakeCache), and
    google-benchmark's own library_build_type (how the benchmark library
    was compiled, which says nothing about our code's optimization)."""
    cache = cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        try:
            out = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=False).stdout
            version = out.splitlines()[0] if out else None
        except OSError:
            pass
    return {
        "num_cpus": runner_cpus(),
        "cpu_model": cpu_model(),
        "compiler": compiler,
        "compiler_version": version,
        "cmake_build_type": cache.get("CMAKE_BUILD_TYPE"),
        "library_build_type": library_context.get("library_build_type"),
    }


# google-benchmark emits user counters (state.counters[...]) as extra
# top-level keys on each benchmark row; everything NOT in this set and
# numeric is a counter (events_per_packet, lps, ...).
STANDARD_ROW_FIELDS = {
    "name", "run_name", "run_type", "family_index",
    "per_family_instance_index", "repetitions", "repetition_index",
    "threads", "iterations", "real_time", "cpu_time", "time_unit",
    "aggregate_name", "aggregate_unit", "items_per_second",
    "bytes_per_second", "label", "error_occurred", "error_message",
}


def row_counters(b):
    return {k: v for k, v in b.items()
            if k not in STANDARD_ROW_FIELDS and isinstance(v, (int, float))}


def load_benchmark_json(raw):
    """Extracts {name: real_time_ns} plus the context block.

    Returns (context, times, threads, counters, errors) where threads maps
    each benchmark to the worker-thread count it needs, counters maps it to
    its user counters (events_per_packet, lps) and errors lists benchmarks
    that reported error_occurred instead of a measurement.
    """
    times = {}
    threads = {}
    counters = {}
    errors = []
    for b in raw.get("benchmarks", []):
        name = b.get("run_name", b["name"])
        if b.get("error_occurred"):
            errors.append(f"{name}: {b.get('error_message', 'unknown error')}")
            continue
        if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "median":
            continue
        times[name] = to_ns(b["real_time"], b["time_unit"])
        threads[name] = benchmark_threads(name, b)
        c = row_counters(b)
        if c:
            counters[name] = c
    return raw.get("context", {}), times, threads, counters, errors


def list_rows(binary, args):
    """Names of the rows `binary` runs under --filter."""
    cmd = [str(binary), "--benchmark_list_tests=true"]
    if args.filter:
        cmd.append(f"--benchmark_filter={args.filter}")
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        sys.exit(f"error: {binary.name} exited with status {run.returncode}")
    return run.stdout.split()


def run_binary(binary, args, bench_filter=None, repetitions=None,
               extra_flags=()):
    """Runs one google-benchmark binary; returns (context, times, threads,
    counters).

    Exits non-zero on any failure mode: missing binary, crash, nonzero
    exit, unparseable output, or per-benchmark errors.
    """
    if not binary.exists():
        sys.exit(f"error: {binary} not found — build with "
                 f"cmake -S . -B {args.build_dir} -DCMAKE_BUILD_TYPE=Release "
                 f"&& cmake --build {args.build_dir} --target {binary.name}")
    if bench_filter is None:
        bench_filter = args.filter
    if repetitions is None:
        repetitions = args.repetitions
    cmd = [str(binary), "--benchmark_format=json"]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    if repetitions > 1:
        cmd.append(f"--benchmark_repetitions={repetitions}")
        cmd.append("--benchmark_report_aggregates_only=true")
    cmd.extend(extra_flags)
    print(f"running: {' '.join(cmd)}", file=sys.stderr)
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        sys.exit(f"error: {binary.name} exited with status {run.returncode}")
    try:
        raw = json.loads(run.stdout)
    except json.JSONDecodeError as e:
        sys.exit(f"error: {binary.name} produced unparseable JSON: {e}")
    context, times, threads, counters, errors = load_benchmark_json(raw)
    if errors:
        for line in errors:
            print(f"error: {binary.name}: {line}", file=sys.stderr)
        sys.exit(f"error: {len(errors)} benchmark(s) failed in {binary.name}")
    if not times:
        sys.exit(f"error: {binary.name} reported no benchmark results")
    return context, times, threads, counters


def compare_with_previous(path, benchmarks):
    """Compares the new record's wall times with the record at `path`,
    which it replaces, and returns the summary to store in its context.

    A row that caught the host's steal time, in either record, shows here;
    comparing a record only with itself cannot fail a row.
    """
    try:
        with open(path) as f:
            previous_date = json.load(f).get("context", {}).get("date")
        old_times, old_threads, _ = bench_check.load_times(path)
    except (OSError, ValueError) as e:
        print(f"previous record {path} not compared: {e}")
        return None
    print(f"wall times against the record this one replaces ({path}, "
          f"{previous_date}):")
    summary = bench_check.compare_wall_times(
        {name: row["after_ns"] for name, row in benchmarks.items()},
        old_times, old_threads)
    regressed = summary["regressed"]
    print(f"{summary['checked']} row(s) compared, {len(regressed)} over "
          f"{bench_check.DEFAULT_THRESHOLD:.0%}"
          + (f": {', '.join(regressed)}" if regressed else ""))
    return {
        "date": previous_date,
        "machine_factor": summary["machine_factor"],
        "rows_compared": summary["checked"],
        "threshold": bench_check.DEFAULT_THRESHOLD,
        "regressed": regressed,
        "missing": summary["missing"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory (default: build)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_engine.json"),
                        help="output path (default: BENCH_engine.json at repo root)")
    parser.add_argument("--baseline", default=None,
                        help="google-benchmark JSON to use as the baseline "
                             "(default: embedded seed-build numbers)")
    parser.add_argument("--filter", default=None,
                        help="--benchmark_filter regex passed through")
    parser.add_argument("--repetitions", type=int, default=0,
                        help="--benchmark_repetitions (median is kept)")
    parser.add_argument("--skip-scale", action="store_true",
                        help="run only micro_engine (skip scale_flows)")
    parser.add_argument("--skip-1m", action="store_true",
                        help="skip the BM_ScaleFlows1M row (minutes of wall "
                             "clock and ~6 GB RSS) — the PR-gating bench job "
                             "caps itself at the 4096-flow rows and leaves "
                             "the million-flow row to nightly")
    args = parser.parse_args()

    if args.skip_1m:
        if args.filter:
            sys.exit("error: --skip-1m cannot be combined with --filter "
                     "(put -BM_ScaleFlows1M in your filter instead)")
        # google-benchmark: a leading '-' negates the filter regex.
        args.filter = "-BM_ScaleFlows1M"

    if args.baseline and not pathlib.Path(args.baseline).exists():
        sys.exit(f"error: baseline file {args.baseline} not found")

    bench_dir = REPO_ROOT / args.build_dir / "bench"
    binaries = [bench_dir / "micro_engine"]
    if not args.skip_scale:
        binaries.append(bench_dir / "scale_flows")

    context = {}
    after = {}
    thread_counts = {}
    counter_map = {}
    for binary in binaries:
        if args.repetitions > 1:
            # Every row with the requested repetitions, in one process.
            passes = [(args.filter, args.repetitions, ())]
        else:
            single, groups = plan_passes(binary.name, list_rows(binary, args))
            passes = [(exact_filter(single), 1, ())] if single else []
            passes += [(exact_filter(group), MEDIAN_REPS, MEDIAN_FLAGS)
                       for group in groups]
        for bench_filter, repetitions, flags in passes:
            ctx, times, threads, counters = run_binary(
                binary, args, bench_filter=bench_filter,
                repetitions=repetitions, extra_flags=flags)
            context = context or ctx
            after.update(times)
            thread_counts.update(threads)
            counter_map.update(counters)

    if args.baseline:
        with open(args.baseline) as f:
            _, baseline, _, _, _ = load_benchmark_json(json.load(f))
        baseline_source = args.baseline
    else:
        baseline = dict(EMBEDDED_BASELINE_NS)
        baseline_source = "embedded seed-build measurements"

    benchmarks = {}
    for name, after_ns in after.items():
        base_ns = baseline.get(name)
        benchmarks[name] = {
            "baseline_ns": round(base_ns, 2) if base_ns is not None else None,
            "after_ns": round(after_ns, 2),
            "speedup": round(base_ns / after_ns, 2) if base_ns else None,
            "threads": thread_counts.get(name, 1),
        }
        # User counters (events_per_packet, lps) ride along per row so the
        # regression gate can check engine metrics, not just wall time.
        if name in counter_map:
            benchmarks[name]["counters"] = {
                k: round(v, 4) for k, v in sorted(counter_map[name].items())}

    report = {
        "generated_by": "tools/bench_engine.py",
        "baseline_source": baseline_source,
        # num_cpus is the cores this process could actually use — not the
        # benchmark library's context value, which reports hardware
        # concurrency even when the container is pinned to fewer cores.
        # bench_check.py uses it to decide whether multi-threaded rows were
        # recorded at full parallelism.
        "context": {
            "date": context.get("date"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            **host_fingerprint(REPO_ROOT / args.build_dir, context),
        },
        "benchmarks": benchmarks,
    }
    print("same-run gates:", file=sys.stderr)
    failures = bench_check.same_run_failures(
        {name: row["after_ns"] for name, row in benchmarks.items()},
        {name: row["counters"] for name, row in benchmarks.items()
         if "counters" in row})
    if failures:
        sys.exit(f"FAIL: {len(failures)} same-run gate(s) failed, "
                 f"{args.out} not written: {', '.join(failures)}")
    out = pathlib.Path(args.out)
    if out.exists():
        report["context"]["previous_record"] = compare_with_previous(
            out, benchmarks)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)

    width = max(len(n) for n in benchmarks)
    for name, row in benchmarks.items():
        speed = f"{row['speedup']:.2f}x" if row["speedup"] else "  new"
        print(f"{name:<{width}}  {speed:>7}  "
              f"{row['after_ns'] / 1e6:10.3f} ms after")


if __name__ == "__main__":
    main()
