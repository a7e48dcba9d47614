#!/usr/bin/env python3
"""Wall-clock regression gate for the simulation engine.

Runs sim_microbench (google-benchmark JSON output) with
--benchmark_repetitions=3, extracts the median events/sec
(items_per_second) of the gated benchmarks, writes the fresh numbers to
BENCH_sim.json in the working directory, and fails if any gated benchmark
regressed more than the allowed fraction against the recorded baseline.

Usage:
  check_wallclock.py <sim_microbench> <baseline.json> [--update] [--out FILE]

With --update the recorded baseline itself is rewritten (run after an
intentional engine change, on the machine that records baselines).

Each rate is taken over the time the work actually runs in. The
single-threaded rows run wholly on the calling thread and keep
google-benchmark's default, that thread's CPU time (its wall time when it
is not preempted). The *Par rows are registered with UseRealTime and
measured in wall time: their work runs on the engine's worker threads,
and the caller's CPU time would only measure the caller's share of the
cores. google-benchmark names those rows "<row>/real_time"; the suffix
is dropped, so baseline keys are plain row names.

On hosts with at least 8 cores the gate additionally requires the
8-worker partitioned allreduce macro to run >= 2x faster in wall time
than the same macro on one worker; on smaller hosts the ratio is
reported only.

The baseline stores events/sec per benchmark. Wall-clock numbers move with
the host, so the gate is deliberately loose (25%): it exists to catch "the
engine got structurally slower" (an accidental per-event allocation, a
heap regression), not scheduler jitter.
"""

import json
import os
import subprocess
import sys

# Engine throughput benches plus the whole-stack macros. BM_Rng etc. are
# not gated: they measure other things and would only add noise.
GATED = [
    "BM_EventDispatch",
    "BM_CoroutineResume",
    "BM_CoroutineDelayChain",
    "BM_MailboxHandoff",
    "BM_MacroAllreduce64",
    "BM_MacroFaultSweepReplay",
    "BM_MacroRendezvousStream",
    "BM_MacroAllreduce64Par/1",
    "BM_MacroAllreduce64Par/8",
    # Parity row only: multi-worker runs of the tiny 2-node fault-sweep
    # fixture are synchronization-bound (window-by-window stall/retx
    # ping-pong), so BM_MacroFaultSweepPar/8 measures the host scheduler,
    # not the engine — it stays runnable but ungated.
    "BM_MacroFaultSweepPar/1",
]
ALLOWED_REGRESSION = 0.25

# Parallel-engine scaling gate: the 8-worker 64-node allreduce macro must
# beat the 1-worker partitioned run by this factor. Wall-clock speedup
# needs real cores, so the gate only arms on hosts with >= MIN_CORES; on
# smaller machines (CI containers pinned to one core) the ratio is printed
# but not enforced.
SPEEDUP_NUM = "BM_MacroAllreduce64Par/8"
SPEEDUP_DEN = "BM_MacroAllreduce64Par/1"
MIN_SPEEDUP = 2.0
MIN_CORES = 8


# Repetitions per row; the gate compares their median.
REPETITIONS = 3
REAL_TIME_SUFFIX = "/real_time"


def run_bench(bench_path):
    bench_filter = "^(" + "|".join(GATED) + f")({REAL_TIME_SUFFIX})?$"
    cmd = [
        bench_path,
        f"--benchmark_filter={bench_filter}",
        f"--benchmark_repetitions={REPETITIONS}",
        "--benchmark_report_aggregates_only=true",
        "--benchmark_format=json",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    data = json.loads(proc.stdout)
    results = {}
    for b in data.get("benchmarks", []):
        if b.get("aggregate_name") != "median":
            continue
        name = b.get("run_name", "")
        if name.endswith(REAL_TIME_SUFFIX):
            name = name[: -len(REAL_TIME_SUFFIX)]
        if name in GATED and "items_per_second" in b:
            results[name] = b["items_per_second"]
    missing = [n for n in GATED if n not in results]
    if missing:
        sys.exit(f"FAIL: benchmarks missing from output: {missing}")
    return results


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    flags = [a for a in sys.argv[1:] if a.startswith("--")]
    if len(args) < 2:
        sys.exit(__doc__)
    bench_path, baseline_path = args[0], args[1]
    out_path = "BENCH_sim.json"
    for f in flags:
        if f.startswith("--out="):
            out_path = f.split("=", 1)[1]

    results = run_bench(bench_path)
    payload = {
        "events_per_second": {k: round(v) for k, v in results.items()},
    }
    with open(out_path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {out_path}")

    if "--update" in flags:
        with open(baseline_path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"updated baseline {baseline_path}")
        return

    with open(baseline_path) as f:
        baseline = json.load(f)["events_per_second"]

    failures = []
    for name in GATED:
        base = baseline.get(name)
        if base is None:
            failures.append(f"{name}: no baseline recorded")
            continue
        fresh = results[name]
        ratio = fresh / base
        status = "ok"
        if ratio < 1.0 - ALLOWED_REGRESSION:
            status = "REGRESSION"
            failures.append(
                f"{name}: {fresh:,.0f} events/s vs baseline {base:,.0f} "
                f"({ratio:.2f}x, limit {1.0 - ALLOWED_REGRESSION:.2f}x)"
            )
        print(f"  {name:28s} {fresh:14,.0f} ev/s  baseline {base:14,.0f}  "
              f"{ratio:5.2f}x  {status}")

    speedup = results[SPEEDUP_NUM] / results[SPEEDUP_DEN]
    cores = os.cpu_count() or 1
    if cores >= MIN_CORES:
        print(f"  8-worker speedup {speedup:.2f}x over 1 worker "
              f"(require >= {MIN_SPEEDUP:.1f}x, {cores} cores)")
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"parallel engine speedup {speedup:.2f}x < {MIN_SPEEDUP:.1f}x "
                f"({SPEEDUP_NUM} vs {SPEEDUP_DEN})"
            )
    else:
        print(f"  8-worker speedup {speedup:.2f}x over 1 worker "
              f"(gate skipped: host has {cores} cores, need {MIN_CORES})")

    if failures:
        sys.exit("FAIL: events/sec regression:\n  " + "\n  ".join(failures))
    print("OK: no wall-clock regression beyond "
          f"{ALLOWED_REGRESSION:.0%} of baseline")


if __name__ == "__main__":
    main()
