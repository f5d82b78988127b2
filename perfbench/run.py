#!/usr/bin/env python3
"""Benchmark of the pcpower workspace.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary (release, offline) and runs passes of the
named workload, each in a fresh process on one thread. `--trace 0` runs
passes for `--seconds` (at least one) and reports every end-to-end metric
of BENCHMARK.json as the median over the passes. `--trace 1` runs one
plain pass and one span pass and reports every per-layer metric from the
span pass; the spans are written to perfbench/out/. The last line of
stdout is the result as JSON; everything else goes before it or to
stderr. See perfbench/NOTES.md for what is measured and why.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
# Set-ups timed per plain pass; setup_s is their median.
SETUP_REPS = 3
BUILD_TIMEOUT_S = 850
# Every pass of a run must end this long after the build.
MEASURE_LIMIT_S = 170
# Units of host timings; every other per-layer reading is a count or a
# modelled value, which depends on the seed alone.
HOST_TIME_UNITS = ("s", "ns/event")
# Pass readings that depend only on the seed: every pass of a run must
# agree on them exactly, or the program is not deterministic.
DETERMINISTIC = (
    "attempted",
    "failed",
    "items_produced",
    "model_power_mw",
    "model_wakeups_per_s",
    "model_latency_p99_ms",
    "model_latency_samples",
)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = Path("BENCHMARK.json")
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Builds the binary and returns its path."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
        "--message-format", "json-render-diagnostics",
    ]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with code {done.returncode}")
    for line in done.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "perfbench":
            return msg["executable"]
    fail("the build produced no perfbench executable")


def run_pass(exe, workload, seed, mode, setup_reps, deadline, spans_out=None):
    OUT_DIR.mkdir(exist_ok=True)
    export = OUT_DIR / f"export-{os.getpid()}.jsonl"
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--setup-reps", str(setup_reps), "--export", str(export)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    env = {k: v for k, v in os.environ.items() if k != "PC_TRACE_CAP"}
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"pass failed: {e}")
    finally:
        export.unlink(missing_ok=True)
    if done.returncode != 0:
        fail(f"pass exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def command_output(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_stamp(first_pass, args, passes):
    stamp = dict(first_pass["stamp"])
    stamp["rustc"] = command_output(["rustc", "--version"])
    # Only a git checkout rooted here has a revision of its own.
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    same_root = top is not None and Path(top).resolve() == Path.cwd().resolve()
    stamp["git_revision"] = command_output(["git", "rev-parse", "HEAD"]) if same_root else None
    stamp["run_seconds"] = args.seconds
    stamp["passes"] = passes
    return stamp


def deterministic_mismatch(passes, counts):
    """Names of seed-determined readings on which the passes disagree."""
    first = passes[0]
    names = [k for k in DETERMINISTIC if any(p[k] != first[k] for p in passes)]
    names += [k for k in counts if any(p["layers"][k] != first["layers"][k] for p in passes)]
    return names


def end_to_end(passes):
    wall = statistics.median(p["wall_s"] for p in passes)
    setup = statistics.median(s for p in passes for s in p["setup_s"])
    # The last set-up of a pass is the one inside its wall time.
    rate = statistics.median(p["items_produced"] / (p["wall_s"] - p["setup_s"][-1]) for p in passes)
    first = passes[0]
    return {
        "wall_s": wall,
        "setup_s": setup,
        "items_per_s": rate,
        "peak_rss_mb": statistics.median(p["peak_rss_mib"] for p in passes),
        "model_power_mw": first["model_power_mw"],
        "model_wakeups_per_s": first["model_wakeups_per_s"],
        "model_latency_p99_ms": first["model_latency_p99_ms"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    exe = build()
    deadline = time.monotonic() + MEASURE_LIMIT_S

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if args.trace:
        plain = run_pass(exe, args.workload, args.seed, "plain", 1, deadline)
        spans_out = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        traced = run_pass(exe, args.workload, args.seed, "spans", 1, deadline, spans_out)
        passes = [plain, traced]
        values = dict(traced["layers"])
        values["bench.span_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        wall = traced["wall_s"]
        print(f"self time by layer over the span run's {wall:.3f} s wall (spans in {spans_out}):")
        shares = traced["self_time_s"]
        for layer, s in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<14} {s:9.3f} s  {s / wall:6.1%}")
        covered = sum(s for layer, s in shares.items() if layer != "bench")
        print(f"  layers other than bench cover {covered / wall:.1%} of wall")
    else:
        passes = []
        started = time.monotonic()
        while True:
            passes.append(run_pass(exe, args.workload, args.seed, "plain", SETUP_REPS, deadline))
            elapsed = time.monotonic() - started
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        values = end_to_end(passes)

    counts = [m["name"] for m in spec["per_layer"]
              if m["name"] in passes[0]["layers"] and m["unit"] not in HOST_TIME_UNITS]
    missing = set(units) - set(values)
    if missing:
        fail(f"the passes gave no value for {sorted(missing)}")
    mismatch = deterministic_mismatch(passes, counts)
    wrong = sum(p["wrong"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]

    print("stamp: " + json.dumps(run_stamp(passes[0], args, len(passes))))
    print("pass wall_s: " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    first = passes[0]
    print(f"model latency p99 over {first['model_latency_items']:.0f} items, "
          f"from {first['model_latency_samples']} reservoir samples")
    for f in failures:
        print(f"failed cell: {f}")
    if mismatch:
        print(f"passes disagree on seed-determined readings: {mismatch}")
    for name, value in values.items():
        if name in units:
            print(f"{name:<34} {value:>16.6f} {units[name]}")
    result = {
        "correct": wrong == 0 and not mismatch,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
