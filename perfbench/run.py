#!/usr/bin/env python3
"""Build the perfbench binary from this checkout, run one workload, check it.

    python3 perfbench/run.py --workload pagefault --seed 3 --seconds 25 --trace 0

Run from the root of a checkout. The binary is built (once) into
.bench_build with CMake, run for --seconds, and its output checked: every
metric BENCHMARK.json names must be present with its unit, no cell may fail,
and, for seeds recorded in perfbench/digests.json, every cell's vt_digest
must match. Per-run documents go to .bench_out/: the binary's raw result,
a pvm.bench.v1 document (compare two with benchdiff), and with --trace 1
the host spans as a Chrome trace. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170
ACCOUNTING_FLOOR_S = 0.005


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures (first time) and builds the binary; logs to the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources next to perfbench/ (expected src/ at the checkout root)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "perfbench-build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    with open(log_path, "a", encoding="utf-8") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path, encoding="utf-8") as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step))


def bench_doc(label, metrics):
    """A pvm.bench.v1 document with one values-only run (benchdiff reads it)."""
    return {"schema": "pvm.bench.v1", "bench": "perfbench",
            "runs": [{"label": label,
                      "values": {name: m["value"] for name, m in metrics.items()}}]}


def run_binary(args, extra_flags):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR] + extra_flags
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench ran past %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("perfbench exited with code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def check(spec, result, args, recorded):
    """Returns (correct, failed) after checking names, units and digests."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = True
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not NAME_RE.match(m["name"]):
            print("MISSING metric %s (%s)" % (m["name"], m["unit"]))
            correct = False
    failed = result["failed"]
    cells = len(result["vt_digests"])
    runs_per_cell = result["attempted"] // cells if cells else 0
    for cell, digest in sorted(result["vt_digests"].items()):
        want = recorded.get(cell)
        if want is not None and want != digest:
            print("FAIL %s: vt_digest %s, recorded %s" % (cell, digest, want))
            failed += runs_per_cell
    if recorded and set(recorded) != set(result["vt_digests"]):
        print("FAIL recorded cells differ from the cells run")
        correct = False
    if args.trace:
        # The layer spans must cover setup_s + wall_s to within the tracing
        # overhead (or ACCOUNTING_FLOOR_S, as the overhead is noise near 0).
        unaccounted = result["extra"].get("trace.unaccounted_s", {"value": 0.0})["value"]
        overhead = result["metrics"].get("trace.overhead_s", {"value": 0.0})["value"]
        if abs(unaccounted) > max(abs(overhead), ACCOUNTING_FLOOR_S):
            print("FAIL layer spans leave %.6f s of setup_s + wall_s unaccounted "
                  "(tracing overhead %.6f s)" % (unaccounted, overhead))
            correct = False
    return correct and failed == 0, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    for flag in ("--memstress-seed", "--schedule-seed", "--arrival-seed", "--placement-seed"):
        parser.add_argument(flag, type=int)
    args = parser.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload '%s'" % args.workload)
    build()
    os.makedirs(OUT_DIR, exist_ok=True)

    extra = ["--size", args.size]
    overridden = False
    for name in ("memstress_seed", "schedule_seed", "arrival_seed", "placement_seed"):
        value = getattr(args, name)
        if value is not None:
            extra += ["--" + name.replace("_", "-"), str(value)]
            overridden = True
    result = run_binary(args, extra)

    recorded = {}
    if args.size == "full" and not overridden:
        digests = load_json(os.path.join(BENCH_DIR, "digests.json"))
        recorded = digests.get(args.workload, {}).get(str(args.seed), {})
    correct, failed = check(spec, result, args, recorded)
    print("vt_digest %s: %s" % (
        "checked against perfbench/digests.json" if recorded else "no recording for this seed",
        "ok" if failed == result["failed"] else "MISMATCH"))

    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".result.json", "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    with open(stem + ".bench.json", "w", encoding="utf-8") as f:
        json.dump(bench_doc(args.workload, {**result["metrics"], **result["extra"]}), f,
                  indent=1)

    names = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]
    metrics = {n: result["metrics"][n] for n in names if n in result["metrics"]}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
