#!/usr/bin/env python3
"""Self-tests of the benchmark at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload: each metric BENCHMARK.json names is emitted
with its unit and matches [A-Za-z0-9_.-]+; no cell fails (fail_frac 0);
vt_digests agree across the reps of one process and across the traced
variants (flight recorder detached, pagefault-observed without its
observability), which the binary itself compares; the same seed gives the
same digests in a second process; each seed reaches the workloads that
take it; and run.py refuses to run where only the benchmark's own files are.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)

FAILURES = []


def expect(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def run_binary(workload, seed, trace, *flags):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny", "--out-dir", run.OUT_DIR] + list(flags)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("selftest: %s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


# The seed flags each workload's inputs depend on.
SEED_USERS = {
    "--memstress-seed": ("pagefault", "apps", "pagefault-observed"),
    "--schedule-seed": ("pagefault", "apps", "fleet", "pagefault-observed"),
    "--arrival-seed": ("fleet",),
    "--placement-seed": ("fleet",),
}


def main():
    spec = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(run.NAME_RE.match(m["name"]) is not None, "metric name %s" % m["name"])
    run.build()
    os.makedirs(run.OUT_DIR, exist_ok=True)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run_binary(workload, 7, trace)
            missing = [m["name"] for m in wanted
                       if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            expect(not missing, "%s trace=%d emits every metric %s" % (workload, trace, missing))
            expect(result["attempted"] > 0 and result["failed"] == 0,
                   "%s trace=%d fail_frac 0 over %d cells (reps and variants agree) %s" %
                   (workload, trace, result["attempted"], result["failures"][:3]))
            cells = len(result["vt_digests"])
            # trace 0: >= 3 reps; trace 1: warm-up + untraced and traced
            # reps (+ flight-detached, except on fleet).
            expect(result["attempted"] >= 3 * cells,
                   "%s trace=%d compared %d runs of each cell" %
                   (workload, trace, result["attempted"] // max(cells, 1)))
        first = run_binary(workload, 7, 0)["vt_digests"]
        again = run_binary(workload, 7, 0)["vt_digests"]
        expect(first == again, "%s: same seed, same vt_digests in a second process" % workload)
        for flag, users in SEED_USERS.items():
            if workload in users:
                moved = run_binary(workload, 7, 0, flag, "12345")["vt_digests"]
                expect(moved != first, "%s: %s changes the virtual output" % (workload, flag))

    # A directory holding only the benchmark's files cannot build the
    # simulator: run.py must fail without printing a result.
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pagefault",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env={k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"},
                          timeout=180)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "run.py fails without a result where the simulator sources are missing")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %s" % ("%d failure(s)" % len(FAILURES) if FAILURES else "all passed"))
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
