#!/usr/bin/env python3
"""Steadiness report: repeat perfbench runs and summarise each metric.

    python3 perfbench/steadiness.py --workloads pagefault,apps --seeds 1-10

Runs perfbench/run.py once per (workload, seed) from the checkout root and
prints, per end-to-end metric, the median, the quartiles (statistics.
quantiles, n=4) and the spread (Q3 - Q1) / median against the metric's
BENCHMARK.json bound: "steady" below a third of it, "ok" within it, "WIDE"
beyond. --out writes the medians as one pvm.bench.v1 document (one run per
workload), so two sets of runs compare with

    benchdiff base.json head.json --metrics wall_s --direction up

--record-digests stores every cell's vt_digest of these runs in
perfbench/digests.json; later runs of those seeds must reproduce them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    spec = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,11")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the medians as a pvm.bench.v1 document")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    seeds = parse_seeds(args.seeds)
    digests_path = os.path.join(run.BENCH_DIR, "digests.json")
    digests = run.load_json(digests_path)
    medians = {}
    steady = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in wanted}
        for seed in seeds:
            cmd = [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit("steadiness: %s seed %d exited %d" % (workload, seed, proc.returncode))
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                steady = False
                print("%s seed %d: correct=false, failed=%d" % (workload, seed, result["failed"]))
            for name, series in values.items():
                series.append(result["metrics"][name]["value"])
            if args.record_digests:
                raw = run.load_json(os.path.join(
                    run.OUT_DIR, "%s-seed%d-trace%d.result.json" % (workload, seed, args.trace)))
                digests.setdefault(workload, {})[str(seed)] = raw["vt_digests"]
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, s[-1]) for n, s in values.items())), flush=True)

        print("\n%s, %d runs of %d s" % (workload, len(seeds), args.seconds))
        print("%-28s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        medians[workload] = {}
        for m in wanted:
            series = values[m["name"]]
            med = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "steady" if spread < bound / 3 else "ok" if spread <= bound else "WIDE"
                if verdict == "WIDE":
                    steady = False
            print("%-28s %14.6g %14.6g %14.6g %8.4f %6s %s" % (
                m["name"], med, q1, q3, spread, "" if bound is None else bound, verdict))
            medians[workload][m["name"]] = {"value": med, "unit": m["unit"]}

    if args.out:
        doc = {"schema": "pvm.bench.v1", "bench": "perfbench", "runs": [
            run.bench_doc(w, ms)["runs"][0] for w, ms in medians.items()]}
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
    if args.record_digests:
        with open(digests_path, "w", encoding="utf-8") as f:
            json.dump(digests, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
