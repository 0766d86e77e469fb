#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed and reports, for every
end-to-end metric, the median and the quartiles of the runs, and the spread
(q3 - q1) / median against the metric's bound. Run from the repository root:

    python3 evalbench/spread.py --workload ledger --runs 10
    python3 evalbench/spread.py --workload all --runs 10 --first-seed 101

Exits non-zero when a run fails, reports an incorrect result, or a spread
exceeds its metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(proc.stderr[-4000:])
    return proc.returncode, result, wall


def summarize(bench, workload, results, path):
    """Writes per-run values with their median and quartiles, and the
    environment of the latest result record, to `path`."""
    summary = {"workload": workload, "runs": len(results), "metrics": {}}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary["metrics"][name] = {
                "unit": metric["unit"], "values": values, "median": statistics.median(values),
                "q1": q1, "q3": q3,
            }
    try:
        with open(".bench_out/results.jsonl") as f:
            records = [json.loads(line) for line in f if line.strip()]
        summary["environment"] = next(
            r["environment"] for r in reversed(records) if r["workload"] == workload
        )
    except (OSError, StopIteration, ValueError):
        pass
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)


def report(bench, workload, results):
    ok = True
    print(f"\n{workload}: {len(results)} runs")
    print(f"{'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if len(values) < 2:
            print(f"{name:<22} missing")
            ok = False
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "steady" if spread < metric["bound"] / 3 else "within" if spread <= metric["bound"] else "WIDE"
        if flag == "WIDE":
            ok = False
        print(f"{name:<22}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}{spread:>9.3f}{metric['bound']:>7}  {flag}")
    return ok


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    ok = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            code, result, wall = run_once(bench, workload, seed, seconds)
            status = "ok" if code == 0 and result and result["correct"] else f"FAILED (exit {code})"
            print(f"{workload} seed {seed}: {status}, {wall:.1f} s", flush=True)
            if status != "ok":
                ok = False
                continue
            results.append(result)
        ok = report(bench, workload, results) and ok
        summarize(bench, workload, results, f".bench_out/spread-{workload}.json")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
