"""Benchmark of stgw: the full `stgw run` and the staged replay.

Usage:
    python3 perfbench/run.py --workload {paper,scale,replay} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every attempt runs in a fresh interpreter
(`child.py`) that synthesizes the workload's inputs from the seed, times one
pass of the program, and loads its outputs back through stgw's readers.
`run.py` repeats attempts for at least `--seconds` seconds (and at least twice,
so that the byte-identical check on `out/` always has two runs to compare),
then prints one line per metric and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, from
untraced attempts.  With `--trace 1` attempts alternate untraced and traced,
and the metrics are the per-layer ones, from the traced attempts.  Names and
units come from BENCHMARK.json.  The full record (environment, every attempt,
every span) goes to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Why each workload exists is in README.md.  The epoch count is fixed
# (patience = max_epochs) so that every seed trains for the same work.
WORKLOADS = {
    "paper": {"kind": "run", "nodes": 60, "weeks": 41, "epochs": 200},
    "scale": {"kind": "run", "nodes": 400, "weeks": 104, "epochs": 100},
    "replay": {"kind": "replay", "nodes": 400, "weeks": 104},
}
MIN_ATTEMPTS = 2
DEADLINE_S = 170.0  # a run has to end within 180 s
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_attempt(root: str, workdir: str, workload: dict, seed: int, traced: bool,
                environment: bool, timeout: float) -> dict:
    """One child process; returns its record, with the set-up time added."""
    os.makedirs(workdir)
    request_path = os.path.join(workdir, "request.json")
    with open(request_path, "w", encoding="utf-8") as fh:
        json.dump({"root": root, "workdir": workdir, "workload": workload, "seed": seed,
                   "trace": traced, "environment": environment}, fh)
    env = {**os.environ, **CHILD_ENV}
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), request_path],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "failures": [f"attempt killed after {timeout:.0f} s"]}
    record_path = os.path.join(workdir, "record.json")
    if proc.returncode != 0 or not os.path.exists(record_path):
        return {"traced": traced, "failures": [
            f"child exited with code {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    if "first_call" in record:
        record["setup_s"] = record["first_call"] - spawned
    return record


def run_workload(root: str, workroot: str, workload: dict, seed: int, seconds: float,
                 trace: bool) -> list[dict]:
    """Attempts for at least `seconds` and MIN_ATTEMPTS, within the deadline."""
    records: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(records) >= MIN_ATTEMPTS and elapsed >= seconds:
            break
        if records and elapsed + longest > DEADLINE_S:
            break
        began = time.monotonic()
        records.append(run_attempt(
            root, os.path.join(workroot, f"attempt{len(records) + 1}"), workload, seed,
            traced=trace and len(records) % 2 == 1, environment=not records,
            timeout=max(DEADLINE_S - elapsed, 1.0)))
        longest = max(longest, time.monotonic() - began)
    return records


def check_identical(records: list[dict]) -> None:
    """Every attempt has to write the same `out/` bytes as the first one."""
    reference = records[0].get("hashes")
    for k, record in enumerate(records[1:], start=2):
        hashes = record.get("hashes")
        if reference is None or hashes is None or hashes == reference:
            continue
        differ = sorted(name for name in set(reference) | set(hashes)
                        if reference.get(name) != hashes.get(name))
        record["failures"].append(f"out/ differs from attempt 1: {', '.join(differ)}")


def median(values):
    return statistics.median(values) if values else None


def summarize(records: list[dict], trace: bool) -> dict[str, float]:
    """End-to-end metrics (untraced) or per-layer metrics (traced) of the good attempts."""
    good = [r for r in records if not r["failures"]]
    plain = [r for r in good if not r["traced"]]
    if not trace:
        return {
            "run_s": median([r["wall_s"] for r in plain]),
            "setup_s": median([r["setup_s"] for r in good]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
    traced = [r for r in good if r["traced"]]
    if not traced or not plain:
        return {}
    layers = {name: median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
    layers["gat.edge_accuracy"] = median([r.get("edge_accuracy", 0.0) for r in traced])
    layers["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                  - median([r["wall_s"] for r in plain]))
    return layers


def report(name: str, workload: dict, seed: int, records: list[dict],
           metrics: dict[str, float], units: dict[str, str]) -> list[str]:
    """Human-readable lines printed before the result object."""
    failed = sum(1 for r in records if r["failures"])
    good = [r for r in records if not r["failures"]]
    traced = sum(1 for r in good if r["traced"])
    lines = [f"workload {name}: N={workload['nodes']} T={workload['weeks']} "
             f"product_vertices={workload['nodes'] * workload['weeks']} "
             f"arcs={good[0].get('arcs') if good else None} seed={seed}",
             f"attempts {len(records)} ({traced} traced), failed {failed}, "
             f"fail_frac {failed / len(records):.4g}"]
    env = records[0].get("environment")
    if env:
        lines.append("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    accuracy = [r["edge_accuracy"] for r in good if "edge_accuracy" in r]
    if accuracy:
        lines.append(f"edge_accuracy {median(accuracy):.6g} frac (manifest test_accuracy)")
    for k, record in enumerate(records, start=1):
        for failure in record["failures"]:
            lines.append(f"attempt {k} FAILED: {failure}")
    for message in sorted({w for r in good for w in r.get("warnings", [])}):
        lines.append(f"warning: {message}")
    # per-layer metrics come from the traced attempts, end-to-end ones from the rest
    plain = len(good) - traced
    samples = {"setup_s": len(good), "trace.overhead_s": f"{traced}+{plain}"}
    for metric, value in metrics.items():
        n = samples.get(metric, traced or plain)
        lines.append(f"{metric} {value:.6g} {units[metric]} (n={n})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stgw", "__init__.py")):
        print(f"error: no stgw sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    results = os.path.join(root, ".perfbench")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workroot = os.path.join(results, f"work-{tag}-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    try:
        records = run_workload(root, workroot, workload, args.seed, args.seconds,
                               bool(args.trace))
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    check_identical(records)
    metrics = summarize(records, bool(args.trace))

    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, **workload, "seed": args.seed,
                   "metrics": metrics, "attempts": records}, fh, indent=1)
    if not metrics or any(v is None for v in metrics.values()):
        for k, record in enumerate(records, start=1):
            for failure in record["failures"]:
                print(f"attempt {k} FAILED: {failure}", file=sys.stderr)
        print("error: no result; too few attempts succeeded", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 1

    print("\n".join(report(args.workload, workload, args.seed, records, metrics, units)))
    failed = sum(1 for r in records if r["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
