#!/usr/bin/env python3
"""Run the benchmark over every workload and several seeds; print every metric.

    python3 perfbench/report.py [--out FILE]

Each run is a fresh ``run.py`` process of ``run_seconds`` from
BENCHMARK.json, as the benchmark is meant to be run. For every workload in
BENCHMARK.json this makes untraced runs with seeds 0-9 and traced runs with
seeds 0-1, then prints each metric with its unit, the median over the runs,
the quartile spread (q3 - q1) / median as ``statistics.quantiles(n=4)`` gives
it, and, for end-to-end metrics, the bound from BENCHMARK.json. ``--out``
writes the same as JSON, together with the provenance of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Runs per workload: (trace flag, number of seeds counted from 0).
RUNS = ((0, 10), (1, 2))


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
                     "values": values}
    return out


def main() -> int:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {"seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        entry = {}
        for trace, count in RUNS:
            runs = [run_once(workload, seed, trace) for seed in range(count)]
            report.setdefault("provenance", runs[0][0])
            results = [r for _, r in runs]
            entry["end_to_end" if trace == 0 else "per_layer"] = {
                "seeds": list(range(count)),
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": summarize(results),
            }
        report["workloads"][workload] = entry
        for kind, block in entry.items():
            print(f"\n{workload} [{kind}] correct={block['correct']} "
                  f"attempted={block['attempted']} failed={block['failed']} "
                  f"runs={len(block['seeds'])}")
            for name, m in block["metrics"].items():
                bound = bounds.get(name)
                note = "" if bound is None else f"  bound {bound:g}" + (
                    "" if name == "setup_s" or m["spread"] < bound / 3 else "  SPREAD ABOVE BOUND/3")
                print(f"  {name:40s} {m['median']:14.6g} {m['unit']:6s} "
                      f"spread {m['spread']:.4f}{note}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    ok = all(b["correct"] for e in report["workloads"].values() for b in e.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
