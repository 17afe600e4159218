#!/usr/bin/env python3
"""Measure the benchmark over several seeds and write ``baseline.json``.

Run from the repository root:

    python3 perfbench/baseline.py

For every workload it runs ``run.py --trace 0`` once per seed 1..10, one
run at a time, and records each end-to-end metric's values, median, quartiles
and spread (quartile distance over the median, as the acceptance rule
computes it), then one ``--trace 1`` run on the first seed for the
per-layer table.  Machine facts are read from ``/proc`` and recorded
with the numbers.  A later performance change quotes its before/after
numbers against this file.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))
OUT = HERE / "baseline.json"


def machine() -> dict:
    info = {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            info["cpu"] = line.split(":", 1)[1].strip()
            break
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemTotal"):
            info["ram_gib"] = round(int(line.split()[1]) / 2 ** 20, 1)
            break
    return info


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run([sys.executable if c == "python3" else c
                           for c in cmd], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode or not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main() -> int:
    out = {"machine": machine(), "run_seconds": SPEC["run_seconds"],
           "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, 0)["metrics"])
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in runs[-1].items()},
                  flush=True)
        traced = run_once(workload, SEEDS[0], 1)["metrics"]
        out["workloads"][workload] = {
            "end_to_end": {m["name"]: summary([r[m["name"]]["value"]
                                               for r in runs])
                           for m in SPEC["end_to_end"]},
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced.items()},
        }
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    for workload, data in out["workloads"].items():
        for name, s in data["end_to_end"].items():
            print(f"{workload:14} {name:16} median {s['median']:.5g} "
                  f"spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
