#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload in BENCHMARK.json, and the hand-run service-stream
workload, at tiny sizes, untraced and traced, and checks that each run exits
0 with every answer gate passed, and that its last line reports the metrics
BENCHMARK.json names for that mode, each with its unit (exactly those for
the BENCHMARK.json workloads; service-stream adds its session and service
metrics when traced).  Also checks that the benchmark refuses to run when a
setting that changes the measured program is in the environment.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run(workload, trace, env=None):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    listed = [w["name"] for w in spec["workloads"]]
    for workload in listed + ["service-stream"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{workload} --trace {trace}"
            before = len(errors)
            res = run(workload, trace)
            if res.returncode != 0:
                errors.append(f"{name}: exit {res.returncode}")
                continue
            out = json.loads(res.stdout.strip().splitlines()[-1])
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{name}: result keys {sorted(out)}")
                continue
            if out["correct"] is not True or out["failed"] != 0 or out["attempted"] < 1:
                errors.append(f"{name}: correct={out['correct']} "
                              f"attempted={out['attempted']} failed={out['failed']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = out["metrics"]
            extra_ok = workload not in listed and trace == 1
            if not set(want) <= set(got) or (set(got) != set(want) and not extra_ok):
                errors.append(f"{name}: metrics differ: missing "
                              f"{sorted(set(want) - set(got))}, extra "
                              f"{sorted(set(got) - set(want))}")
            for m, unit in want.items():
                v = got.get(m)
                if v is None:
                    continue
                if v.get("unit") != unit or not isinstance(v.get("value"), (int, float)):
                    errors.append(f"{name}: {m} = {v}, want unit {unit}")
            if len(errors) == before:
                print(f"ok  {name}: {len(got)} metrics", flush=True)

    env = dict(os.environ, KP_SIMD="scalar")
    res = run(listed[0], 0, env)
    if res.returncode == 0 or res.stdout.strip():
        errors.append("KP_SIMD set: the benchmark ran instead of refusing")
    else:
        print("ok  refuses to run with KP_SIMD set")

    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
