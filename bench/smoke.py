"""Smoke test of the benchmark itself.

Runs every workload with two ops, untraced and traced, and checks that the
last line names every metric of BENCHMARK.json with its unit and that every
op passed its output check.  Also checks that the benchmark refuses to run,
with no result line, where only BENCHMARK.json and the benchmark files exist.
Run from the root of a checkout:

    python3 bench/smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                        "--ops", "2", "--trace", str(trace))
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics {units} differ from BENCHMARK.json {expected[trace]}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: correct {result['correct']}, attempted {result['attempted']}")
            print(f"{label}: {result['attempted']} ops, {result['failed']} failed")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "0", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without sources: exit {proc.returncode}, output {proc.stdout!r}")
        else:
            print(f"without sources: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
