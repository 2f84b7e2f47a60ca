"""diskdyn benchmark: one workload, timed end to end through the CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ifs_wide --seed 1 --seconds 22 --trace 0

The program is run from source (`src/`); nothing is installed.  Set-up time
is the median over a few fresh interpreters that each import diskdyn.cli
and generate the workload's configs.  The workload itself then runs in one
child process with numpy's thread pools pinned to one thread; see
worker.py.  Reported times are scaled to a reference host speed; see
calibrate.py.  With --trace 0 the last line of output reports the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced replay.  Exits
non-zero without a result when the package sources are missing or the
workload process fails.
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
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
# A benchmark run may take at most 180 s; this leaves a margin.
RUN_LIMIT_S = 170.0
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _worker(args, root: Path, work: Path, extra: list, timeout: float):
    env = dict(os.environ, **{v: "1" for v in _THREAD_VARS})
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--root", str(root), "--work", str(work),
        "--workload", args.workload, "--seed", str(args.seed),
    ] + extra
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    import calibrate
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0, help="stop after this many ops (smoke runs)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "diskdyn" / "cli.py").is_file():
        print(f"error: no diskdyn sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup, kernel_s = [], []
        for _ in range(SETUP_SAMPLES if args.trace == 0 else 0):
            kernel_s.append(calibrate.sample())
            start = time.perf_counter()
            proc = _worker(args, root, work / "setup", ["--setup-only"], deadline - time.monotonic())
            setup.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr, end="")
                return 1
        kernel_s.append(calibrate.sample())
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace), "--ops", str(args.ops)]
        proc = _worker(args, root, work, extra, deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        print(f"error: the run did not finish within {RUN_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(proc.stderr, file=sys.stderr, end="")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if setup:
        scale = calibrate.REFERENCE_S / statistics.median(kernel_s)
        print(f"setup_s is the median of {len(setup)} fresh interpreters, raw "
              + ", ".join(f"{s:.4f}" for s in setup) + f" s, times host-speed scale {scale:.4f}")
        result["metrics"]["setup_s"] = {"value": statistics.median(setup) * scale, "unit": "s"}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
