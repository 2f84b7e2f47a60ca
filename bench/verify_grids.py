"""Runs every point of construct's t7 and t8 parameter grids once and checks
its output, so a change to the grids or to the builders shows whether any
benchmark op would fail.  Run from the root of a checkout:

    python3 bench/verify_grids.py
"""
from __future__ import annotations

import itertools
import json
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(BENCH)]
    import workloads
    from checks import check
    from worker import Op, _run_op
    import diskdyn.cli as cli

    work = root / ".bench_work" / "grids"
    bad = total = 0
    start = time.perf_counter()
    try:
        for kind, axes in workloads.GRIDS.items():
            sizes = [len(values) for values in axes]
            for idx in itertools.product(*(range(n) for n in sizes)):
                # The middle of each grid cell picks exactly that grid value.
                u = [(i + 0.5) / n for i, n in zip(idx, sizes)] + [0.0, 0.0]
                cfg = workloads.KINDS[kind](u, None)
                path = work / f"{total}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(cfg), encoding="utf-8")
                op = Op(kind, cfg, path, work / str(total))
                op.exit_code, _, op.stderr = _run_op(cli, op, op.out)
                if op.exit_code == 0:
                    op.check_failure = check(cfg, op.out) or ""
                if not op.ok:
                    bad += 1
                    print(f"fails (exit {op.exit_code}): {json.dumps(cfg)}: {op.failure}")
                total += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{total} grid configs in {time.perf_counter() - start:.1f} s, {bad} failing")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
