"""One benchmark workload, run in a process of its own.

Started by run.py.  Generates the seeded configs, warms each op kind once,
then runs whole cycles of ops in a closed loop (one client, each op a call
to diskdyn.cli.main) until the time is up.  Output checks run afterwards,
and on construct the known-defect configs run once more, outside the ops.
With --trace 1 the same ops run again under the tracer, and the per-layer
metrics come from that second pass.  Prints report lines, then one JSON
object as the last line.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path


# Longest stretch of op time between two host-speed kernel samples.
CALIBRATE_EVERY_S = 0.1


@dataclass
class Op:
    kind: str
    config: dict
    config_path: Path
    out: Path
    seconds: float = 0.0
    scaled: float = 0.0
    exit_code: int | None = None
    stderr: str = ""
    check_failure: str = ""

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.check_failure

    @property
    def failure(self) -> str:
        return f"output check failed: {self.check_failure}" if self.check_failure else self.stderr


def _run_op(cli, op: Op, out: Path) -> tuple[int | None, float, str]:
    """Call the CLI once on op's config, writing under out; returns (exit
    code or None on a crash, seconds, what the run printed to stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main([op.config["command"], "--config", str(op.config_path), "--out", str(out)])
        except Exception as exc:  # a crash is an op failure, not a harness failure
            code = None
            err.write("crash: " + "".join(traceback.format_exception_only(exc)).strip())
        seconds = time.perf_counter() - start
    return code, seconds, err.getvalue().strip()


def _percentile(values: list, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _same_outputs(a: Path, b: Path) -> bool:
    return all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in ("report.json", "trace.csv", "grid.csv")
    )


# Per-layer metrics read straight off one span's totals: "<span>.<field>",
# where field is calls, self_s, total_s or the span's measured amount.
_PER_OP = (
    "hyperbolic.rho_grid.calls", "hyperbolic.rho_grid.pairs", "hyperbolic.rho_grid.self_s",
    "hyperbolic.rho.calls", "hyperbolic.rho.self_s",
    "ifs.run.calls", "ifs.run.self_s", "ifs.run.total_s",
    "ifs.map_apply.calls", "ifs.map_apply.points", "ifs.map_apply.self_s",
    "ifs.map_vet.calls", "ifs.map_vet.self_s", "ifs.denjoy_wolff.self_s",
    "domains.contains.calls", "domains.contains.self_s",
    "domains.inradius_at.calls", "domains.inradius_at.self_s",
    "sampling.curve_min_rho.calls", "sampling.curve_min_rho.self_s",
    "sampling.witness_samples.points",
    "bloch.bloch_radius_search.self_s", "bloch.witness_disk_verify.calls",
    "bloch.witness_disk_verify.self_s",
    "constructions.build_nonconstant_system.self_s",
    "constructions.build_alternating_system.self_s",
    "cli.parse_config.self_s", "cli.emit_outputs.self_s", "cli.emit_outputs.bytes",
)


def _layer_metrics(tr, n_ops: int, overhead: float) -> dict:
    """Per-layer metrics as totals per replayed op; a ratio whose base is
    0 reads 0."""
    tables = {"calls": tr.calls, "self_s": tr.self_s, "total_s": tr.total_s}

    def per_op(span, field="self_s"):
        return tables.get(field, tr.amount).get(span, 0.0) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric in _PER_OP:
        span, field = metric.rsplit(".", 1)
        out[metric] = (per_op(span, field), "s/op" if field.endswith("_s") else f"{field}/op")
    out["bloch.certify_attempts_per_witness"] = (
        ratio(tr.calls.get("bloch.witness_disk_verify", 0.0), tr.amount.get("bloch.bloch_radius_search", 0.0)),
        "calls/witness",
    )
    out["constructions.t7_attempts_per_step"] = (
        ratio(
            tr.build_attempts,
            tr.amount.get("constructions.build_nonconstant_system", 0.0),
        ),
        "calls/step",
    )
    out["constructions.reports.self_s"] = (
        per_op("constructions.metric_comparison_report")
        + per_op("constructions.preimage_convergence_report"),
        "s/op",
    )
    # The CLI's own work outside named library calls: argument handling in
    # main, plus the result dicts and trace rows built under execute.
    out["cli.main.self_s"] = (per_op("cli.main") + per_op("cli.execute"), "s/op")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def _replay_defects(cli, work: Path) -> None:
    """Run each KNOWN_DEFECTS config once, outside the timed ops, and print
    whether it still fails as listed."""
    from checks import check
    from workloads import KNOWN_DEFECTS
    for i, (cfg, code, text) in enumerate(KNOWN_DEFECTS):
        path = work / f"{i}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(cfg), encoding="utf-8")
        op = Op("defect", cfg, path, work / str(i))
        op.exit_code, _, op.stderr = _run_op(cli, op, op.out)
        if op.exit_code == 0:
            op.check_failure = check(cfg, op.out) or ""
        state = "still fails" if op.exit_code == code and text in op.failure else "no longer fails as listed"
        print(f"known defect {state} (exit {op.exit_code}): {json.dumps(cfg)}: {op.failure or 'check passed'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0, help="stop after this many ops (0: no cap)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # Set-up as a user pays it: import the CLI, then generate the inputs.
    sys.path.insert(0, str(args.root / "src"))
    import diskdyn
    import diskdyn.cli
    from workloads import WORKLOADS, generate
    pool = []
    for c, cycle in enumerate(generate(args.workload, args.seed)):
        ops = []
        for i, (kind, cfg) in enumerate(cycle):
            path = args.work / "configs" / f"{c:03d}-{i:02d}-{kind}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(cfg), encoding="utf-8")
            ops.append((kind, cfg, path))
        pool.append(ops)
    if args.setup_only:
        return 0

    # The checks (and mpmath) and the tracer are imported only after
    # peak_rss_mb is read, so that it holds no harness-only memory.
    import calibrate

    cli = diskdyn.cli
    workload = WORKLOADS[args.workload]
    warm = {}
    for kind, cfg, path in pool[0]:
        warm.setdefault(kind, Op(kind, cfg, path, args.work / "warm" / kind))
    for op in warm.values():
        _run_op(cli, op, op.out)

    # Closed loop over whole cycles.  The host-speed kernel runs between ops,
    # once per CALIBRATE_EVERY_S of op time, outside the op timings.
    ops: list[Op] = []
    kernel_at, kernel_s = [0.0], [calibrate.sample()]
    op_s = since_kernel = 0.0
    cycles = 0
    while True:
        for kind, cfg, path in pool[cycles % len(pool)]:
            if args.ops and len(ops) >= args.ops:
                break
            op = Op(kind, cfg, path, args.work / "untraced" / str(len(ops)))
            op.exit_code, op.seconds, op.stderr = _run_op(cli, op, op.out)
            ops.append(op)
            op_s += op.seconds
            since_kernel += op.seconds
            if since_kernel >= CALIBRATE_EVERY_S:
                kernel_at.append(op_s)
                kernel_s.append(calibrate.sample())
                since_kernel = 0.0
        cycles += 1
        if (args.ops and len(ops) >= args.ops) or op_s >= args.seconds:
            break
    kernel_at.append(op_s)
    kernel_s.append(calibrate.sample())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    from checks import check
    midpoints, elapsed = [], 0.0
    for op in ops:
        midpoints.append(elapsed + op.seconds / 2)
        elapsed += op.seconds
    for op, scale in zip(ops, calibrate.scales(kernel_at, kernel_s, midpoints)):
        op.scaled = op.seconds * scale

    # A non-zero exit, an uncaught exception or a failed output check fails
    # the op, and the op is counted and listed.  `correct` turns false when
    # any op fails, or when tracing changes an output.
    for op in ops:
        if op.exit_code == 0:
            op.check_failure = check(op.config, op.out) or ""
    good = [op for op in ops if op.ok]
    failed = len(ops) - len(good)
    correct = not failed
    times = [op.scaled for op in good]
    raw = [op.seconds for op in good]
    print(
        f"{args.workload} seed {args.seed}: {len(ops)} ops in {cycles} cycles "
        f"({len(workload.cycle)} kinds/cycle) over {op_s:.3f} s; {len(good)} successful, {failed} failed"
    )
    print(
        f"host-speed scaling from {len(kernel_s)} kernel samples (median {statistics.median(kernel_s):.6f} s, "
        f"reference {calibrate.REFERENCE_S} s); times below are raw seconds, metrics are scaled"
    )
    for op in ops:
        if not op.ok:
            print(f"failed op ({op.kind}, exit {op.exit_code}): {json.dumps(op.config)}: {op.failure}")
    if workload.defects:
        _replay_defects(cli, args.work / "defects")
    for kind in dict.fromkeys(workload.cycle):
        mine = [op.seconds for op in good if op.kind == kind]
        if mine:
            print(f"kind {kind}: {len(mine)} successful ops, median {statistics.median(mine):.4f} s, "
                  f"range {min(mine):.4f}-{max(mine):.4f} s")
    if not times:
        print("no successful op")
        return 1
    p50 = statistics.median(times)
    tail = _percentile(times, workload.tail)
    beyond = sum(t > tail for t in times)
    print(
        f"op_s_p50 over {len(times)} ops (raw {statistics.median(raw):.6f} s); op_s_tail is "
        f"p{workload.tail} (raw {_percentile(raw, workload.tail):.6f} s), with {beyond} ops above it"
    )

    if args.trace == 0:
        metrics = {
            "op_s_p50": (p50, "s"),
            "op_s_tail": (tail, "s"),
            "ok_ops_per_s": (len(good) / sum(op.scaled for op in ops), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(diskdyn)
        traced_s = 0.0
        try:
            for k, op in enumerate(ops):
                out = args.work / "traced" / str(k)
                code, seconds, _ = _run_op(cli, op, out)
                tracer.fold()
                traced_s += seconds
                if code != op.exit_code or (code == 0 and not _same_outputs(op.out, out)):
                    print(f"traced op differs from untraced: {json.dumps(op.config)}")
                    correct = False
                shutil.rmtree(out, ignore_errors=True)
        finally:
            tracer.uninstall()
        print(f"traced and untraced outputs compared on {len(ops)} ops")
        metrics = _layer_metrics(tracer, len(ops), traced_s / sum(op.seconds for op in ops))
        run_total = tracer.total_s.get("ifs.run", 0.0)
        if run_total:
            own = {n: tracer.self_s.get(n, 0.0) / run_total for n in ("ifs.run", "hyperbolic.rho_grid", "ifs.map_apply")}
            print("share of the ifs.run span: " + ", ".join(f"{n} self {v:.3f}" for n, v in own.items()))
        for name in sorted(tracer.calls, key=lambda n: -tracer.self_s.get(n, 0.0)):
            print(
                f"span {name}: calls {tracer.calls[name]:.0f} self_s {tracer.self_s.get(name, 0.0):.6f} "
                f"total_s {tracer.total_s.get(name, 0.0):.6f}"
            )
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
