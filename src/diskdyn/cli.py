"""Command-line front end: strict JSON run configs, deterministic outputs.

Every run writes three files under the output directory: `trace.csv`
(columns n, probe_index, re, im, diameter), `report.json` (echoed config
plus command results; complex values as [re, im] pairs, non-finite floats
as null), and `grid.csv` (the image of a fixed polar grid under the final
composite, for external plotting).  Identical config and seed produce
byte-identical files.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bloch import (
    RadialStretch,
    SearchBudget,
    bloch_radius_search,
    qc_image_experiment,
)
from .constructions import (
    build_alternating_system,
    build_nonconstant_system,
    metric_comparison_report,
    point_at_intrinsic_distance,
    preimage_convergence_report,
)
from .domains import parse_domain
from .errors import ConfigError, NumericError, PreconditionError
from .hyperbolic import Blaschke2, DiskPoint, MobiusAut
from .ifs import (
    Affine,
    MapDescriptor,
    ProbeSpec,
    Squaring,
    _evaluate_grid,
    compose_eval,
    denjoy_wolff,
    random_system,
    run,
)

COMMANDS = (
    "bloch",
    "ifs-run",
    "construct-t7",
    "construct-t8",
    "dw",
    "verify-lemmas",
    "qc",
)

_GRID_RINGS = 12
_GRID_SPOKES = 24
_GRID_RADIUS = 1.2

_REQUIRED = object()


@dataclass(frozen=True)
class RunConfig:
    """A validated run: the command plus fully defaulted options."""

    command: str
    options: dict

    def serialize(self) -> str:
        doc = {"command": self.command}
        for key, value in self.options.items():
            if value is not None:
                doc[key] = value
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _check_int(path, v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"config key {path!r}: expected an integer, got {v!r}")
    return v


def _check_float(path, v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"config key {path!r}: expected a number, got {v!r}")
    return float(v)


def _check_str(path, v):
    if not isinstance(v, str):
        raise ConfigError(f"config key {path!r}: expected a string, got {v!r}")
    return v


def _check_bool(path, v):
    if not isinstance(v, bool):
        raise ConfigError(f"config key {path!r}: expected true/false, got {v!r}")
    return v


def _check_pair(path, v):
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in v)
    ):
        raise ConfigError(f"config key {path!r}: expected [re, im], got {v!r}")
    return [float(v[0]), float(v[1])]


def _check_floatlist(path, v):
    if (
        not isinstance(v, (list, tuple))
        or not v
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in v)
    ):
        raise ConfigError(f"config key {path!r}: expected a list of numbers, got {v!r}")
    return [float(x) for x in v]


_PROBE_SCHEMA = {
    "rho_radius": (_check_float, 1.2),
    "rings": (_check_int, 24),
    "spokes": (_check_int, 24),
    "origin": (_check_bool, True),
}

_BUDGET_KEYS = {
    "depth": (_check_float, 3.0),
    "ring_step": (_check_float, 0.25),
    "angular_cap": (_check_int, 64),
    "refine_iters": (_check_int, 120),
    "witness_threshold": (_check_float, 1.0),
    "witness_samples": (_check_int, 10000),
}

_SCHEMAS = {
    "bloch": {"domain": (_check_str, _REQUIRED), **_BUDGET_KEYS},
    "qc": {
        "domain": (_check_str, _REQUIRED),
        "exponent": (_check_float, 2.0),
        **_BUDGET_KEYS,
    },
    "ifs-run": {
        "domain": (_check_str, _REQUIRED),
        "N": (_check_int, 50),
        "tol": (_check_float, 1e-8),
        "probe": (None, None),  # nested, handled explicitly
    },
    "construct-t7": {
        "domain": (_check_str, _REQUIRED),
        "N": (_check_int, 20),
        "distance": (_check_float, 0.3),
        "angle": (_check_float, 0.0),
        "a0": (_check_pair, None),
    },
    "construct-t8": {
        "domain": (_check_str, _REQUIRED),
        "N": (_check_int, 12),
        "distance": (_check_float, 1.0),
        "angle": (_check_float, math.pi / 3.0),
        "base": (_check_pair, None),
        "value1": (_check_pair, None),
    },
    "dw": {
        "map": (_check_str, _REQUIRED),
        "z0": (_check_pair, _REQUIRED),
        "N": (_check_int, 1000),
        "tol": (_check_float, 1e-10),
    },
    "verify-lemmas": {
        "bounds": (_check_floatlist, [2.0, 4.0, 8.0]),
        "sample_count": (_check_int, 512),
        "target": (_check_pair, [0.3, 0.0]),
        "moduli": (_check_floatlist, [0.9, 0.99, 0.999]),
        "args_per_modulus": (_check_int, 8),
    },
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run config; fill and echo defaults.

    Unknown keys are rejected by name; errors carry the key path or the
    line/column of the JSON syntax problem.  parse → serialize → parse is
    the identity.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    command = doc.get("command")
    if command is None:
        raise ConfigError("config key 'command' is required")
    if command not in _SCHEMAS:
        raise ConfigError(
            f"config key 'command': unknown command {command!r}; "
            f"expected one of {', '.join(COMMANDS)}"
        )
    schema = dict(_SCHEMAS[command])
    options: dict = {}
    for key, value in doc.items():
        if key == "command":
            continue
        if key == "seed":
            options["seed"] = _check_int("seed", value)
        elif key == "out":
            options["out"] = _check_str("out", value)
        elif key == "probe" and command == "ifs-run":
            options["probe"] = _parse_probe(value)
        elif key in schema:
            check, _default = schema[key]
            options[key] = check(key, value)
        else:
            raise ConfigError(
                f"unknown config key {key!r} for command {command!r}"
            )
    options.setdefault("seed", 0)
    options.setdefault("out", "out")
    for key, (check, default) in schema.items():
        if key == "probe":
            options.setdefault("probe", _parse_probe({}))
            continue
        if key not in options:
            if default is _REQUIRED:
                raise ConfigError(
                    f"config key {key!r} is required for command {command!r}"
                )
            options[key] = default
    _validate_semantics(command, options)
    return RunConfig(command=command, options=options)


def _parse_probe(value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"config key 'probe': expected an object, got {value!r}")
    probe = {}
    for key, v in value.items():
        if key not in _PROBE_SCHEMA:
            raise ConfigError(f"unknown config key 'probe.{key}'")
        check, _default = _PROBE_SCHEMA[key]
        probe[key] = check(f"probe.{key}", v)
    for key, (check, default) in _PROBE_SCHEMA.items():
        probe.setdefault(key, default)
    return probe


def _validate_semantics(command: str, options: dict) -> None:
    if "domain" in options:
        try:
            parse_domain(options["domain"])
        except PreconditionError as exc:
            raise ConfigError(f"config key 'domain': {exc}") from None
    if "map" in options:
        parse_map(options["map"])
    if command == "dw":
        z0 = complex(options["z0"][0], options["z0"][1])
        if not 1.0 - abs(z0) >= 1e-15:
            raise ConfigError(f"config key 'z0': {z0!r} is not inside the disk")
    if command == "ifs-run":
        probe = options["probe"]
        try:
            ProbeSpec(
                rho_radius=probe["rho_radius"],
                rings=probe["rings"],
                spokes=probe["spokes"],
                origin=probe["origin"],
            )
        except PreconditionError as exc:
            raise ConfigError(f"config key 'probe': {exc}") from None


_MAP_TOKEN = re.compile(r"^([a-z]+)(?:\((.*)\))?$")


def parse_map(text: str) -> tuple:
    """Parse a '|'-chained map string into primitive pieces.

    Grammar: affine(a,b) | square | blaschke(re,im) | mobius(re,im,theta),
    applied left to right.
    """
    if not isinstance(text, str) or not text.strip():
        raise ConfigError("config key 'map': expected a nonempty map string")
    pieces = []
    for i, raw in enumerate(text.split("|"), start=1):
        tok = raw.strip()
        m = _MAP_TOKEN.match(tok)
        if not m:
            raise ConfigError(f"map token {i} {tok!r}: unrecognized syntax")
        name, argstr = m.group(1), m.group(2)
        try:
            args = (
                [float(a) for a in argstr.split(",")]
                if argstr not in (None, "")
                else []
            )
        except ValueError:
            raise ConfigError(
                f"map token {i} {tok!r}: arguments must be numbers"
            ) from None
        try:
            if name == "affine" and len(args) == 2:
                pieces.append(Affine(args[0], args[1]))
            elif name == "square" and not args:
                pieces.append(Squaring())
            elif name == "blaschke" and len(args) == 2:
                pieces.append(Blaschke2(complex(args[0], args[1])))
            elif name == "mobius" and len(args) == 3:
                pieces.append(MobiusAut(complex(args[0], args[1]), args[2]))
            else:
                raise ConfigError(
                    f"map token {i} {tok!r}: unknown map or wrong argument count"
                )
        except ConfigError:
            raise
        except PreconditionError as exc:
            raise ConfigError(f"map token {i} {tok!r}: {exc}") from None
    return tuple(pieces)


def _jf(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _pair(z) -> list:
    z = complex(z)
    return [_jf(z.real), _jf(z.imag)]


def _budget_from(options: dict) -> SearchBudget:
    return SearchBudget(
        depth=options["depth"],
        ring_step=options["ring_step"],
        angular_cap=options["angular_cap"],
        refine_iters=options["refine_iters"],
        witness_threshold=options["witness_threshold"],
        witness_samples=options["witness_samples"],
    )


def _bloch_results(rep) -> dict:
    witness = None
    if rep.witness is not None:
        witness = {
            "center": _pair(rep.witness.center),
            "radius": _jf(rep.witness.radius),
        }
    return {
        "center": _pair(rep.best_center),
        "inradius": _jf(rep.best_inradius),
        "verdict": {"kind": rep.verdict.kind, "value": _jf(rep.verdict.value)},
        "budget": {
            "depth": _jf(rep.budget.depth),
            "ring_step": _jf(rep.budget.ring_step),
            "angular_cap": rep.budget.angular_cap,
            "refine_iters": rep.budget.refine_iters,
            "witness_threshold": _jf(rep.budget.witness_threshold),
            "witness_samples": rep.budget.witness_samples,
        },
        "witness": witness,
    }


def _engine_results(trace, report) -> dict:
    verdict = report.verdict
    return {
        "verdict": {
            "kind": verdict.kind,
            "constant": None if verdict.constant is None else _pair(verdict.constant),
            "diameter_floor": None
            if verdict.diameter_floor is None
            else _jf(verdict.diameter_floor),
            "clusters": [
                {"representative": _pair(c.representative), "steps": list(c.steps)}
                for c in verdict.clusters
            ],
        },
        "schwarz_max": _jf(report.schwarz_max),
        "steps": [
            {
                "n": s.n,
                "diameter": _jf(s.diameter),
                "movement": _jf(s.movement),
                "schwarz_slack": _jf(s.schwarz_slack),
                "lost_points": len(s.point_errors),
            }
            for s in trace.steps
        ],
    }


def _trace_rows(trace) -> list:
    rows = []
    for step in trace.steps:
        for idx, z in enumerate(step.values):
            rows.append(
                (step.n, idx, float(z.real), float(z.imag), float(step.diameter))
            )
    return rows


def _run_bloch(options: dict):
    X = parse_domain(options["domain"])
    rep = bloch_radius_search(X, _budget_from(options))
    return _bloch_results(rep), [], None


def _run_qc(options: dict):
    X = parse_domain(options["domain"])
    budget = _budget_from(options)
    baseline = bloch_radius_search(X, budget)
    stretched = qc_image_experiment(X, RadialStretch(options["exponent"]), budget)
    return (
        {
            "exponent": _jf(options["exponent"]),
            "baseline": _bloch_results(baseline),
            "stretched": _bloch_results(stretched),
            "verdict_preserved": baseline.verdict.kind == stretched.verdict.kind,
        },
        [],
        None,
    )


def _run_ifs(options: dict):
    X = parse_domain(options["domain"])
    seq = random_system(X, options["seed"], options["N"])
    p = options["probe"]
    probe = ProbeSpec(
        rho_radius=p["rho_radius"],
        rings=p["rings"],
        spokes=p["spokes"],
        origin=p["origin"],
    )
    trace, report = run(seq, probe=probe, tol=options["tol"])
    return _engine_results(trace, report), _trace_rows(trace), seq


def _run_t7(options: dict):
    X = parse_domain(options["domain"])
    a0 = (
        complex(options["a0"][0], options["a0"][1])
        if options["a0"] is not None
        else complex(X.anchor)
    )
    w0 = point_at_intrinsic_distance(X, a0, options["distance"], options["angle"])
    seq, steps = build_nonconstant_system(X, a0, w0, options["N"])
    marked = complex(steps[-1].marked_tilde)
    trace, report = run(seq, probe=ProbeSpec(marked=(marked,)))
    f_zero = complex(compose_eval(seq, 0j))
    f_marked = complex(compose_eval(seq, marked))
    results = {
        "a0": _pair(a0),
        "w0": _pair(w0),
        "steps": [
            {
                "n": s.n,
                "anchor": _pair(s.anchor),
                "marked": _pair(s.marked),
                "marked_tilde": _pair(s.marked_tilde),
                "lift": _jf(s.lift),
                "depth": _jf(s.depth_used),
                "dist_pair": _jf(s.dist_pair),
                "dist_intrinsic": _jf(s.dist_intrinsic),
                "dist_tilde": _jf(s.dist_tilde),
                "inradius": _jf(s.inradius),
                "checks": dict(s.checks),
            }
            for s in steps
        ],
        "final": {
            "composite_at_zero": _pair(f_zero),
            "composite_at_marked": _pair(f_marked),
            "pin_error_zero": _jf(abs(f_zero - a0)),
            "pin_error_marked": _jf(abs(f_marked - w0)),
        },
        "engine": _engine_results(trace, report),
    }
    return results, _trace_rows(trace), seq


def _run_t8(options: dict):
    X = parse_domain(options["domain"])
    base = (
        complex(options["base"][0], options["base"][1])
        if options["base"] is not None
        else complex(X.anchor)
    )
    value1 = (
        complex(options["value1"][0], options["value1"][1])
        if options["value1"] is not None
        else point_at_intrinsic_distance(
            X, base, options["distance"], options["angle"]
        )
    )
    seq, steps = build_alternating_system(X, base, value1, options["N"])
    trace, report = run(seq, probe=ProbeSpec(marked=(base,)))
    even_err = 0.0
    odd_err = 0.0
    for n in range(1, options["N"] + 1):
        v = complex(compose_eval(seq, base, n))
        if n % 2 == 0:
            even_err = max(even_err, abs(v - base))
        else:
            odd_err = max(odd_err, abs(v - value1))
    results = {
        "base": _pair(base),
        "value1": _pair(value1),
        "steps": [
            {
                "n": s.n,
                "value": _pair(s.value),
                "theta": _jf(s.theta),
                "circle_radius": _jf(s.circle_radius),
                "checks": dict(s.checks),
            }
            for s in steps
        ],
        "alternation": {"even_error": _jf(even_err), "odd_error": _jf(odd_err)},
        "engine": _engine_results(trace, report),
    }
    return results, _trace_rows(trace), seq


def _run_dw(options: dict):
    pieces = parse_map(options["map"])
    f = MapDescriptor(pieces)
    z0 = complex(options["z0"][0], options["z0"][1])
    limit, location = denjoy_wolff(f, z0, options["N"], options["tol"])
    rows = []
    z = z0
    for n in range(1, options["N"] + 1):
        w = complex(f(z))
        rows.append((n, 0, float(w.real), float(w.imag), 0.0))
        if abs(w - z) < options["tol"] or not 1.0 - abs(w) >= 1e-14:
            break
        z = w
    results = {
        "map": options["map"],
        "z0": _pair(z0),
        "limit": _pair(limit),
        "location": location,
        "iterations": len(rows),
    }
    return results, rows, [f] * options["N"]


def _run_verify(options: dict):
    metric = metric_comparison_report(
        tuple(options["bounds"]), options["sample_count"]
    )
    target = complex(options["target"][0], options["target"][1])
    preimage = preimage_convergence_report(
        target,
        tuple(options["moduli"]),
        options["seed"],
        options["args_per_modulus"],
    )
    results = {
        "metric_comparison": {
            "bounds": list(metric.bounds),
            "ratio_excess": [_jf(x) for x in metric.ratio_excess],
            "density_ratio": [_jf(x) for x in metric.density_ratio],
            "domination_ok": metric.domination_ok,
            "sample_count": metric.sample_count,
        },
        "preimage_convergence": {
            "target": _pair(preimage.target),
            "limit": _jf(preimage.limit),
            "moduli": list(preimage.moduli),
            "real_axis_gaps": [_jf(x) for x in preimage.real_axis_gaps],
            "sampled_gaps": [_jf(x) for x in preimage.sampled_gaps],
            "identity_error": _jf(preimage.identity_error),
        },
    }
    return results, [], None


_DISPATCH = {
    "bloch": _run_bloch,
    "qc": _run_qc,
    "ifs-run": _run_ifs,
    "construct-t7": _run_t7,
    "construct-t8": _run_t8,
    "dw": _run_dw,
    "verify-lemmas": _run_verify,
}


def _grid_rows(seq) -> list:
    src = []
    index = []
    for ring in range(1, _GRID_RINGS + 1):
        r = math.tanh(_GRID_RADIUS * ring / _GRID_RINGS)
        for spoke in range(_GRID_SPOKES):
            phi = 2.0 * math.pi * spoke / _GRID_SPOKES
            src.append(r * complex(math.cos(phi), math.sin(phi)))
            index.append((ring, spoke))
    pts = np.array(src, dtype=complex)
    if seq:
        img, _errors = _evaluate_grid(seq, len(seq), pts)
    else:
        img = pts
    rows = []
    for (ring, spoke), s, v in zip(index, pts, img, strict=True):
        rows.append(
            (
                ring,
                spoke,
                float(s.real),
                float(s.imag),
                float(v.real),
                float(v.imag),
            )
        )
    return rows


def emit_outputs(out_dir, report: dict, trace_rows=(), seq=None) -> dict:
    """Write trace.csv, report.json, and grid.csv under out_dir."""
    out = Path(out_dir)
    paths = {
        "trace": out / "trace.csv",
        "report": out / "report.json",
        "grid": out / "grid.csv",
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(paths["trace"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "probe_index", "re", "im", "diameter"])
            writer.writerows(trace_rows)
        paths["report"].write_text(
            json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n",
            encoding="utf-8",
        )
        with open(paths["grid"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["ring", "spoke", "src_re", "src_im", "img_re", "img_im"])
            writer.writerows(_grid_rows(seq))
    except OSError as exc:
        raise PreconditionError(
            f"cannot write outputs under {str(out)!r}: {exc}"
        ) from None
    return paths


def execute(config: RunConfig) -> dict:
    """Run a validated config and write its outputs; returns the report."""
    results, trace_rows, seq = _DISPATCH[config.command](config.options)
    echo = json.loads(config.serialize())
    # The output directory is not part of the run semantics; dropping it
    # keeps reports byte-identical across output locations.
    echo.pop("out", None)
    report = {"command": config.command, "config": echo, "results": results}
    emit_outputs(config.options["out"], report, trace_rows, seq)
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskdyn",
        description="Hyperbolic-disk map system runner: searches, traces, reports.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON run config path")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise PreconditionError(f"cannot read config {args.config!r}: {exc}") from None
        config = parse_config(text)
        if config.command != args.command:
            raise ConfigError(
                f"config names command {config.command!r} but the command line "
                f"says {args.command!r}"
            )
        options = dict(config.options)
        if args.seed is not None:
            options["seed"] = args.seed
        if args.out is not None:
            options["out"] = args.out
        config = RunConfig(command=config.command, options=options)
        execute(config)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {config.options['out']}/trace.csv, report.json, grid.csv")
    return 0


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
