"""Command-line front end: strict JSON run configs, deterministic outputs.

Every run writes three files under the output directory: `trace.csv`
(columns n, probe_index, re, im, diameter), `report.json` (echoed config
plus command results; complex values as [re, im] pairs, non-finite floats
as null), and `grid.csv` (the image of a fixed polar grid under the final
composite, for external plotting).  Identical config and seed produce
byte-identical files.  The search-budget and probe keys are the fields of
SearchBudget and ProbeSpec, and results encode the library's dataclasses
field by field.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from dataclasses import dataclass, fields, is_dataclass
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
from .hyperbolic import Blaschke2, MobiusAut
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


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_float(path, v):
    if not _is_number(v):
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
    if not isinstance(v, (list, tuple)) or len(v) != 2 or not all(map(_is_number, v)):
        raise ConfigError(f"config key {path!r}: expected [re, im], got {v!r}")
    return [float(v[0]), float(v[1])]


def _check_floatlist(path, v):
    if not isinstance(v, (list, tuple)) or not v or not all(map(_is_number, v)):
        raise ConfigError(f"config key {path!r}: expected a list of numbers, got {v!r}")
    return [float(x) for x in v]


def _check_object(schema: dict):
    """Check for a nested object whose keys follow their own schema."""

    def check(path, v):
        if not isinstance(v, dict):
            raise ConfigError(f"config key {path!r}: expected an object, got {v!r}")
        return _parse_keys(v, schema, f"{path}.", "")

    return check


_CHECK_BY_TYPE = {bool: _check_bool, int: _check_int, float: _check_float}


def _schema_of(cls, skip=()) -> dict:
    """Config keys of a library dataclass: each field with its default,
    checked by the default's type."""
    return {
        f.name: (_CHECK_BY_TYPE[type(f.default)], f.default)
        for f in fields(cls)
        if f.name not in skip
    }


def _parse_keys(doc: dict, schema: dict, prefix: str, where: str) -> dict:
    """Check every key of doc against schema, then fill the defaults.

    A default goes through its key's check like a given value, so a
    nested object fills its own defaults; a None default leaves the key
    unset.
    """
    out = {}
    for key, value in doc.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {prefix + key!r}{where}")
        out[key] = schema[key][0](prefix + key, value)
    for key, (check, default) in schema.items():
        if key in out:
            continue
        if default is _REQUIRED:
            raise ConfigError(f"config key {prefix + key!r} is required{where}")
        out[key] = None if default is None else check(prefix + key, default)
    return out


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
    command = doc.pop("command", None)
    if command is None:
        raise ConfigError("config key 'command' is required")
    if command not in _COMMANDS:
        raise ConfigError(
            f"config key 'command': unknown command {command!r}; "
            f"expected one of {', '.join(COMMANDS)}"
        )
    schema = {**_COMMON_KEYS, **_COMMANDS[command][0]}
    options = _parse_keys(doc, schema, "", f" for command {command!r}")
    _validate_semantics(command, options)
    return RunConfig(command=command, options=options)


def _validate_semantics(command: str, options: dict) -> None:
    if "domain" in options:
        try:
            parse_domain(options["domain"])
        except PreconditionError as exc:
            raise ConfigError(f"config key 'domain': {exc}") from None
    if "map" in options:
        parse_map(options["map"])
    if command == "dw":
        z0 = complex(*options["z0"])
        if not 1.0 - abs(z0) >= 1e-15:
            raise ConfigError(f"config key 'z0': {z0!r} is not inside the disk")


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


def _fields(obj, drop=()) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in drop}


def _encode(value):
    """JSON form of a result: dataclasses become dicts by field, complex
    values [re, im], non-finite floats null, and tuples lists."""
    if is_dataclass(value):
        value = _fields(value)
    if isinstance(value, dict):
        return {key: _encode(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, complex):
        return [_encode(value.real), _encode(value.imag)]
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    return value


def _bloch_results(rep) -> dict:
    return {
        **_fields(rep, drop=("best_center", "best_inradius")),
        "center": rep.best_center,
        "inradius": rep.best_inradius,
    }


def _engine_results(trace, report) -> dict:
    return {
        "verdict": report.verdict,
        "schwarz_max": report.schwarz_max,
        "steps": [
            {**_fields(s, drop=("values", "point_errors")), "lost_points": len(s.point_errors)}
            for s in trace.steps
        ],
    }


def _trace_rows(trace) -> list:
    return [
        (step.n, idx, float(z.real), float(z.imag), float(step.diameter))
        for step in trace.steps
        for idx, z in enumerate(step.values)
    ]


def _budget(options: dict) -> SearchBudget:
    return SearchBudget(**{key: options[key] for key in _BUDGET_SCHEMA})


def _run_bloch(options: dict):
    X = parse_domain(options["domain"])
    return _bloch_results(bloch_radius_search(X, _budget(options))), [], None


def _run_qc(options: dict):
    X = parse_domain(options["domain"])
    budget = _budget(options)
    baseline = bloch_radius_search(X, budget)
    stretched = qc_image_experiment(X, RadialStretch(options["exponent"]), budget)
    results = {
        "exponent": options["exponent"],
        "baseline": _bloch_results(baseline),
        "stretched": _bloch_results(stretched),
        "verdict_preserved": baseline.verdict.kind == stretched.verdict.kind,
    }
    return results, [], None


def _run_ifs(options: dict):
    X = parse_domain(options["domain"])
    seq = random_system(X, options["seed"], options["N"])
    trace, report = run(seq, probe=ProbeSpec(**options["probe"]), tol=options["tol"])
    return _engine_results(trace, report), _trace_rows(trace), seq


def _run_t7(options: dict):
    X = parse_domain(options["domain"])
    a0 = complex(X.anchor) if options["a0"] is None else complex(*options["a0"])
    w0 = point_at_intrinsic_distance(X, a0, options["distance"], options["angle"])
    seq, steps = build_nonconstant_system(X, a0, w0, options["N"])
    marked = complex(steps[-1].marked_tilde)
    trace, report = run(seq, probe=ProbeSpec(marked=(marked,)))
    f_zero = complex(compose_eval(seq, 0j))
    f_marked = complex(compose_eval(seq, marked))
    results = {
        "a0": a0,
        "w0": w0,
        "steps": [
            {**_fields(s, drop=("descriptor", "depth_used")), "depth": s.depth_used}
            for s in steps
        ],
        "final": {
            "composite_at_zero": f_zero,
            "composite_at_marked": f_marked,
            "pin_error_zero": abs(f_zero - a0),
            "pin_error_marked": abs(f_marked - w0),
        },
        "engine": _engine_results(trace, report),
    }
    return results, _trace_rows(trace), seq


def _run_t8(options: dict):
    X = parse_domain(options["domain"])
    base = complex(X.anchor) if options["base"] is None else complex(*options["base"])
    if options["value1"] is None:
        value1 = point_at_intrinsic_distance(X, base, options["distance"], options["angle"])
    else:
        value1 = complex(*options["value1"])
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
        "base": base,
        "value1": value1,
        "steps": [_fields(s, drop=("base", "descriptor")) for s in steps],
        "alternation": {"even_error": even_err, "odd_error": odd_err},
        "engine": _engine_results(trace, report),
    }
    return results, _trace_rows(trace), seq


def _run_dw(options: dict):
    f = MapDescriptor(parse_map(options["map"]))
    z0 = complex(*options["z0"])
    limit, location, orbit = denjoy_wolff(f, z0, options["N"], options["tol"])
    results = {
        "map": options["map"],
        "z0": z0,
        "limit": limit,
        "location": location,
        "iterations": len(orbit),
    }
    rows = [(n, 0, w.real, w.imag, 0.0) for n, w in enumerate(orbit, start=1)]
    return results, rows, [f] * options["N"]


def _run_verify(options: dict):
    metric = metric_comparison_report(
        tuple(options["bounds"]), options["sample_count"]
    )
    preimage = preimage_convergence_report(
        complex(*options["target"]),
        tuple(options["moduli"]),
        options["seed"],
        options["args_per_modulus"],
    )
    return {"metric_comparison": metric, "preimage_convergence": preimage}, [], None


_COMMON_KEYS = {"seed": (_check_int, 0), "out": (_check_str, "out")}
_BUDGET_SCHEMA = _schema_of(SearchBudget)
_DOMAIN_KEY = {"domain": (_check_str, _REQUIRED)}

# Each command's config keys (check, default) and its runner, which
# returns (results, trace rows, the map sequence behind grid.csv).
_COMMANDS = {
    "bloch": ({**_DOMAIN_KEY, **_BUDGET_SCHEMA}, _run_bloch),
    "ifs-run": (
        {
            **_DOMAIN_KEY,
            "N": (_check_int, 50),
            "tol": (_check_float, 1e-8),
            # marked points are for the builders' runs, not for configs
            "probe": (_check_object(_schema_of(ProbeSpec, skip=("marked",))), {}),
        },
        _run_ifs,
    ),
    "construct-t7": (
        {
            **_DOMAIN_KEY,
            "N": (_check_int, 20),
            "distance": (_check_float, 0.3),
            "angle": (_check_float, 0.0),
            "a0": (_check_pair, None),
        },
        _run_t7,
    ),
    "construct-t8": (
        {
            **_DOMAIN_KEY,
            "N": (_check_int, 12),
            "distance": (_check_float, 1.0),
            "angle": (_check_float, math.pi / 3.0),
            "base": (_check_pair, None),
            "value1": (_check_pair, None),
        },
        _run_t8,
    ),
    "dw": (
        {
            "map": (_check_str, _REQUIRED),
            "z0": (_check_pair, _REQUIRED),
            "N": (_check_int, 1000),
            "tol": (_check_float, 1e-10),
        },
        _run_dw,
    ),
    "verify-lemmas": (
        {
            "bounds": (_check_floatlist, [2.0, 4.0, 8.0]),
            "sample_count": (_check_int, 512),
            "target": (_check_pair, [0.3, 0.0]),
            "moduli": (_check_floatlist, [0.9, 0.99, 0.999]),
            "args_per_modulus": (_check_int, 8),
        },
        _run_verify,
    ),
    "qc": ({**_DOMAIN_KEY, "exponent": (_check_float, 2.0), **_BUDGET_SCHEMA}, _run_qc),
}
COMMANDS = tuple(_COMMANDS)


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
    img = _evaluate_grid(seq, len(seq), pts)[0] if seq else pts
    return [
        (ring, spoke, float(s.real), float(s.imag), float(v.real), float(v.imag))
        for (ring, spoke), s, v in zip(index, pts, img, strict=True)
    ]


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
    results, trace_rows, seq = _COMMANDS[config.command][1](config.options)
    echo = json.loads(config.serialize())
    # The output directory is not part of the run semantics; dropping it
    # keeps reports byte-identical across output locations.
    echo.pop("out", None)
    report = {"command": config.command, "config": echo, "results": _encode(results)}
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
        overrides = {"seed": args.seed, "out": args.out}
        options = {**config.options, **{k: v for k, v in overrides.items() if v is not None}}
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
