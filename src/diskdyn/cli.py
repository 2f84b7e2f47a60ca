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
import inspect
import json
import math
import reprlib
import sys
from dataclasses import dataclass, fields, is_dataclass
from itertools import repeat
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
from .domains import _parse_call, parse_domain
from .errors import ConfigError, NumericError, PreconditionError
from .hyperbolic import Blaschke2, MobiusAut, inside
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

# trace.csv is formatted a block of whole steps of at most this many values
# at a time: enough to share repeated values, few enough to keep the
# block's strings small.
_FORMAT_BLOCK = 2048

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


def _refused(path, expected: str, v) -> ConfigError:
    # reprlib bounds the echo: a 400-digit integer prints as its first and
    # last digits.
    return ConfigError(f"config key {path!r}: expected {expected}, got {reprlib.repr(v)}")


def _check_int(path, v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise _refused(path, "an integer", v)
    return v


def _is_number(v) -> bool:
    """A finite JSON number; an integer too large for a float is not."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _check_float(path, v):
    if not _is_number(v):
        raise _refused(path, "a finite number", v)
    return float(v)


def _check_str(path, v):
    if not isinstance(v, str):
        raise _refused(path, "a string", v)
    return v


def _check_bool(path, v):
    if not isinstance(v, bool):
        raise _refused(path, "true/false", v)
    return v


def _check_pair(path, v):
    if not isinstance(v, (list, tuple)) or len(v) != 2 or not all(map(_is_number, v)):
        raise _refused(path, "finite [re, im]", v)
    return [float(v[0]), float(v[1])]


def _check_floatlist(path, v):
    if not isinstance(v, (list, tuple)) or not v or not all(map(_is_number, v)):
        raise _refused(path, "a list of finite numbers", v)
    return [float(x) for x in v]


def _check_object(schema: dict):
    """Check for a nested object whose keys follow their own schema."""

    def check(path, v):
        if not isinstance(v, dict):
            raise _refused(path, "an object", v)
        return _parse_keys(v, schema, f"{path}.", "")

    return check


_CHECK_BY_TYPE = {
    bool: _check_bool,
    int: _check_int,
    float: _check_float,
    tuple: _check_floatlist,
}


def _schema_of(obj, skip=()) -> dict:
    """Config keys of a library dataclass's fields or of a function's
    parameters that have defaults: each with its default, checked by the
    default's type.  The parameter n_steps is the key N."""
    if is_dataclass(obj):
        defaults = {f.name: f.default for f in fields(obj)}
    else:
        params = inspect.signature(obj).parameters.values()
        defaults = {p.name: p.default for p in params if p.default is not p.empty}
    return {
        "N" if name == "n_steps" else name: (_CHECK_BY_TYPE[type(default)], default)
        for name, default in defaults.items()
        if name not in skip
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
            raise ConfigError(f"unknown config key {reprlib.repr(prefix + key)}{where}")
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
    if _check_str("command", command) not in _COMMANDS:
        raise ConfigError(
            f"config key 'command': unknown command {reprlib.repr(command)}; "
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
        if not inside(z0):
            raise ConfigError(f"config key 'z0': {z0!r} is not inside the disk")


_MAP_PIECES = {
    "affine": (2, Affine),
    "square": (0, Squaring),
    "blaschke": (2, lambda re, im: Blaschke2(complex(re, im))),
    "mobius": (3, lambda re, im, theta: MobiusAut(complex(re, im), theta)),
}


def parse_map(text: str) -> tuple:
    """Parse a '|'-chained map string into primitive pieces.

    Grammar: affine(a,b) | square | blaschke(re,im) | mobius(re,im,theta),
    with finite numbers, applied left to right.
    """
    if not isinstance(text, str) or not text.strip():
        raise ConfigError("config key 'map': expected a nonempty map string")
    pieces = []
    for i, raw in enumerate(text.split("|"), start=1):
        tok = raw.strip()
        label = f"map token {i} {reprlib.repr(tok)}"
        try:
            pieces.append(_parse_call(tok, _MAP_PIECES, label))
        except ConfigError:
            raise
        except PreconditionError as exc:
            raise ConfigError(f"{label}: {exc}") from None
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


def _engine_results(steps, report) -> dict:
    return {
        "verdict": report.verdict,
        "schwarz_max": report.schwarz_max,
        "steps": [
            {**_fields(s, drop=("values",)), "lost_points": int(np.count_nonzero(np.isnan(s.values)))}
            for s in steps
        ],
    }


def _reprs(a: np.ndarray) -> list:
    """repr of each double of the float array a, as a list of strings.
    Each distinct bit pattern is formatted once, in one repr of the list
    of distinct values; keying by bits keeps -0.0 apart from 0.0, which
    compare equal."""
    keys, inverse = np.unique(a.view(np.int64), return_inverse=True)
    distinct = repr(keys.view(float).tolist())[1:-1].split(", ")
    return np.array(distinct, dtype=object)[inverse].tolist()


def _csv_lines(heads, values, tails):
    """CSV lines "head,re,im" + tail, one per complex value, with the
    floats as repr writes them: the bytes csv.writer gives (nan too).
    heads and tails are already-formatted strings, one per value."""
    return map("{},{!r},{!r}{}\n".format, heads, values.real.tolist(), values.imag.tolist(), tails)


def _trace_lines(steps):
    """trace.csv's rows, one string per block of whole steps of at most
    _FORMAT_BLOCK values (one step when a step is longer), so only one
    block's strings are alive.  Each distinct double of a block's re, im
    and diameters is formatted once, by bit pattern.  A block is one join
    on "," of its first n, then per row its index, re, im and a joiner
    "d\nn" that ends the row and starts the next (just "d\n" at the
    block's end)."""
    if not steps:
        return
    P = steps[0].values.size
    indices = [str(i) for i in range(P)]
    per = max(1, _FORMAT_BLOCK // P)
    for a in range(0, len(steps), per):
        block = steps[a:a + per]
        values = np.concatenate([s.values for s in block])
        diameters = _reprs(np.array([s.diameter for s in block], dtype=float))
        joiners = []
        for s, d, after in zip(block, diameters, [s.n for s in block[1:]] + [""]):
            joiners += [f"{d}\n{s.n}"] * (P - 1)
            joiners.append(f"{d}\n{after}")
        tokens = [str(block[0].n)] * (1 + 4 * values.size)
        tokens[1::4] = indices * len(block)
        tokens[2::4] = _reprs(values.real)
        tokens[3::4] = _reprs(values.imag)
        tokens[4::4] = joiners
        yield ",".join(tokens)


def _budget(options: dict) -> SearchBudget:
    return SearchBudget(**{key: options[key] for key in _BUDGET_SCHEMA})


def _run_bloch(options: dict):
    X = parse_domain(options["domain"])
    return _bloch_results(bloch_radius_search(X, _budget(options))), [], ()


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
    return results, [], ()


def _run_ifs(options: dict):
    X = parse_domain(options["domain"])
    seq = random_system(X, options["seed"], options["N"])
    steps, report = run(seq, probe=ProbeSpec(**options["probe"]), tol=options["tol"])
    return _engine_results(steps, report), _trace_lines(steps), seq


def _run_t7(options: dict):
    X = parse_domain(options["domain"])
    a0 = X.anchor if options["a0"] is None else complex(*options["a0"])
    w0 = point_at_intrinsic_distance(X, a0, options["distance"], options["angle"])
    seq, steps = build_nonconstant_system(X, a0, w0, options["N"])
    marked = steps[-1].marked_tilde
    engine_steps, report = run(seq, probe=ProbeSpec(marked=(marked,)))
    f_zero = compose_eval(seq, 0j)
    f_marked = compose_eval(seq, marked)
    results = {
        "a0": a0,
        "w0": w0,
        "steps": steps,
        "final": {
            "composite_at_zero": f_zero,
            "composite_at_marked": f_marked,
            "pin_error_zero": abs(f_zero - a0),
            "pin_error_marked": abs(f_marked - w0),
        },
        "engine": _engine_results(engine_steps, report),
    }
    return results, _trace_lines(engine_steps), seq


def _run_t8(options: dict):
    X = parse_domain(options["domain"])
    base = X.anchor if options["base"] is None else complex(*options["base"])
    if options["value1"] is None:
        value1 = point_at_intrinsic_distance(X, base, options["distance"], options["angle"])
    else:
        value1 = complex(*options["value1"])
    seq, steps = build_alternating_system(X, base, value1, options["N"])
    engine_steps, report = run(seq, probe=ProbeSpec(marked=(base,)))
    even_err = 0.0
    odd_err = 0.0
    for n in range(1, options["N"] + 1):
        v = compose_eval(seq[:n], base)
        if n % 2 == 0:
            even_err = max(even_err, abs(v - base))
        else:
            odd_err = max(odd_err, abs(v - value1))
    results = {
        "base": base,
        "value1": value1,
        "steps": steps,
        "alternation": {"even_error": even_err, "odd_error": odd_err},
        "engine": _engine_results(engine_steps, report),
    }
    return results, _trace_lines(engine_steps), seq


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
    heads = (f"{n},0" for n in range(1, len(orbit) + 1))
    lines = _csv_lines(heads, np.array(orbit, dtype=complex), repeat(",0.0"))
    return results, lines, [f] * len(orbit)


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
    return {"metric_comparison": metric, "preimage_convergence": preimage}, [], ()


_COMMON_KEYS = {"seed": (_check_int, 0), "out": (_check_str, "out")}
_BUDGET_SCHEMA = _schema_of(SearchBudget)
_DOMAIN_KEY = {"domain": (_check_str, _REQUIRED)}

# Each command's config keys (check, default) and its runner, which returns
# (results, trace.csv's lines, the maps behind grid.csv, () for none).
_COMMANDS = {
    "bloch": ({**_DOMAIN_KEY, **_BUDGET_SCHEMA}, _run_bloch),
    "ifs-run": (
        {
            **_DOMAIN_KEY,
            "N": (_check_int, 50),
            **_schema_of(run, skip=("probe",)),
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
            **_schema_of(denjoy_wolff),
        },
        _run_dw,
    ),
    "verify-lemmas": (
        {
            **_schema_of(metric_comparison_report),
            # the library takes a number, a config a pair
            "target": (_check_pair, [0.3, 0.0]),
            **_schema_of(preimage_convergence_report, skip=("target", "seed")),
        },
        _run_verify,
    ),
    "qc": ({**_DOMAIN_KEY, "exponent": (_check_float, 2.0), **_BUDGET_SCHEMA}, _run_qc),
}
COMMANDS = tuple(_COMMANDS)


def _grid_lines(seq):
    grid = ProbeSpec(rings=_GRID_RINGS, origin=False)
    pts = grid.points()
    img = _evaluate_grid(seq, pts)
    heads = (f"{ring},{spoke}" for ring in range(1, grid.rings + 1) for spoke in range(grid.spokes))
    tails = (f",{x!r},{y!r}" for x, y in zip(img.real.tolist(), img.imag.tolist()))
    return _csv_lines(heads, pts, tails)


def emit_outputs(out_dir, report: dict, trace_lines=(), seq=()) -> dict:
    """Write trace.csv, report.json, and grid.csv under out_dir; returns
    their paths by name."""
    out = Path(out_dir)
    paths = {
        "trace": out / "trace.csv",
        "report": out / "report.json",
        "grid": out / "grid.csv",
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(paths["trace"], "w", newline="", encoding="utf-8") as fh:
            fh.write("n,probe_index,re,im,diameter\n")
            fh.writelines(trace_lines)
        paths["report"].write_text(
            json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n",
            encoding="utf-8",
        )
        with open(paths["grid"], "w", newline="", encoding="utf-8") as fh:
            fh.write("ring,spoke,src_re,src_im,img_re,img_im\n")
            fh.writelines(_grid_lines(seq))
    except OSError as exc:
        raise PreconditionError(
            f"cannot write outputs under {str(out)!r}: {exc}"
        ) from None
    return paths


def execute(config: RunConfig) -> dict:
    """Run a validated config and write its outputs; returns the report."""
    results, trace_lines, seq = _COMMANDS[config.command][1](config.options)
    echo = json.loads(config.serialize())
    # The output directory is not part of the run semantics; dropping it
    # keeps reports byte-identical across output locations.
    echo.pop("out", None)
    report = {"command": config.command, "config": echo, "results": _encode(results)}
    emit_outputs(config.options["out"], report, trace_lines, seq)
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
