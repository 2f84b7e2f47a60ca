"""Output checks for benchmark ops, run after the timed phase.

Each check reads the files an op wrote and returns None when they are
right, or a one-line reason when they are not.  Reference values come from
closed forms, from 50-digit mpmath arithmetic, or from library calls made
independently of the CLI run.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import mpmath
import numpy as np

from diskdyn import (
    HyperbolicDisk,
    compose_eval,
    parse_domain,
    random_system,
    rho_grid,
    witness_disk_verify,
)

_MP_DIGITS = 50


def _mp_rho(z: complex, w: complex):
    with mpmath.workdps(_MP_DIGITS):
        z = mpmath.mpc(z.real, z.imag)
        w = mpmath.mpc(w.real, w.imag)
        return mpmath.atanh(abs(z - w) / abs(1 - mpmath.conj(w) * z))


def _args(spec: str) -> list:
    return [float(x) for x in spec[spec.index("(") + 1 : -1].split(",")]


def _final_values(out: Path, n: int) -> np.ndarray:
    with open(out / "trace.csv", newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if int(r["n"]) == n]
    rows.sort(key=lambda r: int(r["probe_index"]))
    return np.array([complex(float(r["re"]), float(r["im"])) for r in rows])


def _check_ifs(cfg: dict, out: Path, res: dict):
    verdict = res["verdict"]
    if verdict["kind"] != "constant_limit":
        return f"verdict {verdict['kind']}, expected constant_limit"
    if res["schwarz_max"] is None or not res["schwarz_max"] <= 1e-8:
        return f"schwarz_max {res['schwarz_max']} above 1e-8"
    n = cfg.get("N", 50)
    seq = random_system(parse_domain(cfg["domain"]), cfg.get("seed", 0), n)
    ref = complex(compose_eval(seq, 0j))
    const = complex(*verdict["constant"])
    if not abs(const - ref) <= 1e-8:
        return f"constant {const!r} differs from compose_eval(seq, 0) = {ref!r}"
    # The reported final diameter against 50-digit rho on its extreme pair,
    # and on a few fixed probe points, which cannot be farther apart.
    diameter = res["steps"][-1]["diameter"]
    if diameter is None:
        return "no final diameter"
    vals = _final_values(out, n)
    if vals.size < 2 or not np.all(np.isfinite(vals)):
        return "final step has lost probe points"
    pair = rho_grid(vals[:, None], vals[None, :])
    i, j = np.unravel_index(int(np.argmax(pair)), pair.shape)
    extreme = _mp_rho(vals[i], vals[j])
    if not abs(extreme - diameter) <= 1e-9 * diameter:
        return f"diameter {diameter!r} but 50-digit rho of its pair is {extreme}"
    fixed = (0, 1, vals.size // 2, vals.size - 1)
    worst = max(_mp_rho(vals[a], vals[b]) for a in fixed for b in fixed)
    if worst > diameter * (1 + 1e-9):
        return f"fixed probe points {worst} apart, beyond the diameter {diameter!r}"
    return None


def _check_bloch(cfg: dict, res: dict):
    spec = cfg["domain"]
    verdict = res["verdict"]
    if spec.startswith("disk("):
        cx, cy, r = _args(spec)
        c2 = cx * cx + cy * cy
        radius = 0.5 * math.atanh(2.0 * r / (1.0 - c2 + r * r))
        if not abs(verdict["value"] - radius) <= 1e-3:
            return f"radius {verdict['value']!r}, closed form {radius!r}"
    elif spec.startswith("horodisk("):
        if verdict["kind"] != "non_bloch_witness":
            return f"verdict {verdict['kind']}, expected non_bloch_witness"
        w = res["witness"]
        disk = HyperbolicDisk(complex(*w["center"]), w["radius"])
        if not witness_disk_verify(parse_domain(spec), disk, res["budget"]["witness_samples"]):
            return "witness disk fails verification on a second look"
    # The origin of the innermost puncture circle sits exactly one mesh from
    # every puncture on it, so allow rounding at that point.
    elif not res["inradius"] <= _args(spec)[0] * (1 + 1e-12):
        return f"inradius {res['inradius']!r} above the puncture mesh"
    return None


def check(cfg: dict, out: Path):
    """None when the outputs of one successful op are right, else why not."""
    res = json.loads((out / "report.json").read_text(encoding="utf-8"))["results"]
    command = cfg["command"]
    if command == "ifs-run":
        return _check_ifs(cfg, out, res)
    if command == "bloch":
        return _check_bloch(cfg, res)
    if command == "qc":
        return None if res["verdict_preserved"] else "stretch changed the verdict"
    if command == "construct-t7":
        kind = res["engine"]["verdict"]["kind"]
        pins = res["final"]["pin_error_zero"], res["final"]["pin_error_marked"]
        if not all(e is not None and e < 1e-8 for e in pins):
            return f"pin errors {pins}"
        if kind != "non_constant":
            return f"verdict {kind}, expected non_constant"
        return None
    if command == "construct-t8":
        kind = res["engine"]["verdict"]["kind"]
        errs = res["alternation"]["even_error"], res["alternation"]["odd_error"]
        if kind != "multiple_accumulation" or not all(e is not None and e < 1e-8 for e in errs):
            return f"verdict {kind}, alternation errors {errs}"
        return None
    if command == "dw":
        a, b = _args(cfg["map"])
        limit = complex(*res["limit"])
        if res["location"] != "interior" or not abs(limit - b / (1.0 - a)) <= 1e-8:
            return f"limit {limit!r} ({res['location']}), expected {b / (1.0 - a)!r}"
        return None
    if command == "verify-lemmas":
        return None if res["metric_comparison"]["domination_ok"] else "domination failed"
    raise ValueError(f"no check for command {command!r}")
