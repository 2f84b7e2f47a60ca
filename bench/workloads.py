"""Seeded config generation for the benchmark workloads.

A workload is a fixed cycle of op kinds.  The timed loop runs whole cycles,
so every run sees the same mix of kinds whatever its speed.  The parameters
of the c-th config of a kind come from a Halton point with a per-seed random
shift: any prefix of the sequence covers the full parameter ranges evenly,
which keeps run-to-run spread low without narrowing the ranges.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

_PRIMES = (2, 3, 5, 7, 11)


def _radical_inverse(i: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while i > 0:
        inv += f * (i % base)
        i //= base
        f /= base
    return inv


def _halton(index: int, shift: tuple) -> list:
    return [
        (_radical_inverse(index + 1, base) + s) % 1.0
        for base, s in zip(_PRIMES, shift)
    ]


def _horodisk(u_angle: float, u_size: float) -> str:
    # Tangency over the whole circle; size in [0.3, 0.7].
    return f"horodisk({2.0 * math.pi * u_angle:.6f},{0.3 + 0.4 * u_size:.6f})"


def _disk(u_angle: float, u_offset: float, u_radius: float) -> str:
    # |center| <= 0.3 and radius in [0.2, 0.5]: closure well inside the
    # unit disk and metric radius below the search's witness threshold.
    c = 0.3 * u_offset * complex(math.cos(2.0 * math.pi * u_angle), math.sin(2.0 * math.pi * u_angle))
    return f"disk({c.real:.6f},{c.imag:.6f},{0.2 + 0.3 * u_radius:.6f})"


def _rdense(u_mesh: float, u_depth: float) -> str:
    # Mesh in [0.4, 0.8] and depth in [2, 3]: at least two puncture circles.
    return f"rdense({0.4 + 0.4 * u_mesh:.6f},{2.0 + u_depth:.6f})"


def _ifs(domain: str, rng: random.Random, deep: bool) -> dict:
    cfg = {"command": "ifs-run", "domain": domain, "seed": rng.randrange(2**31)}
    if deep:
        cfg["N"] = 300
        cfg["probe"] = {"rings": 4, "spokes": 8}
    return cfg


def _affine(u, rng):
    a = 0.2 + 0.6 * u[0]
    b = 0.9 * (1.0 - a) * (2.0 * u[1] - 1.0)
    z0 = 0.9 * u[2] * complex(math.cos(2.0 * math.pi * u[3]), math.sin(2.0 * math.pi * u[3]))
    return {"command": "dw", "map": f"affine({a:.6f},{b:.6f})", "z0": [z0.real, z0.imag]}


def _lemmas(u, rng):
    t = (0.1 + 0.5 * u[3]) * complex(math.cos(2.0 * math.pi * u[4]), math.sin(2.0 * math.pi * u[4]))
    return {
        "command": "verify-lemmas",
        "bounds": [1.5 + u[0], 3.0 + 2.0 * u[1], 6.0 + 4.0 * u[2]],
        "target": [t.real, t.imag],
        "seed": rng.randrange(2**31),
    }


def _pick(u: float, values: tuple):
    return values[int(u * len(values))]


# construct's builders run on fixed grids of parameters, each point of which
# passes its output check today (verify_grids.py runs them all).  The
# builders fail at scattered points off these grids (see KNOWN_DEFECTS), and
# a benchmark op must not fail.  t7 keeps the tangency at 1 and varies the
# size, the distance and the direction of the marked point; t8 varies the
# tangency over the whole circle, the size, and N up to 20.
EIGHTHS = tuple(round(k * math.pi / 4.0, 6) for k in range(8))
# Kind -> the values its u[0], u[1] and u[2] pick from.
GRIDS = {
    "t7": ((0.3, 0.4, 0.45, 0.5, 0.55, 0.6), (0.1, 0.2, 0.3), EIGHTHS),
    "t8": (EIGHTHS, (0.3, 0.4, 0.5, 0.6, 0.7), (12, 14, 16, 18, 20)),
}


def _t7(u, rng):
    size, distance, angle = (_pick(x, values) for x, values in zip(u, GRIDS["t7"]))
    return {"command": "construct-t7", "domain": f"horodisk(0,{size})", "distance": distance, "angle": angle}


def _t8(u, rng):
    tangency, size, steps = (_pick(x, values) for x, values in zip(u, GRIDS["t8"]))
    return {"command": "construct-t8", "domain": f"horodisk({tangency},{size})", "N": steps}


# Kind name -> maker(u, rng) -> config; u holds five numbers in [0, 1).
KINDS = {
    "ifs_wide_horodisk": lambda u, rng: _ifs(_horodisk(u[0], u[1]), rng, False),
    "ifs_wide_disk": lambda u, rng: _ifs(_disk(u[0], u[1], u[2]), rng, False),
    "ifs_deep_horodisk": lambda u, rng: _ifs(_horodisk(u[0], u[1]), rng, True),
    "ifs_deep_disk": lambda u, rng: _ifs(_disk(u[0], u[1], u[2]), rng, True),
    "bloch_disk": lambda u, rng: {"command": "bloch", "domain": _disk(u[0], u[1], u[2])},
    "bloch_horodisk": lambda u, rng: {"command": "bloch", "domain": _horodisk(u[0], u[1])},
    "bloch_rdense": lambda u, rng: {"command": "bloch", "domain": _rdense(u[0], u[1])},
    "qc_disk": lambda u, rng: {
        "command": "qc", "domain": _disk(u[0], u[1], u[2]), "exponent": 1.5 + 1.5 * u[3]
    },
    "qc_horodisk": lambda u, rng: {
        "command": "qc", "domain": _horodisk(u[0], u[1]), "exponent": 1.5 + 1.5 * u[3]
    },
    "qc_rdense": lambda u, rng: {
        "command": "qc", "domain": _rdense(u[0], u[1]), "exponent": 1.5 + 1.5 * u[3]
    },
    "t7": _t7,
    "t8": _t8,
    "dw": _affine,
    "lemmas": _lemmas,
}


# Configs on which the program fails today, kept out of the timed ops and
# run once after them so that the failures stay in view: (config, exit code,
# text the failure contains).  Exit 0 means the output check fails.  The
# first five are the MapDescriptor vetting defect: a chain whose sample ring
# rounds onto the unit circle is rejected, at some tangency angles and even
# at some sizes of a horodisk tangent at 1.  Then t7's start point rounding
# onto the circle, and the engine's _classify defect: drifting t7 marker
# orbits form singleton clusters that pass the parity test.
KNOWN_DEFECTS = (
    ({"command": "construct-t7", "domain": "horodisk(0.5,0.5)"}, 2, "chain does not map the disk into itself"),
    ({"command": "construct-t7", "domain": "horodisk(2,0.5)"}, 2, "chain does not map the disk into itself"),
    ({"command": "construct-t7", "domain": "horodisk(1,0.7)"}, 2, "chain does not map the disk into itself"),
    ({"command": "construct-t7", "domain": "horodisk(0,0.35)"}, 2, "chain does not map the disk into itself"),
    ({"command": "construct-t8", "domain": "horodisk(0,0.5)", "N": 31}, 2, "chain does not map the disk into itself"),
    ({"command": "construct-t7", "domain": "horodisk(0,0.4)", "distance": 0.5, "angle": 0.0}, 2,
     "is not strictly inside the unit disk"),
    ({"command": "construct-t7", "domain": "horodisk(0,0.7)"}, 0, "verdict multiple_accumulation, expected non_constant"),
)


@dataclass(frozen=True)
class Workload:
    """cycle: op kinds of one cycle; tail: the percentile reported as
    op_s_tail, chosen so a run at today's speed keeps at least ten
    successful ops above it; defects: whether the run also replays
    KNOWN_DEFECTS."""

    cycle: tuple
    tail: int
    defects: bool = False


# Cycle weights keep op_s_p50 and op_s_tail inside one op kind's block of
# latencies rather than in a gap between kinds, where a one-op shift in the
# mix would move them a lot.  The two ifs kinds have overlapping latencies,
# so their cycles are balanced; on search it falls among bloch on horodisks (witness
# certification) and the tail among qc on disks and horodisks (boundary
# curve scans); on construct both fall among the t7 and t8 builders.  The
# ifs workloads complete few ops a run, so their tails sit low: ifs_deep
# has no percentile above the median with ten ops beyond.
WORKLOADS = {
    "ifs_wide": Workload(("ifs_wide_horodisk", "ifs_wide_disk"), 55),
    "ifs_deep": Workload(("ifs_deep_horodisk", "ifs_deep_disk"), 50),
    "search": Workload(
        ("bloch_disk", "bloch_horodisk", "bloch_disk", "qc_disk", "bloch_rdense",
         "bloch_disk", "bloch_horodisk", "bloch_disk", "qc_horodisk", "qc_rdense"),
        95,
    ),
    "construct": Workload(
        ("t7", "t8", "t8", "dw", "t8", "t7", "t8", "t8", "lemmas", "t8"), 80, defects=True
    ),
}


# Configs generated per run; a run that needs more cycles reuses them in order.
POOL_CYCLES = 64


def generate(workload: str, seed: int) -> list:
    """The seeded config pool of a workload: POOL_CYCLES lists of (kind, config)."""
    counters = {}
    for kind in set(WORKLOADS[workload].cycle):
        rng = random.Random(f"{seed}:{kind}")
        counters[kind] = [0, tuple(rng.random() for _ in _PRIMES), rng]
    pool = []
    for _ in range(POOL_CYCLES):
        ops = []
        for kind in WORKLOADS[workload].cycle:
            state = counters[kind]
            ops.append((kind, KINDS[kind](_halton(state[0], state[1]), state[2])))
            state[0] += 1
        pool.append(ops)
    return pool
