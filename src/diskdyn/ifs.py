"""Left-composition engine for sequences of disk self-maps.

A system is a list of map descriptors f_1, f_2, ...; the n-th composite
is F_n = f_1 o f_2 o ... o f_n (the newest map acts first).  The engine
evaluates all composites F_1 ... F_N on a compact probe grid of P points
in one triangular sweep (one vectorized call per map, O(N^2 P) point
evaluations), tracks rho-diameters and marked-point orbits, and
classifies the tail behavior as a constant limit, a non-constant floor,
or alternating accumulation clusters.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, PreconditionError
from .hyperbolic import Blaschke2, DiskPoint, MobiusAut, rho, rho_grid
from .sampling import ring_points

# Orbit points this close to the unit circle abort with a per-point error.
ORBIT_GUARD = 1e-14

# The prefix sweep applies a map to at most this many points per call
# (whole rows, so a row longer than this is a call of its own).  Beyond
# capping temporaries, this keeps every multi-row call below numpy's
# 256 KiB temporary-elision threshold: above it numpy reuses temporaries
# in place, and its in-place complex division rounds differently, so an
# unblocked sweep drifts from the row-by-row F_n in the last bit.
_SWEEP_BLOCK = 8192


def _construction_samples() -> np.ndarray:
    """Sample of the disk used to vet chains at construction: the origin,
    mid-depth rings, and a ring hugging the boundary."""
    pts = [np.zeros(1, dtype=complex)]
    for r in (0.5, 1.0, 2.0, 3.0):
        pts.append(ring_points(r, 24))
    angles = 2.0 * math.pi * np.arange(32) / 32
    pts.append((1.0 - 1e-9) * np.exp(1j * angles))
    return np.concatenate(pts)


_SELF_MAP_SAMPLES = _construction_samples()


def _in_target(domain, v: complex) -> bool:
    # Membership with a boundary-collapse allowance: coverings of domains
    # whose closure touches the circle send near-boundary samples to points
    # a few ulps from the target's edge, where strict membership flips on
    # rounding.  Pulling 1e-9 of the way toward the anchor settles those
    # without admitting genuinely escaping chains.
    if domain.contains(v):
        return True
    return domain.contains(v + (complex(domain.anchor) - v) * 1e-9)


@dataclass(frozen=True)
class Affine:
    """z -> scale z + offset; a disk self-map iff |scale| + |offset| <= 1."""

    scale: complex
    offset: complex

    def __post_init__(self):
        object.__setattr__(self, "scale", complex(self.scale))
        object.__setattr__(self, "offset", complex(self.offset))
        if abs(self.scale) + abs(self.offset) > 1.0:
            raise PreconditionError(
                f"affine map {self.scale!r}*z + {self.offset!r} is not a "
                "self-map of the unit disk"
            )

    def __call__(self, z):
        return self.scale * z + self.offset


@dataclass(frozen=True)
class Squaring:
    """z -> z^2."""

    def __call__(self, z):
        return z * z


@dataclass(frozen=True)
class RiemannTo:
    """Conformal parameterization piece: unit disk onto the domain."""

    domain: object

    def __post_init__(self):
        # Fails loudly at construction for entries without a parameterization.
        self.domain.riemann_to(0j)

    def __call__(self, z):
        return self.domain.riemann_to(z)


@dataclass(frozen=True)
class MapDescriptor:
    """An ordered chain of primitive pieces, applied left to right.

    With a target domain attached, construction verifies on a fixed
    deterministic sample (including a near-boundary ring) that the chain
    maps the disk into the target.  The chain is holomorphic when every
    piece is; a radial stretch piece flags itself non-holomorphic.
    """

    chain: tuple
    target: object = None

    def __post_init__(self):
        if not self.chain:
            raise PreconditionError("map descriptor needs a nonempty chain")
        object.__setattr__(self, "chain", tuple(self.chain))
        if self.target is not None:
            vals = self(_SELF_MAP_SAMPLES)
            if not bool(np.all(np.abs(vals) < 1.0)):
                raise PreconditionError("chain does not map the disk into itself")
            bad = [z for z in vals if not _in_target(self.target, complex(z))]
            if bad:
                raise PreconditionError(
                    f"chain misses its target {self.target.describe()} at "
                    f"{len(bad)} of {vals.size} sample points, e.g. {bad[0]!r}"
                )

    @property
    def holomorphic(self) -> bool:
        return all(getattr(p, "holomorphic", True) for p in self.chain)

    def __call__(self, z):
        for piece in self.chain:
            z = piece(z)
        return z


@dataclass(frozen=True)
class ProbeSpec:
    """Compact probe set: origin + polar grid in {rho(0,z) <= rho_radius},
    plus optional marked points appended at the end.

    rings = spokes = 0 with origin False declares an empty probe (vacuous
    runs produce a header-only trace)."""

    rho_radius: float = 1.2
    rings: int = 24
    spokes: int = 24
    marked: tuple = ()
    origin: bool = True

    def __post_init__(self):
        if self.rho_radius <= 0 or self.rings < 0 or self.spokes < 0:
            raise PreconditionError("probe grid needs positive radius and counts")
        if (self.rings == 0) != (self.spokes == 0):
            raise PreconditionError("probe rings and spokes must vanish together")
        object.__setattr__(
            self, "marked", tuple(complex(DiskPoint(z)) for z in self.marked)
        )

    def points(self) -> np.ndarray:
        pts = [np.zeros(1 if self.origin else 0, dtype=complex)]
        for j in range(1, self.rings + 1):
            pts.append(ring_points(self.rho_radius * j / self.rings, self.spokes))
        if self.marked:
            pts.append(np.array(self.marked, dtype=complex))
        return np.concatenate(pts)

    @property
    def marker_index(self) -> int:
        """Index of the orbit used for accumulation clustering: the first
        marked point when present, the origin otherwise."""
        return int(self.origin) + self.rings * self.spokes if self.marked else 0


@dataclass
class StepRecord:
    n: int
    values: np.ndarray
    diameter: float
    movement: float
    schwarz_slack: float
    point_errors: dict = field(default_factory=dict)


@dataclass
class IFSTrace:
    probe: ProbeSpec
    points: np.ndarray
    steps: list


@dataclass(frozen=True)
class ClusterInfo:
    representative: complex
    steps: tuple


@dataclass(frozen=True)
class IFSVerdict:
    """kind is one of constant_limit, non_constant, multiple_accumulation,
    undecided; the payload fields match the kind."""

    kind: str
    constant: complex | None = None
    diameter_floor: float | None = None
    clusters: tuple = ()


@dataclass(frozen=True)
class ConvergenceReport:
    verdict: IFSVerdict
    diameters: tuple
    movements: tuple
    schwarz_max: float


def compose_eval(seq, z, n: int | None = None) -> DiskPoint:
    """F_n(z) = f_1(f_2(... f_n(z))); the innermost map is f_n.

    n = 0 is the empty composition (identity).
    """
    n = len(seq) if n is None else int(n)
    if not 0 <= n <= len(seq):
        raise PreconditionError(f"composition length {n} exceeds sequence {len(seq)}")
    val = complex(z)
    for k in reversed(range(n)):
        val = seq[k](val)
    return DiskPoint(val)


def _guard(vals: np.ndarray, alive: np.ndarray, errors: list, k: int) -> np.ndarray:
    """Boundary guard after applying map k to a block of rows: live points
    that left the guarded disk become NaN, die in alive (updated in place),
    and get a message in their row's dict of errors."""
    bad = alive & (~np.isfinite(vals) | (1.0 - np.abs(vals) < ORBIT_GUARD))
    if not bad.any():
        return vals
    for row, idx in zip(*np.nonzero(bad)):
        errors[row][int(idx)] = f"orbit left the guarded disk applying map {k}"
    alive &= ~bad
    return np.where(bad, np.nan + 0j, vals)


def _evaluate_grid(seq, n: int, points: np.ndarray):
    """F_n on the probe grid with the boundary guard; dead points carry NaN
    and a message naming the inner step that lost them.  The later maps
    still run on those NaNs, with their invalid-value warnings silenced."""
    vals = points.astype(complex)[None]
    alive = np.ones(vals.shape, dtype=bool)
    errors: list[dict[int, str]] = [{}]
    with np.errstate(invalid="ignore", divide="ignore"):
        for k in range(n, 0, -1):
            vals = _guard(np.asarray(seq[k - 1](vals[0]), dtype=complex)[None], alive, errors, k)
    return vals[0], errors[0]


def _evaluate_prefixes(seq, N: int, points: np.ndarray):
    """Rows F_1 ... F_N on the probe grid, each with its errors, as
    _evaluate_grid gives them one n at a time.

    The newest map is innermost, so F_n cannot reuse the values of F_{n-1}.
    The sweep runs k = N down to 1 instead: row k - 1 starts at the points,
    then one vectorized call applies f_k to every row n >= k, in blocks of
    at most _SWEEP_BLOCK points.
    """
    P = points.size
    vals = np.empty((N, P), dtype=complex)
    alive = np.ones((N, P), dtype=bool)
    errors: list[dict[int, str]] = [{} for _ in range(N)]
    step = max(1, _SWEEP_BLOCK // P)
    with np.errstate(invalid="ignore", divide="ignore"):  # maps on lost (NaN) points
        for k in range(N, 0, -1):
            vals[k - 1] = points
            for a in range(k - 1, N, step):
                b = min(a + step, N)
                block = np.asarray(seq[k - 1](vals[a:b].ravel()), dtype=complex)
                vals[a:b] = _guard(block.reshape(b - a, P), alive[a:b], errors[a:b], k)
    return vals, errors


def _masked_pair_max(matrix: np.ndarray, valid: np.ndarray) -> float:
    sub = matrix[np.ix_(valid, valid)]
    return float(np.max(sub)) if sub.size else math.nan


def run(seq, probe: ProbeSpec | None = None, n_steps: int | None = None, tol: float = 1e-8):
    """Evaluate F_1 ... F_N on the probe grid and classify the tail.

    Returns (IFSTrace, ConvergenceReport).  Every step records the
    rho-diameter of the probe image, the movement against the previous
    step, and (for holomorphic chains) the Schwarz-Pick slack, which must
    stay at rounding level.  The composites come from one triangular sweep:
    N vectorized map calls (more when N P exceeds _SWEEP_BLOCK) and
    N (N + 1) / 2 point evaluations per probe point.
    """
    probe = probe or ProbeSpec()
    N = len(seq) if n_steps is None else int(n_steps)
    if N < 1 or N > len(seq):
        raise PreconditionError(f"step count {N} not in 1..{len(seq)}")
    pts = probe.points()
    if pts.size == 0:
        # Vacuous probe: nothing to evaluate, nothing to decide.
        verdict = IFSVerdict(kind="undecided")
        return IFSTrace(probe, pts, []), ConvergenceReport(verdict, (), (), math.nan)
    holomorphic = all(d.holomorphic for d in seq[:N])
    base_pairs = rho_grid(pts[:, None], pts[None, :])
    rows, row_errors = _evaluate_prefixes(seq, N, pts)

    records: list[StepRecord] = []
    prev_vals = pts
    for n in range(1, N + 1):
        vals = rows[n - 1]
        valid = np.isfinite(vals)
        if valid.sum() >= 2:
            pair = rho_grid(vals[:, None], vals[None, :])
            diameter = _masked_pair_max(pair, valid)
        else:
            pair = None
            diameter = math.nan

        both = valid & np.isfinite(prev_vals)
        movement = float(np.max(rho_grid(vals[both], prev_vals[both]))) if both.any() else math.nan

        slack = math.nan
        if holomorphic and pair is not None:
            diffs = pair - base_pairs
            slack = _masked_pair_max(diffs, valid)
            if slack > 1e-8:
                raise NumericError(
                    f"contraction violated by holomorphic chain at step {n}: "
                    f"slack {slack!r}"
                )

        records.append(
            StepRecord(
                n=n,
                values=vals,
                diameter=diameter,
                movement=movement,
                schwarz_slack=slack,
                point_errors=row_errors[n - 1],
            )
        )
        prev_vals = vals

    report = ConvergenceReport(
        verdict=_classify(records, probe.marker_index, tol),
        diameters=tuple(r.diameter for r in records),
        movements=tuple(r.movement for r in records),
        schwarz_max=max((r.schwarz_slack for r in records if not math.isnan(r.schwarz_slack)), default=math.nan),
    )
    return IFSTrace(probe=probe, points=pts, steps=records), report


def _single_linkage(values: list, threshold: float) -> list[list[int]]:
    """Indices grouped by transitive rho-closeness below threshold."""
    parent = list(range(len(values)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if rho(values[i], values[j]) < threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(len(values)):
        groups.setdefault(find(i), []).append(i)
    return [groups[k] for k in sorted(groups)]


def _classify(records: list, marker_index: int, tol: float) -> IFSVerdict:
    # Constant limit: diameter and movement both under tol, sustained for
    # the last 5 steps; the constant must explain every live probe value.
    tail = records[-5:]
    if len(tail) == 5 and all(
        not math.isnan(r.diameter)
        and not math.isnan(r.movement)
        and r.diameter < tol
        and r.movement < tol
        for r in tail
    ):
        final = records[-1].values
        live = final[np.isfinite(final)]
        constant = complex(np.mean(live))
        if float(np.max(rho_grid(constant, live))) < tol:
            return IFSVerdict("constant_limit", constant=constant)

    # Alternation: cluster the marked-point orbit over the last <= 12 steps;
    # parity-pure clusters for both parities signal two accumulation limits.
    # A one-step cluster is parity-pure by default (a drifting orbit splits
    # into nothing but those), so every cluster must hold at least two steps.
    window = records[-12:]
    orbit = [(r.n, complex(r.values[marker_index])) for r in window
             if np.isfinite(r.values[marker_index])]
    if len(orbit) >= 4:
        groups = _single_linkage([v for _, v in orbit], 10.0 * tol)
        if len(groups) >= 2 and all(len(g) >= 2 for g in groups):
            pure = all(len({orbit[i][0] % 2 for i in g}) == 1 for g in groups)
            parities = {orbit[g[0]][0] % 2 for g in groups}
            if pure and parities == {0, 1}:
                clusters = tuple(
                    ClusterInfo(
                        representative=orbit[g[0]][1],
                        steps=tuple(orbit[i][0] for i in g),
                    )
                    for g in groups
                )
                return IFSVerdict("multiple_accumulation", clusters=clusters)

    # A floor needs every step measured: once the guard has lost the tail,
    # nothing bounds the diameters of the later composites.
    diams = [r.diameter for r in records]
    if all(math.isfinite(d) for d in diams) and min(diams) >= 10.0 * tol:
        return IFSVerdict("non_constant", diameter_floor=min(diams))
    return IFSVerdict("undecided")


def denjoy_wolff(f: MapDescriptor, z0, n_steps: int = 1000, tol: float = 1e-10):
    """Iterate a non-automorphism self-map from z0 to its constant limit.

    Returns (limit, classification, orbit) with classification "interior"
    or "boundary" decided by |limit| against 1 - tol; boundary limits are
    snapped to the unit circle.  orbit holds the iterates f(z0), f(f(z0)),
    ... up to the one that stopped the iteration.  Raises when the orbit has not become a
    Cauchy sequence within n_steps (an undecided run), and rejects a
    chain that is a single disk automorphism outright.
    """
    if len(f.chain) == 1 and isinstance(f.chain[0], MobiusAut):
        raise PreconditionError(
            "a conformal automorphism has no Denjoy-Wolff limit in general"
        )
    z = complex(DiskPoint(z0))
    orbit = []
    for _ in range(int(n_steps)):
        w = complex(f(z))
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise NumericError(f"orbit of {z0!r} left the numeric range")
        orbit.append(w)
        if 1.0 - abs(w) < ORBIT_GUARD:
            return w / abs(w), "boundary", tuple(orbit)
        if abs(w - z) < tol:
            break
        z = w
    else:
        raise NumericError(
            f"orbit of {z0!r} is undecided: no Cauchy convergence in {n_steps} steps"
        )
    if 1.0 - abs(w) < tol:
        return w / abs(w), "boundary", tuple(orbit)
    return w, "interior", tuple(orbit)


def random_system(X, seed: int, count: int) -> list[MapDescriptor]:
    """Seeded random maps into X: each is (automorphism or degree-two
    Blaschke) followed by the parameterization of X, so the image lies in
    X by construction."""
    rng = random.Random(seed)
    out = []
    for _ in range(int(count)):
        radius = 0.15 + 0.55 * rng.random()
        angle = rng.uniform(0.0, 2.0 * math.pi)
        a = radius * complex(math.cos(angle), math.sin(angle))
        if rng.random() < 0.5:
            inner = MobiusAut(a, rng.uniform(0.0, 2.0 * math.pi))
        else:
            inner = Blaschke2(a)
        out.append(MapDescriptor((inner, RiemannTo(X)), target=X))
    return out
