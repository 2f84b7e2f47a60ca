"""Left-composition engine for sequences of disk self-maps.

A system is a list of map descriptors f_1, f_2, ...; the n-th composite
is F_n = f_1 o f_2 o ... o f_n (the newest map acts first).  The engine
evaluates all composites F_1 ... F_N on a compact probe grid of P points
in one triangular sweep (one or two vectorized calls per map), tracks
rho-diameters and marked-point orbits, and classifies the tail behavior
as a constant limit, a non-constant floor, or alternating accumulation
clusters.  The sweep's O(N^2 P) point evaluations hold only until rows
collapse: a row that has become one double is carried as one point.

Each step's diameter and Schwarz-Pick slack come from one pass over the
probe's pairs of tiles of nearby points.  It bounds each pair of tiles
first and evaluates only those that can hold the step's maximum or a pair
that grew, so both numbers are the full matrix's over the live points, to
the bit; a step collapsed to one point evaluates none.  A lost probe point
is NaN, its only record, and its pairs drop out of every maximum.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, PreconditionError
from .hyperbolic import (
    Blaschke2, MobiusAut, _coords, _sinh2, disk_point, inside, rho, rho_of, sinh2_rho
)
from .sampling import ring_points

# Orbit points this close to the unit circle are lost: they become NaN, and
# the later maps, whose arithmetic carries NaN to NaN, keep them NaN.
ORBIT_GUARD = 1e-14

# The largest double a with 1.0 - a >= ORBIT_GUARD.  1.0 - a rounds
# monotonically, so |z| <= _ORBIT_LIMIT holds exactly where the guard's
# 1.0 - |z| >= ORBIT_GUARD does, and neither holds for NaN or inf.
_ORBIT_LIMIT = 0.9999999999999899

# The prefix sweep applies a map to at most this many points per call
# (whole rows, so a row longer than this is a call of its own, or the one
# point of each of as many collapsed rows).  Beyond capping temporaries,
# this keeps every multi-row call below numpy's 256 KiB
# temporary-elision threshold: above it numpy reuses temporaries
# in place, and its in-place complex division rounds differently, so an
# unblocked sweep drifts from the row-by-row F_n in the last bit.
_SWEEP_BLOCK = 8192

# The pair pass takes sinh^2 rho of at most this many pairs per call
# (whole tile pairs, so a larger one is a call of its own); 8192 and 32768
# timed alike, and 8192 keeps temporaries at 64 KB.  A probe whose pairs
# exceed one call is cut into tiles of _TILE nearby points.
_PAIR_BLOCK = 8192
_TILE = 16

# ProbeSpec refuses a probe of more points than this: `run` holds sinh^2
# rho of the pairs of tiles s <= t, T (T + 1) / 2 S^2 doubles for T tiles
# of S points, about 4 P^2 bytes, so about 0.4 GB here.
MAX_PROBE_POINTS = 10_000


@dataclass(frozen=True)
class Affine:
    """z -> scale z + offset; a disk self-map iff |scale| + |offset| <= 1."""

    scale: complex
    offset: complex

    def __post_init__(self):
        object.__setattr__(self, "scale", complex(self.scale))
        object.__setattr__(self, "offset", complex(self.offset))
        if not abs(self.scale) + abs(self.offset) <= 1.0:
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


# Pieces that map the disk into itself whenever their constructor accepts them.
_SELF_MAPS = (MobiusAut, Blaschke2, Affine, Squaring)


@dataclass(frozen=True)
class MapDescriptor:
    """An ordered chain of primitive pieces, applied left to right.

    A map into a target domain X is a chain of disk self-maps validated
    when they were built (MobiusAut, Blaschke2, Affine, Squaring) followed
    by X's parameterization `riemann_to`: it maps the disk into X by
    construction.  A target with any other piece in the chain is
    rejected, and so is a target with no parameterization.
    """

    chain: tuple
    target: object = None

    def __post_init__(self):
        if not self.chain:
            raise PreconditionError("map descriptor needs a nonempty chain")
        object.__setattr__(self, "chain", tuple(self.chain))
        if self.target is None:
            return
        if not all(isinstance(p, _SELF_MAPS) for p in self.chain):
            raise PreconditionError(
                f"a map into {self.target.describe()} must chain disk self-maps "
                "(MobiusAut, Blaschke2, Affine, Squaring)"
            )
        # Fails loudly at construction for entries without a parameterization.
        self.target.riemann_to(0j)

    def __call__(self, z):
        for piece in self.chain:
            z = piece(z)
        return z if self.target is None else self.target.riemann_to(z)


@dataclass(frozen=True)
class ProbeSpec:
    """Compact probe set: origin + polar grid in {rho(0,z) <= rho_radius},
    plus optional marked points appended at the end.  Every point must
    pass `hyperbolic.inside`, and there are at most MAX_PROBE_POINTS.

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
        count = self.rings * self.spokes + int(self.origin) + len(self.marked)
        if count > MAX_PROBE_POINTS:
            raise PreconditionError(
                f"a probe of {count} points exceeds the limit of {MAX_PROBE_POINTS} "
                f"points ({4 * MAX_PROBE_POINTS**2 / 1e9:.1f} GB of pair tiles)"
            )
        object.__setattr__(self, "marked", tuple(map(disk_point, self.marked)))
        if not inside(self.points()).all():
            raise PreconditionError(
                f"probe rings out to rho_radius {self.rho_radius!r} leave the unit disk"
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
    """Step n of a run: the values F_n on the probe grid and their
    statistics over the live points.  values[i] is NaN once the boundary
    guard has lost probe point i."""

    n: int
    values: np.ndarray
    diameter: float
    movement: float
    schwarz_slack: float


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
    schwarz_max: float


def compose_eval(seq, z) -> complex:
    """f_1(f_2(... f_n(z))) for seq = (f_1, ..., f_n), the innermost map
    f_n; F_n(z) is compose_eval(seq[:n], z), and an empty seq the identity."""
    val = complex(z)
    for f in reversed(seq):
        val = f(val)
    return disk_point(val)


def _guard(vals) -> np.ndarray:
    """What a map returned, as a complex array under the boundary guard:
    points that left the guarded disk, NaN ones included, become NaN."""
    vals = np.asarray(vals, dtype=complex)
    # `inside(vals, ORBIT_GUARD)` in numpy's complex abs, which is several
    # times faster than hypot on a sweep block.  Its last bit can differ
    # from `modulus`, so a point within an ulp or two of the guard may be
    # lost here and inside there: the engine's lost set is its own.  The
    # abs gives a point the same bits alone, at any offset and in any
    # block, so the lost set does not depend on the block layout.  The
    # comparison with _ORBIT_LIMIT is the guard's in one pass, and negated
    # it is also true for NaN and inf.
    bad = ~(np.abs(vals) <= _ORBIT_LIMIT)
    if not bad.any():
        return vals
    return np.where(bad, np.nan + 0j, vals)


def _evaluate_grid(seq, points: np.ndarray) -> np.ndarray:
    """The composite of seq on the probe grid with the boundary guard: NaN
    at the points it lost, and the points themselves for an empty seq.
    The later maps still run on those NaNs, with their invalid-value
    warnings silenced."""
    vals = points.astype(complex)
    with np.errstate(invalid="ignore", divide="ignore"):
        for f in reversed(seq):
            vals = _guard(f(vals))
    return vals


def _evaluate_prefixes(seq, points: np.ndarray) -> np.ndarray:
    """Rows F_1 ... F_N on the probe grid for the N maps of seq, row n - 1
    as _evaluate_grid(seq[:n], points) gives it.

    The newest map is innermost, so F_n cannot reuse the values of F_{n-1}.
    The sweep runs k = N down to 1 instead: row k - 1 starts at the points,
    then one vectorized call applies f_k to the block of every row n >= k,
    in blocks of whole rows of at most _SWEEP_BLOCK points.  Every map
    acts elementwise, so a 2-D block gives each point the bits it gets in
    a row of its own.

    A row whose P values are one bit pattern (as int64, so 0.0 and -0.0
    differ and a lost row of NaN is one) stays one, so it is carried as
    one point: rows m .. N - 1 all are, and f_k goes to their column 0
    alone, in calls of at most _SWEEP_BLOCK points.  After each stage m
    moves down while row m - 1 is one pattern, and at the end column 0
    fills those rows.  The N (N + 1) / 2 evaluations per probe point thus
    hold only until rows collapse; a collapsed row costs one point a map.
    """
    N, P = len(seq), points.size
    vals = np.empty((N, P), dtype=complex)
    bits = vals.view(np.int64).reshape(N, P, 2)
    step, m = max(1, _SWEEP_BLOCK // P), N
    with np.errstate(invalid="ignore", divide="ignore"):  # maps on lost (NaN) points
        for k in range(N, 0, -1):
            vals[k - 1] = points
            for a in range(k - 1, m, step):
                b = min(a + step, m)
                vals[a:b] = _guard(seq[k - 1](vals[a:b]))
            for a in range(m, N, _SWEEP_BLOCK):
                b = min(a + _SWEEP_BLOCK, N)
                vals[a:b, 0] = _guard(seq[k - 1](vals[a:b, 0]))
            while m >= k and (bits[m - 1] == bits[m - 1, :1]).all():
                m -= 1
    vals[m:] = vals[m:, :1]
    return vals


def _probe_tiles(pts: np.ndarray):
    """The probe cut into tiles of nearby points (row s of tiles indexes
    tile s), the packed pairs of tiles s <= t, base[_tile_pair(s, t, T)][a,
    b] = sinh^2 rho(tiles[s, a], tiles[t, b]), and floors[s, t] = the
    least of that tile pair, +inf for s > t.  P points with P^2 <=
    _PAIR_BLOCK are one tile; more are split along the wider coordinate,
    recursively, at the multiple of _TILE next above the median, and the
    one short tile repeats its points.  A point paired with itself
    computes 0.0 and never grows, so base reads +inf there and it lowers
    no floor."""
    def split(idx):
        if idx.size <= _TILE:
            return [idx]
        x, y = pts[idx].real, pts[idx].imag
        idx = idx[np.argsort(x if np.ptp(x) >= np.ptp(y) else y, kind="stable")]
        h = _TILE * -(-idx.size // (2 * _TILE))
        return split(idx[:h]) + split(idx[h:])

    idx = np.arange(pts.size)
    tiles = idx[None] if pts.size**2 <= _PAIR_BLOCK else np.array([np.resize(g, _TILE) for g in split(idx)])
    T, S = tiles.shape
    # Probe points are inside the disk, so `_sinh2` gives sinh2_rho's bits.
    c = _coords(pts[tiles])
    base = np.empty((T * (T + 1) // 2, S, S))
    for s in range(T):
        o = _tile_pair(s, s, T)
        base[o:o + T - s] = _sinh2([k[s, :, None] for k in c], [k[s:, None] for k in c])
        base[o][tiles[s, :, None] == tiles[s]] = np.inf
    floors = np.full((T, T), np.inf)
    floors[np.triu_indices(T)] = base.min(axis=(1, 2))
    return tiles, base, floors


def _tile_pair(s, t, T):
    """Where the pair of tiles s <= t of T sits in `_probe_tiles`' packed
    base: row s of tile pairs starts at s T - s (s - 1) / 2."""
    return s * T - s * (s - 1) // 2 + t - s


def _pair_pass(coords: tuple, base: np.ndarray, tiles=None, floors=0.0):
    """The largest sinh^2 rho over pairs of live points of each row, and
    its Schwarz-Pick slack, the largest growth rho(F z_i, F z_j) -
    rho(z_i, z_j) over them (0.0 if none grew), as arrays of the rows'
    shape.  coords are the `_coords` of rows of P values, NaN at lost
    points; tiles, base and floors are `_probe_tiles`', or one tile, a
    P x P base and no floor.  Only base's tile pairs s <= t are read.

    Each tile pair s <= t of a row is bounded first: `_sinh2` on the widest
    coordinate differences of the two tiles' live boxes and on their least
    gaps.  Rounding is monotone, so no pair of them computes above it.  The
    tiles' first points give real pairs, whose largest bounds the row's
    maximum below.  Only tile pairs bounded above that or their floor are
    evaluated.  A skipped one holds the maximum only if it equals the lower
    bound, and none of its pairs grew: both numbers are the full matrix's,
    to the bit.  A collapsed row bounds every tile pair by 0.0.  A pair
    with a lost point is NaN: fmax skips it and it never compares as grown.
    Bounds and pairs go in calls of at most _PAIR_BLOCK of them.
    """
    if tiles is None:
        tiles = np.arange(coords[0].shape[-1])[None]
    T, S = tiles.shape
    blocks, shape = base.reshape(-1, S, S), coords[0].shape[:-1]
    rows = [np.reshape(k, (-1, k.shape[-1])) for k in coords]
    q_max, slack = np.empty(len(rows[0])), np.zeros(len(rows[0]))
    per, step = max(1, _PAIR_BLOCK // max(T * T, tiles.size)), max(1, _PAIR_BLOCK // S**2)
    for r0 in range(0, len(q_max), per):
        c = np.array([k[r0:r0 + per, tiles] for k in rows])
        # A lost point's gap is NaN, its other coordinates need not be.
        box = np.where(np.isnan(c[2]), np.nan, c)
        lo, hi = np.fmin.reduce(box, axis=3), np.fmax.reduce(box[:2], axis=3)
        wide = np.maximum(hi[..., :, None] - lo[:2, :, None], hi[..., None, :] - lo[:2, ..., None])
        bound = _sinh2((*wide, lo[2, ..., None]), (0.0, 0.0, lo[2, :, None]))
        low = np.fmax.reduce(_sinh2(c[..., 0, None], c[:, :, None, :, 0]), axis=(1, 2), initial=0.0)
        q_max[r0:r0 + per] = low
        r, s, t = np.nonzero(np.triu(bound > np.minimum(floors, low[:, None, None])))
        for a in range(0, r.size, step):
            k, i, j = r[a:a + step], s[a:a + step], t[a:a + step]
            q, q_base = _sinh2(c[:, k, i, :, None], c[:, k, j, None]), blocks[_tile_pair(i, j, T)]
            np.fmax.at(q_max, r0 + k, np.fmax.reduce(q, axis=(1, 2)))
            # Only pairs that moved apart need distances.
            grown = q > q_base
            if not grown.any():
                continue
            k = np.broadcast_to(k[:, None, None], q.shape)[grown]
            np.maximum.at(slack, r0 + k, np.arcsinh(np.sqrt(q[grown])) - np.arcsinh(np.sqrt(q_base[grown])))
    return q_max.reshape(shape), slack.reshape(shape)


def run(seq, probe: ProbeSpec | None = None, tol: float = 1e-8):
    """Evaluate F_1 ... F_N for the N >= 1 maps of seq on the probe grid
    and classify the tail with tolerance tol > 0; a run of the first n
    maps is run(seq[:n]).

    Returns (steps, ConvergenceReport), one StepRecord per n.  Every step
    records, over its live points, the rho-diameter of the probe image,
    the movement against the previous step, and the Schwarz-Pick slack,
    which must stay at rounding level.  The composites come from one
    triangular sweep of N stages, each one vectorized map call over the
    rows that have not collapsed and one over the column of those that
    have (more when either exceeds _SWEEP_BLOCK points).  It makes
    N (N + 1) / 2 point evaluations per probe point until rows collapse to
    one double; each collapsed row then costs one point a map.
    The coordinates and gaps of every step are computed once; they feed
    the movements and one `_pair_pass` over all steps, on the probe's
    `_probe_tiles`: it evaluates only the pairs of tiles that can hold a
    step's maximum or a pair that grew, and a collapsed step none, and
    gives the full matrix's numbers, bit for bit.
    """
    if not seq:
        raise PreconditionError("a run needs at least one map")
    if not tol > 0:
        raise PreconditionError(f"tol must be > 0, got {tol!r}")
    probe = probe or ProbeSpec()
    pts = probe.points()
    if pts.size == 0:
        # Vacuous probe: nothing to evaluate, nothing to decide.
        return [], ConvergenceReport(IFSVerdict(kind="undecided"), math.nan)
    tiles, base, floors = _probe_tiles(pts)
    rows = _evaluate_prefixes(seq, pts)
    coords = _coords(rows)
    q_maxes, slacks = _pair_pass(coords, base, tiles, floors)
    lives = np.count_nonzero(~np.isnan(rows), axis=1)

    records: list[StepRecord] = []
    prev = _coords(pts)
    for n, (vals, q_max, slack, live, *cur) in enumerate(zip(rows, q_maxes, slacks, lives, *coords), 1):
        diameter, slack = (rho_of(q_max), float(slack)) if live >= 2 else (math.nan, math.nan)
        if slack > 1e-8:
            raise NumericError(
                f"contraction violated by holomorphic chain at step {n}: "
                f"slack {slack!r}"
            )

        # NaN when no point is live at both steps.
        movement = rho_of(np.fmax.reduce(_sinh2(cur, prev)))
        records.append(StepRecord(n, vals, diameter, movement, slack))
        prev = cur

    report = ConvergenceReport(
        verdict=_classify(records, probe.marker_index, tol),
        schwarz_max=max((r.schwarz_slack for r in records if not math.isnan(r.schwarz_slack)), default=math.nan),
    )
    return records, report


def _single_linkage(values: list, threshold: float) -> list[list[int]]:
    """Indices grouped by transitive rho-closeness below threshold, each
    group in index order and the groups in the order of their first index.

    Label propagation: each point starts labelled with its index, then
    takes the least label among its own and its near points' for
    len(values) rounds, as a label spreads one link a round.  np.minimum
    keeps the own label: a threshold <= 0 leaves the diagonal not near.
    """
    n = len(values)
    near = np.fromiter((rho(a, b) < threshold for a in values for b in values), bool).reshape(n, n)
    labels = np.arange(n)
    for _ in range(n):
        labels = np.minimum(labels, np.where(near, labels, n).min(axis=1, initial=n))
    # A group's label is its least index, the one point that keeps its own.
    return [np.flatnonzero(labels == k).tolist() for k in range(n) if labels[k] == k]


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
        values = records[-1].values
        live = values[~np.isnan(values)]
        constant = complex(np.mean(live))
        if rho_of(np.max(sinh2_rho(constant, live))) < tol:
            return IFSVerdict("constant_limit", constant=constant)

    # Alternation: cluster the marked-point orbit over the last <= 12 steps;
    # parity-pure clusters for both parities signal two accumulation limits.
    # A one-step cluster is parity-pure by default (a drifting orbit splits
    # into nothing but those), so every cluster must hold at least two steps.
    window = records[-12:]
    orbit = [(r.n, complex(r.values[marker_index])) for r in window
             if not np.isnan(r.values[marker_index])]
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
    Cauchy sequence within n_steps (an undecided run).  Rejects outright
    a step count below 1 and a chain of disk automorphisms (MobiusAut, or
    Affine with |scale| = 1) with no target, and a tol that is not > 0.
    """
    if not tol > 0:
        raise PreconditionError(f"tol must be > 0, got {tol!r}")
    if n_steps < 1:
        raise PreconditionError(f"need at least one step, got n_steps = {n_steps!r}")
    if f.target is None and all(
        isinstance(p, MobiusAut) or (isinstance(p, Affine) and abs(p.scale) == 1.0)
        for p in f.chain
    ):
        raise PreconditionError(
            "a conformal automorphism has no Denjoy-Wolff limit in general"
        )
    z = disk_point(z0)
    orbit = []
    for _ in range(int(n_steps)):
        w = complex(f(z))
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise NumericError(f"orbit of {z0!r} left the numeric range")
        orbit.append(w)
        if not inside(w, ORBIT_GUARD):
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
    """Seeded random maps into X: each is an automorphism or a degree-two
    Blaschke map with target X, so the image lies in X by construction."""
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
        out.append(MapDescriptor((inner,), target=X))
    return out
