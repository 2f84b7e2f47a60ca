"""Bloch-radius search and radial-stretch experiments.

The Bloch radius of a subdomain X of the disk is the supremum of rho-radii
of hyperbolic disks contained in X.  The search here reports certified
lower bounds only: a "non_bloch_witness" verdict ships an explicitly
sample-verified witness disk, while "bloch_up_to" records the largest
inradius seen within the budget without claiming the supremum is finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import DomainModel
from .errors import NumericError, PreconditionError
from .hyperbolic import (
    HyperbolicDisk,
    disk_point,
    modulus,
    rho_of,
    sinh2_rho,
)
from .sampling import hyperbolic_lattice, witness_samples

# Certification shrink schedule: metric slack grows until strict Euclidean
# membership of every witness sample is decidable in double precision.
_CERTIFY_DELTAS = (0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 5e-2)


@dataclass(frozen=True)
class SearchBudget:
    """Knobs of the two-phase inradius search.

    depth caps rho(0, center) for candidate centers; ring_step and
    angular_cap shape the coarse lattice; refine_iters bounds the local
    pattern search; witness_threshold is the inradius at which a witness
    verdict is attempted, certified on witness_samples points.
    """

    depth: float = 3.0
    ring_step: float = 0.25
    angular_cap: int = 64
    refine_iters: int = 120
    witness_threshold: float = 1.0
    witness_samples: int = 10000

    def __post_init__(self):
        # Negated bounds, so NaN fails them as well as inf.
        if not (0 < self.depth < math.inf and 0 < self.ring_step < math.inf):
            raise PreconditionError("search budget needs finite positive depth and ring_step")
        if not (0 <= self.refine_iters < math.inf and 1 <= self.angular_cap < math.inf):
            raise PreconditionError("search budget counts must be finite and positive")
        if not 10_000 <= self.witness_samples < math.inf:
            # witness verdicts are lower bounds; certification is only
            # meaningful with a dense membership sample
            raise PreconditionError("witness certification needs a finite witness_samples >= 10000")
        if not math.isfinite(self.witness_threshold):
            raise PreconditionError("search budget needs a finite witness_threshold")


@dataclass(frozen=True)
class Verdict:
    """Either ("non_bloch_witness", certified radius) or
    ("bloch_up_to", largest inradius seen)."""

    kind: str
    value: float


@dataclass(frozen=True)
class BlochReport:
    best_center: complex
    best_inradius: float
    budget: SearchBudget
    verdict: Verdict
    witness: HyperbolicDisk | None = None


@dataclass(frozen=True)
class RadialStretch:
    """The quasiconformal self-homeomorphism z -> z |z|^(exponent - 1).

    Fixes 0, preserves every angle, is the identity at exponent 1, and in
    radial hyperbolic coordinates contracts distances from the origin to
    radial_distance(r) = artanh(tanh(r)^exponent).
    """

    exponent: float

    def __post_init__(self):
        # A negated bound, so NaN fails it as well as inf.
        if not 1.0 <= float(self.exponent) < math.inf:
            raise PreconditionError(
                f"stretch exponent must be finite and >= 1, got {self.exponent!r}"
            )
        object.__setattr__(self, "exponent", float(self.exponent))

    def apply(self, z):
        return z * np.power(modulus(z), self.exponent - 1.0)

    def inverse_apply(self, z):
        mag = modulus(z)
        inv = 1.0 / self.exponent - 1.0
        return z * np.power(mag, inv, out=np.zeros_like(mag), where=mag > 0)

    def radial_distance(self, r: float) -> float:
        """Image of the sphere rho(0, .) = r: its new radius about 0."""
        return math.atanh(math.tanh(float(r)) ** self.exponent)

    def inverse_radial(self, r: float) -> float:
        t = math.tanh(float(r)) ** (1.0 / self.exponent)
        if not t < 1.0:
            raise NumericError(
                f"the stretch of exponent {self.exponent:g} cannot pull the radius "
                f"{r!r} back: tanh(r)**(1/exponent) rounds to 1.0 in double precision"
            )
        return math.atanh(t)


class StretchedDomain(DomainModel):
    """Image of a catalog entry `base` under a radial stretch.

    The flags are the base's; the anchor, punctures and boundary curve
    push forward by `stretch.apply`, and membership pulls back by
    `stretch.inverse_apply`.  Depths transport radially: the base's depth
    cap pushes to `radial_distance(cap)`, and the probes at depth d are
    the base's at `inverse_radial(d)`, pushed.  The inradius field uses
    the stretched complement directly: the mapped punctures when the base
    complement is a point set, the mapped boundary curve otherwise.
    """

    def __init__(self, base: DomainModel, stretch: RadialStretch):
        self.base = base
        self.stretch = stretch
        self.relatively_compact = base.relatively_compact
        self.expected_bloch = base.expected_bloch
        self.simply_connected = base.simply_connected
        self.punctures = None if base.punctures is None else stretch.apply(base.punctures)

    def describe(self) -> str:
        return f"stretch({self.base.describe()},{self.stretch.exponent:g})"

    @property
    def anchor(self) -> complex:
        return disk_point(self.stretch.apply(self.base.anchor))

    def _inside(self, z):
        # The mapped punctures are excluded exactly by `contains`: the
        # pull need not land back on a base puncture.
        return self.base.contains(self.stretch.inverse_apply(z))

    def boundary_point(self, t):
        return self.stretch.apply(self.base.boundary_point(t))

    def probe_points(self, depth: float) -> list[complex]:
        pulled = self.stretch.inverse_radial(depth)
        return [self.stretch.apply(p) for p in self.base.probe_points(pulled)]

    def search_depth_cap(self) -> float | None:
        cap = self.base.search_depth_cap()
        return None if cap is None else self.stretch.radial_distance(cap)


def witness_disk_verify(
    X: DomainModel, disk: HyperbolicDisk, samples: int = SearchBudget.witness_samples
) -> bool:
    """True iff the open disk lies in X: by puncture distances when the
    complement of X is a point set, which no sample would hit, else on a
    deterministic sample of the closed disk (rings, center and boundary)."""
    if X.punctures is not None:
        return rho_of(np.min(sinh2_rho(disk.center, X.punctures))) >= disk.radius
    return bool(np.all(X.contains(witness_samples(disk.center, disk.radius, samples))))


def _admissible(X: DomainModel, p, depth: float):
    # rho(0, p) = artanh|p|, so the depth cap is a modulus bound.
    return (modulus(p) <= math.tanh(depth + 1e-9)) & X.contains(p)


def _candidate_centers(X: DomainModel, budget: SearchBudget, depth: float) -> list[complex]:
    lattice = hyperbolic_lattice(depth, budget.ring_step, budget.angular_cap)
    pts = np.concatenate(([0j, X.anchor], lattice, X.probe_points(depth)))
    return pts[_admissible(X, pts, depth)].tolist()


def _pattern_refine(
    X: DomainModel, center: complex, value: float, depth: float, budget: SearchBudget
) -> tuple[complex, float]:
    """Greedy four-direction pattern search with shrinking rho-steps.

    Each trial point sits at exactly `step` metric distance from the
    current center; rejected moves (outside X or past the depth cap) do
    not consume the improvement, only a full miss shrinks the step.
    """
    step = budget.ring_step
    directions = (1.0 + 0j, -1.0 + 0j, 1j, -1j)
    for _ in range(budget.refine_iters):
        if step < 1e-12:
            break
        e = math.tanh(step)
        moved = False
        for d in directions:
            u = e * d
            cand = (u + center) / (1.0 + center.conjugate() * u)
            if not _admissible(X, cand, depth):
                continue
            v = X.inradius_at(cand)
            if v > value:
                center, value = cand, v
                moved = True
                break
        if not moved:
            step *= 0.5
    return center, value


def _certify_witness(
    X: DomainModel, center: complex, value: float, budget: SearchBudget
) -> HyperbolicDisk:
    for delta in _CERTIFY_DELTAS:
        radius = value - delta
        if radius <= 0:
            break
        disk = HyperbolicDisk(center, radius)
        if witness_disk_verify(X, disk, budget.witness_samples):
            return disk
    raise NumericError(
        f"witness disk at {center!r} with radius near {value!r} failed "
        f"sample certification in {X.describe()}"
    )


def bloch_radius_search(X: DomainModel, budget: SearchBudget | None = None) -> BlochReport:
    """Two-phase certified-lower-bound search for the Bloch radius of X.

    Coarse phase scores every admissible lattice center, the domain
    anchor, the origin, and the domain's deep-point probes; the best
    candidate is then refined by a local pattern search.  The verdict is a
    witness only when the witness disk itself passes sample verification.
    """
    budget = budget or SearchBudget()
    cap = X.search_depth_cap()
    depth = budget.depth if cap is None else min(budget.depth, cap)
    if depth <= 0:
        raise PreconditionError(
            f"search depth {budget.depth!r} is exhausted by the depth cap "
            f"{cap!r} of {X.describe()}"
        )
    candidates = _candidate_centers(X, budget, depth)
    if not candidates:
        raise PreconditionError(
            f"no admissible search centers in {X.describe()} within depth {depth!r}"
        )
    # Deterministic max-reduction: exact ties break on the smallest
    # (re, im), and max keeps the first of equal keys.
    best_value, _, _, best_center = max(
        (X.inradius_at(p), -p.real, -p.imag, p) for p in candidates
    )
    best_center, best_value = _pattern_refine(X, best_center, best_value, depth, budget)
    if best_value >= budget.witness_threshold:
        witness = _certify_witness(X, best_center, best_value, budget)
        verdict = Verdict("non_bloch_witness", witness.radius)
        return BlochReport(best_center, best_value, budget, verdict, witness)
    return BlochReport(best_center, best_value, budget, Verdict("bloch_up_to", best_value))


def qc_image_experiment(
    X: DomainModel, stretch: RadialStretch, budget: SearchBudget | None = None
) -> BlochReport:
    """Bloch search on the radial-stretch image of X.

    Exponent 1 is the identity map, so the report is exactly the report
    for X itself (same code path, not a stretched wrapper).
    """
    if stretch.exponent == 1.0:
        return bloch_radius_search(X, budget)
    return bloch_radius_search(StretchedDomain(X, stretch), budget)
