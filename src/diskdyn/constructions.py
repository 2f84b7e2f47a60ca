"""Recursive map-sequence builders and direct metric comparisons.

`build_nonconstant_system` produces, on a domain with unbounded inradius,
a sequence whose composites pin two probe orbits a fixed distance apart
forever (a certified non-constant tail).  `build_alternating_system`
produces, on a non-relatively-compact domain, composites whose orbit of a
base point alternates between two values (two accumulation limits).  The
report functions check the two comparison estimates the builders rely on:
subdisk metric domination with ratio -> 1, and the convergence of the
small Blaschke preimage to its target as the zero approaches the circle.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

from .domains import DomainModel
from .errors import BoundaryError, NumericError, PreconditionError
from .hyperbolic import Blaschke2, MobiusAut, disk_point, rho
from .ifs import MapDescriptor

_CHECK_TOL = 1e-9
# Deepest deep-point depth the nonconstant builder escalates to.
_ESCALATION_CAP = 60.0


def _next_depth(depth: float) -> float:
    # Geometric while cheap, unit steps past 8: the band where the step
    # inequalities hold but boundary rounding noise does not yet drown them
    # is about one unit wide, and doubling would jump straight over it.
    return 2.0 * depth if 2.0 * depth <= 8.0 else depth + 1.0


def slack_sequence(n: int) -> float:
    """The n-th multiplicative slack, 2^(2^-(n+1)) - 1.

    Chosen so the infinite product of (1+slack)^2 telescopes to exactly 2.
    """
    if n < 1:
        raise PreconditionError(f"slack index must be >= 1, got {n!r}")
    return math.expm1(math.log(2.0) * 2.0 ** -(n + 1))


def slack_product(n: int) -> float:
    """Partial product of (1 + slack_i) for i = 1..n: 2^((1 - 2^-n)/2)."""
    if n < 0:
        raise PreconditionError(f"product length must be >= 0, got {n!r}")
    return 2.0 ** (0.5 * (1.0 - 2.0 ** -n))


def slack_product_squared(n: int) -> float:
    """Partial product of (1 + slack_i)^2 for i = 1..n: 2^(1 - 2^-n)."""
    if n < 0:
        raise PreconditionError(f"product length must be >= 0, got {n!r}")
    return 2.0 ** (1.0 - 2.0 ** -n)


def point_at_intrinsic_distance(X: DomainModel, base, distance: float, angle: float = 0.0):
    """The point of X at the given intrinsic distance from base, along the
    intrinsic geodesic leaving base in the given direction."""
    if not X.contains(base):
        raise PreconditionError(f"base point {complex(base)!r} not in {X.describe()}")
    if not 0.0 <= distance < math.inf:
        raise PreconditionError(f"distance must be finite and >= 0, got {distance!r}")
    if not math.isfinite(angle):
        raise PreconditionError(f"angle must be finite, got {angle!r}")
    u0 = complex(X.riemann_from(base))
    step = math.tanh(distance) * cmath.exp(1j * angle)
    return complex(X.riemann_to((step + u0) / (1.0 + u0.conjugate() * step)))


@dataclass(frozen=True)
class NonconstantStep:
    """One accepted step of the non-constant builder.

    checks holds the five per-step inequality verdicts:
      pins        f_n(0) = f_n(a_n) = previous anchor and
                  f_n(w_n) = f_n(w_tilde) = previous marked point;
      pair        rho(a_n, w_n) = rho(0, w_tilde) < (1+slack_n) * previous
                  intrinsic distance;
      intrinsic   rho_X(a_n, w_n) < (1+slack_n) * rho(a_n, w_n)
                  < (1+slack_n)^2 * previous intrinsic distance;
      tilde_cap   rho(0, w_tilde) < slack_product(n) * initial lift < 1;
      product_cap rho_X(a_n, w_n) < slack_product_squared(n) * initial
                  lift < 1.
    """

    n: int
    anchor: complex
    marked: complex
    marked_tilde: complex
    lift: float
    depth: float
    dist_pair: float
    dist_intrinsic: float
    dist_tilde: float
    inradius: float
    checks: dict


def _nonconstant_checks(
    n, f, a_prev, w_prev, a_n, w_n, w_tilde, d_prev, d0, X
) -> tuple[dict, float, float, float]:
    eps = slack_sequence(n)
    dist_pair = rho(a_n, w_n)
    dist_tilde = rho(0.0, w_tilde)
    in_domain = X.contains(w_n)
    dist_intr = rho(X.riemann_from(a_n), X.riemann_from(w_n)) if in_domain else math.inf
    pins = (
        abs(f(0j) - a_prev) < _CHECK_TOL
        and abs(f(a_n) - a_prev) < _CHECK_TOL
        and abs(f(w_n) - w_prev) < _CHECK_TOL
        and abs(f(w_tilde) - w_prev) < _CHECK_TOL
    )
    checks = {
        "pins": pins,
        "pair": abs(dist_pair - dist_tilde) < _CHECK_TOL
        and dist_tilde < (1.0 + eps) * d_prev,
        "intrinsic": in_domain
        and dist_intr < (1.0 + eps) * dist_pair
        and dist_intr < (1.0 + eps) ** 2 * d_prev,
        "tilde_cap": dist_tilde < slack_product(n) * d0 < 1.0,
        "product_cap": dist_intr < slack_product_squared(n) * d0 < 1.0,
    }
    return checks, dist_pair, dist_intr, dist_tilde


def _require_steps(n_steps: int):
    if n_steps < 1:
        raise PreconditionError(f"a system needs at least one step, got n_steps = {n_steps!r}")


def build_nonconstant_system(X: DomainModel, a0, w0, n_steps: int):
    """Build maps f_1..f_N into X with F_n(0) = a0 and F_n(w_tilde_n) = w0.

    Requires n_steps >= 1, 0 < rho_X(a0, w0) < 1/2 and a domain with a
    deep-point path and a conformal parameterization.  Each step lifts the
    current marked pair through a covering pinned at the current anchor
    (rotated so the lift is a positive real), splits the lift through a
    degree-two Blaschke map centered at a deep point, and escalates the
    deep-point depth (up to _ESCALATION_CAP) until all five step
    inequalities hold.  Returns (descriptors, steps).

    Double precision supports roughly twenty steps: past that the step
    slacks fall below the evaluation noise of near-boundary points and
    no depth can satisfy the checks, so the builder raises NumericError.
    """
    _require_steps(n_steps)
    if X.expected_bloch:
        raise PreconditionError(
            f"{X.describe()} has bounded inradius; the construction needs a "
            "deep-point path"
        )
    for name, p in (("a0", a0), ("w0", w0)):
        if not X.contains(p):
            raise PreconditionError(f"{name} = {complex(p)!r} is not in {X.describe()}")
    d0 = X.rho_X(a0, w0)
    if not 0.0 < d0 < 0.5:
        raise PreconditionError(
            f"need 0 < rho_X(a0, w0) < 1/2, got {d0!r}; move the points "
            "closer (point_at_intrinsic_distance helps)"
        )

    descriptors: list[MapDescriptor] = []
    steps: list[NonconstantStep] = []
    a_prev, w_prev = complex(a0), complex(w0)
    depth = 2.0
    for n in range(1, n_steps + 1):
        q = complex(X.riemann_from(a_prev))
        lift_raw = MobiusAut(q)(complex(X.riemann_from(w_prev)))
        theta = cmath.phase(lift_raw)
        lift = abs(lift_raw)
        d_prev = rho(0.0, lift)
        aligner = MobiusAut.two_point(0j, q, theta)

        while True:
            try:
                a_n = X.deep_point(depth)
                splitter = Blaschke2(a_n)
                w_tilde, w_n = splitter.preimages(lift)
            except (BoundaryError, NumericError) as exc:
                raise NumericError(
                    f"step {n}: deep point at depth {depth!r} or its preimage "
                    "hit the boundary guard before the step inequalities held "
                    "(the double-precision limit)"
                ) from exc
            f = MapDescriptor((splitter, aligner), target=X)
            checks, dist_pair, dist_intr, dist_tilde = _nonconstant_checks(
                n, f, a_prev, w_prev, a_n, w_n, w_tilde, d_prev, d0, X
            )
            inradius = X.inradius_at(a_n)
            if all(checks.values()) and inradius > 1.0:
                break
            if depth >= _ESCALATION_CAP:
                failed = [k for k, ok in checks.items() if not ok]
                if inradius <= 1.0:
                    failed.append("inradius")
                raise NumericError(
                    f"step {n}: escalation cap {_ESCALATION_CAP!r} reached with "
                    f"unsatisfied bounds {failed}"
                )
            depth = min(_next_depth(depth), _ESCALATION_CAP)

        descriptors.append(f)
        steps.append(
            NonconstantStep(
                n=n,
                anchor=a_n,
                marked=w_n,
                marked_tilde=w_tilde,
                lift=lift,
                depth=depth,
                dist_pair=dist_pair,
                dist_intrinsic=dist_intr,
                dist_tilde=dist_tilde,
                inradius=inradius,
                checks=checks,
            )
        )
        a_prev, w_prev = a_n, w_n
    return descriptors, steps


@dataclass(frozen=True)
class AlternatingStep:
    """One step of the alternating builder.

    checks holds: pins (f_n maps base -> previous value and the new point
    -> base), member (the new point lies in X), and circle (the distance
    from the new point to base equals the intrinsic distance from base to
    the previous value)."""

    n: int
    value: complex
    theta: float
    circle_radius: float
    checks: dict


def _arc_runs(member: np.ndarray) -> list[tuple[int, int]]:
    """Maximal circular runs of True as (start, length); member must hold
    at least one False."""
    # Rolled to start at that outside angle, no run wraps; the steps of
    # the rolled mask up and down are the runs' edges.
    shift = int(np.argmin(member))
    steps = np.diff(np.roll(member, -shift).astype(np.int8), append=np.int8(0))
    starts = np.flatnonzero(steps == 1) + 1
    ends = np.flatnonzero(steps == -1) + 1
    return [
        ((a + shift) % member.size, b - a)
        for a, b in zip(starts.tolist(), ends.tolist(), strict=True)
    ]


def covering_with_basepoint(X: DomainModel, u0, x0, theta: float = 0.0):
    """The covering of a simply connected entry X pinned at a basepoint.

    Returns the map into X whose chain is m, the automorphism sending u0
    to the disk coordinate of x0, so the result sends u0 to x0; theta
    sweeps the residual rotation freedom about the basepoint.  The map is
    a rho -> rho_X isometry.
    """
    if not X.contains(x0):
        raise PreconditionError(f"basepoint image {complex(x0)!r} not in {X.describe()}")
    aligner = MobiusAut.two_point(disk_point(u0), X.riemann_from(x0), theta)
    return MapDescriptor((aligner,), target=X)


def build_alternating_system(X: DomainModel, base, value1, n_steps: int):
    """Build maps into X whose composites alternate the orbit of `base`.

    Each f_n is a covering pinned so f_n(base) equals the previous target
    (initially value1) with rotation theta_n chosen so the unique preimage
    a_n of base under f_n lies in X.  The candidates sweep a hyperbolic
    circle about base, which must meet X: one array scan of 4096 angles
    finds the circle's runs inside X, and theta_n is the middle scanned
    angle of the longest run (0 when the whole circle is inside).  Even
    composites return base to itself, odd ones to value1.  Requires
    n_steps >= 1.  Returns (descriptors, steps).

    Double precision stops the build: the circle radius grows by 0.20 to
    0.26 a step, and once 1 - |a_n| is about 3e-8 to 6e-8, rounding in rho
    reaches the checks' tolerance and the builder raises NumericError.  At
    the CLI's default distance and angle on horodisk(k pi/4, s), k = 0..7,
    s = 0.3..0.7, it builds 27 steps at least (horodisk(pi/4,0.3) fails
    at step 28) and 37 or 38 on the median one.
    """
    _require_steps(n_steps)
    if not X.simply_connected:
        raise PreconditionError(f"{X.describe()} has no single-valued parameterization")
    if X.relatively_compact:
        raise PreconditionError(
            f"{X.describe()} is relatively compact; the sweep circles must "
            "be able to leave and re-enter the domain arbitrarily far out"
        )
    for name, p in (("base", base), ("value1", value1)):
        if not X.contains(p):
            raise PreconditionError(f"{name} = {complex(p)!r} is not in {X.describe()}")
    base = complex(base)
    if base == complex(value1):
        raise PreconditionError("base and value1 must be distinct")

    from_base = MobiusAut(base).inverse()
    scan = 4096
    thetas = 2.0 * math.pi * np.arange(scan) / scan
    turns = np.exp(-1j * thetas)
    u_base = complex(X.riemann_from(base))

    descriptors: list[MapDescriptor] = []
    steps: list[AlternatingStep] = []
    prev = complex(value1)
    for n in range(1, n_steps + 1):
        u_prev = complex(X.riemann_from(prev))
        g = MobiusAut(u_prev)(u_base)
        radius = rho(0.0, g)
        member = X.contains(from_base(turns * g))
        if member.all():
            theta_n = 0.0
        else:
            runs = _arc_runs(member)
            if not runs:
                raise NumericError(
                    f"step {n}: the circle of radius {radius!r} about the "
                    f"base point does not meet {X.describe()} at scan "
                    f"resolution {scan}"
                )
            start, length = max(runs, key=lambda r: (r[1], -r[0]))
            theta_n = float(thetas[(start + length // 2) % scan])

        a_n = from_base(cmath.exp(-1j * theta_n) * g)
        f = MapDescriptor((MobiusAut.two_point(base, u_prev, theta_n),), target=X)
        checks = {
            "pins": abs(f(base) - prev) < _CHECK_TOL and abs(f(a_n) - base) < _CHECK_TOL,
            "member": X.contains(a_n),
            "circle": abs(rho(a_n, base) - radius) < _CHECK_TOL,
        }
        if not all(checks.values()):
            failed = [k for k, ok in checks.items() if not ok]
            raise NumericError(f"step {n}: alternating invariants failed: {failed}")
        descriptors.append(f)
        steps.append(
            AlternatingStep(
                n=n,
                value=complex(a_n),
                theta=theta_n,
                circle_radius=radius,
                checks=checks,
            )
        )
        prev = complex(a_n)
    return descriptors, steps


@dataclass(frozen=True)
class MetricComparisonReport:
    """Worst intrinsic-over-ambient distance ratios for centered subdisks.

    For the subdisk of metric radius `bound` about 0, ratio_excess is
    max over rho(0,z) < 1 of (intrinsic distance / ambient distance) - 1;
    it decreases to 0 as the bound grows.  density_ratio is the ratio of
    metric densities at the origin, 1/tanh(bound).
    """

    bounds: tuple
    ratio_excess: tuple
    density_ratio: tuple
    domination_ok: bool
    sample_count: int


def metric_comparison_report(bounds=(2.0, 4.0, 8.0), sample_count: int = 512):
    """Compare the intrinsic metric of centered subdisks with the ambient
    metric on samples with ambient distance below 1."""
    if any(not b > 1.0 for b in bounds):
        raise PreconditionError(f"bounds must exceed 1, got {bounds!r}")
    if sample_count < 2:
        raise PreconditionError("need at least two samples")
    r_max = math.tanh(1.0) * (1.0 - 1e-12)
    radii = r_max * np.arange(1, sample_count + 1) / sample_count
    ambient = np.arctanh(radii)
    excesses = []
    densities = []
    domination = True
    for bound in bounds:
        c = math.tanh(bound)
        intrinsic = np.arctanh(radii / c)
        domination &= bool(np.all(intrinsic >= ambient))
        excesses.append(float(np.max(intrinsic / ambient)) - 1.0)
        densities.append(1.0 / c)
    if not domination:
        raise NumericError("intrinsic metric fell below the ambient metric")
    return MetricComparisonReport(
        bounds=tuple(float(b) for b in bounds),
        ratio_excess=tuple(excesses),
        density_ratio=tuple(densities),
        domination_ok=domination,
        sample_count=int(sample_count),
    )


@dataclass(frozen=True)
class PreimageConvergenceReport:
    """Gap between rho(0, small preimage) and its limit rho(0, target) as
    the Blaschke zero's modulus approaches 1.

    real_axis_gaps uses zeros on the positive real axis (the anchored
    oracle values); sampled_gaps takes the worst gap over seeded random
    zero arguments at the same moduli.  identity_error is the largest
    observed violation of rho(0, z_small) = rho(zero, z_big)."""

    target: complex
    limit: float
    moduli: tuple
    real_axis_gaps: tuple
    sampled_gaps: tuple
    identity_error: float


def preimage_convergence_report(
    target=0.3, moduli=(0.9, 0.99, 0.999), seed: int = 0, args_per_modulus: int = 8
):
    """Measure preimage convergence at the given zero moduli.

    The moduli must increase strictly inside (0, 1), and args_per_modulus
    be at least 1.  Raises when the real-axis gap sequence fails to
    decrease, or when the final gaps are not below 0.01 for moduli
    reaching 0.999.
    """
    if args_per_modulus < 1:
        raise PreconditionError(f"args_per_modulus must be >= 1, got {args_per_modulus!r}")
    edges = (0.0, *moduli, 1.0)
    if not all(a < b for a, b in zip(edges, edges[1:])):
        raise PreconditionError(f"moduli must increase strictly inside (0, 1), got {moduli!r}")
    target = disk_point(target)
    if target == 0:
        raise PreconditionError("target must be nonzero")
    limit = rho(0.0, target)
    rng = random.Random(seed)
    real_gaps = []
    sampled_gaps = []
    identity_err = 0.0
    for mod in moduli:
        z1, z2 = Blaschke2(mod).preimages(target)
        real_gaps.append(abs(rho(0.0, z1) - limit))
        identity_err = max(identity_err, abs(rho(0.0, z1) - rho(mod, z2)))
        worst = 0.0
        for _ in range(args_per_modulus):
            zero = mod * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            z1, z2 = Blaschke2(zero).preimages(target)
            worst = max(worst, abs(rho(0.0, z1) - limit))
            identity_err = max(identity_err, abs(rho(0.0, z1) - rho(zero, z2)))
        sampled_gaps.append(worst)
    if any(b >= a for a, b in zip(real_gaps, real_gaps[1:], strict=False)):
        raise NumericError(f"real-axis gaps not decreasing: {real_gaps!r}")
    if moduli and moduli[-1] >= 0.999 and not (
        real_gaps[-1] < 0.01 and sampled_gaps[-1] < 0.01
    ):
        raise NumericError(
            f"gaps at modulus {moduli[-1]!r} not below 0.01: "
            f"real {real_gaps[-1]!r}, sampled {sampled_gaps[-1]!r}"
        )
    return PreimageConvergenceReport(
        target=target,
        limit=limit,
        moduli=tuple(float(m) for m in moduli),
        real_axis_gaps=tuple(real_gaps),
        sampled_gaps=tuple(sampled_gaps),
        identity_error=identity_err,
    )
