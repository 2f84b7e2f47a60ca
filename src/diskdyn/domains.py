"""Catalog of subdomains of the unit disk.

Every entry models an open connected set X inside the disk and answers, at
minimum, exact membership.  Simply connected entries carry conformal maps
to and from the disk (which transport the disk metric to the intrinsic
metric of X); entries with unbounded inradius expose `deep_point`, a path
of centers witnessing arbitrarily large inscribed metric disks.

Distances are in the rho-normalization of :mod:`diskdyn.hyperbolic`
(density 1/(1-|z|^2)); "inradius" at a point always means the distance
from the point to the complement of X within the disk.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import BoundaryError, NumericError, PreconditionError
from .hyperbolic import (
    BOUNDARY_GUARD,
    DiskPoint,
    HyperbolicDisk,
    MobiusAut,
    rho,
    rho_grid,
)
from .sampling import curve_min_rho


class DomainModel:
    """Common interface for catalog entries.

    Subclasses must set the three flags and implement `contains`; the
    other operations have defaults that raise for entries lacking the
    corresponding structure (no conformal parameterization, no unbounded
    inradius), or that fall back to complement-distance sampling where a
    boundary parameterization exists.
    """

    relatively_compact: bool
    expected_bloch: bool
    simply_connected: bool

    def contains(self, z) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    @property
    def anchor(self) -> DiskPoint:
        """A canonical interior point used for defaults."""
        raise NotImplementedError

    def riemann_to(self, u):
        raise PreconditionError(f"{self.describe()} has no conformal parameterization")

    def riemann_from(self, x):
        raise PreconditionError(f"{self.describe()} has no conformal parameterization")

    def rho_X(self, u, v) -> float:
        """Intrinsic distance, via the conformal parameterization."""
        if not (self.contains(u) and self.contains(v)):
            raise PreconditionError(f"rho_X arguments must lie in {self.describe()}")
        return rho(self.riemann_from(u), self.riemann_from(v))

    def boundary_point(self, t):
        """Parameterized boundary curve on [0, 1); vectorized over t."""
        raise PreconditionError(f"{self.describe()} has no boundary curve")

    def inradius_at(self, a) -> float:
        """Distance from a to the complement of X inside the disk.

        Default: complement-distance sampling over the boundary curve.
        """
        self._require_member(a)
        return curve_min_rho(a, self.boundary_point)

    def deep_point(self, t: float) -> DiskPoint:
        raise PreconditionError(
            f"{self.describe()} has no deep-point path (bounded inradius)"
        )

    def probe_points(self, depth: float) -> list[complex]:
        """Extra candidate centers for inradius searches.

        Default: the deep-point path sampled at whole-number inradii up to
        `depth`, empty when the entry has no such path.
        """
        ts = [float(k) for k in range(1, int(depth) + 1)]
        if depth > 0 and float(depth) not in ts:
            ts.append(float(depth))
        try:
            return [complex(self.deep_point(t)) for t in ts]
        except PreconditionError:
            return []

    def search_depth_cap(self) -> float | None:
        """Largest rho(0, center) at which inradius claims are meaningful,
        or None when unrestricted."""
        return None

    def _require_member(self, a):
        if not self.contains(a):
            raise PreconditionError(f"point {complex(a)!r} is not in {self.describe()}")


class EuclideanSubdisk(DomainModel):
    """Euclidean disk with closure inside the unit disk.

    Such a disk is simultaneously a hyperbolic disk, so membership, the
    inradius field, and the conformal parameterization are all closed-form:
    the parameterization scales the unit disk by tanh of the metric radius
    and recenters with a Mobius map.
    """

    relatively_compact = True
    expected_bloch = True
    simply_connected = True

    def __init__(self, center, radius: float):
        self.center = complex(center)
        self.radius = float(radius)
        if self.radius <= 0.0:
            raise PreconditionError(f"subdisk radius must be positive, got {radius!r}")
        self.metric_disk = HyperbolicDisk.from_euclidean(self.center, self.radius)
        self._h = self.metric_disk.center
        self._t = math.tanh(self.metric_disk.radius)

    def describe(self) -> str:
        return f"disk({self.center.real:g},{self.center.imag:g},{self.radius:g})"

    @property
    def anchor(self) -> DiskPoint:
        return DiskPoint(self._h)

    def contains(self, z) -> bool:
        return abs(complex(z) - self.center) < self.radius

    def riemann_to(self, u):
        v = self._t * u
        return (v + self._h) / (1.0 + self._h.conjugate() * v)

    def riemann_from(self, x):
        return (x - self._h) / (1.0 - self._h.conjugate() * x) / self._t

    def boundary_point(self, t):
        return self.center + self.radius * np.exp(2j * math.pi * np.asarray(t))

    def inradius_at(self, a) -> float:
        self._require_member(a)
        return self.metric_disk.radius - rho(a, self._h)


class Horodisk(DomainModel):
    """Euclidean disk internally tangent to the unit circle.

    `tangency` is the unimodular tangency point, `size` the Euclidean
    radius s in (0, 1); the point set is {|z - (1-s) tangency| < s}.  In
    half-plane coordinates aligned with the tangency the domain is the
    region above height h0 = (1-s)/s, which makes the inradius field and
    the deep-point path along the tangency axis closed-form.
    """

    relatively_compact = False
    expected_bloch = False
    simply_connected = True

    def __init__(self, tangency, size: float):
        xi = complex(tangency)
        if abs(abs(xi) - 1.0) > 1e-9:
            raise PreconditionError(f"tangency {xi!r} is not on the unit circle")
        self.tangency = xi / abs(xi)
        self.size = float(size)
        if not 0.0 < self.size < 1.0:
            raise PreconditionError(f"horodisk size must be in (0, 1), got {size!r}")
        self._euclid_center = (1.0 - self.size) * self.tangency
        self._h0 = (1.0 - self.size) / self.size
        # Inradius at the Euclidean center, the smallest the deep-point
        # path can report.
        self._anchor_inradius = 0.5 * math.log((2.0 - self.size) / (1.0 - self.size))

    def describe(self) -> str:
        ang = cmath.phase(self.tangency)
        return f"horodisk({ang:g},{self.size:g})"

    @property
    def anchor(self) -> DiskPoint:
        return DiskPoint(self._euclid_center)

    def contains(self, z) -> bool:
        return abs(complex(z) - self._euclid_center) < self.size

    def _height(self, z) -> float:
        # Half-plane height of z; > h0 exactly when z is inside.
        w = complex(z) * self.tangency.conjugate()
        return ((1.0 + w) / (1.0 - w)).real

    def riemann_to(self, u):
        return self._euclid_center + self.size * u

    def riemann_from(self, x):
        return (x - self._euclid_center) / self.size

    def boundary_point(self, t):
        # Plain circle angle, with t = 0 at the tangency point; uniform t
        # concentrates samples near the tangency in every other gauge,
        # which is where deep probes need the resolution.
        return self._euclid_center + self.size * self.tangency * np.exp(
            2j * math.pi * np.asarray(t)
        )

    def inradius_at(self, a) -> float:
        self._require_member(a)
        return 0.5 * math.log(self._height(a) / self._h0)

    def deep_point(self, t: float) -> DiskPoint:
        """The axis point whose inradius is max(t, anchor inradius)."""
        t_eff = max(float(t), self._anchor_inradius) + 1e-12
        y = self._h0 * math.exp(2.0 * t_eff)
        x = 1.0 - 2.0 / (y + 1.0)
        try:
            return DiskPoint(x * self.tangency)
        except BoundaryError as exc:
            raise NumericError(
                f"deep point at inradius {t!r} falls within {BOUNDARY_GUARD} "
                "of the unit circle"
            ) from exc


class RDenseComplement(DomainModel):
    """The disk minus a discrete net of punctures.

    Punctures sit on concentric hyperbolic circles of radii mesh, 2*mesh,
    ... up to `depth`, with per-circle counts chosen so every point of the
    covered region {rho(0, z) <= covered_depth} lies within `mesh` of a
    puncture.  The complement of the domain is exactly the puncture set,
    so the inradius at a point is its distance to the nearest puncture.
    Inradius claims are only meaningful for centers at least `mesh` inside
    the covered region; `search_depth_cap` enforces that.
    """

    relatively_compact = False
    expected_bloch = True
    simply_connected = False

    def __init__(self, mesh: float, depth: float):
        self.mesh = float(mesh)
        self.depth = float(depth)
        if self.mesh <= 0.0:
            raise PreconditionError(f"puncture mesh must be positive, got {mesh!r}")
        if self.depth < self.mesh:
            raise PreconditionError("depth must allow at least one puncture circle")
        rings = []
        k = 1
        while k * self.mesh <= self.depth + 1e-12:
            r = k * self.mesh
            count = math.ceil(math.pi * math.sinh(2.0 * r) / self.mesh)
            if k == 1:
                # The innermost circle also covers the central gap; that
                # needs the angular step below 1/cosh(2r) radians.
                count = max(count, math.ceil(math.pi * math.cosh(2.0 * r)))
            t = math.tanh(r)
            angles = 2.0 * math.pi * np.arange(count) / count
            rings.append(t * np.exp(1j * angles))
            k += 1
        self.punctures = np.concatenate(rings)
        self.covered_depth = (k - 1) * self.mesh

    def describe(self) -> str:
        return f"rdense({self.mesh:g},{self.depth:g})"

    @property
    def anchor(self) -> DiskPoint:
        return DiskPoint(0j)

    def contains(self, z) -> bool:
        z = complex(z)
        if not 1.0 - abs(z) >= BOUNDARY_GUARD:
            return False
        return not bool(np.any(self.punctures == z))

    def inradius_at(self, a) -> float:
        self._require_member(a)
        return float(np.min(rho_grid(complex(a), self.punctures)))

    def search_depth_cap(self) -> float | None:
        return self.covered_depth - self.mesh


class MobiusImage(DomainModel):
    """Image of a catalog entry under a disk automorphism.

    The automorphism is an isometry, so every metric quantity transports
    exactly: the inradius field composes with the inverse map and deep
    points push forward.
    """

    def __init__(self, base: DomainModel, aut: MobiusAut):
        self.base = base
        self.aut = aut
        self._inv = aut.inverse()
        self.relatively_compact = base.relatively_compact
        self.expected_bloch = base.expected_bloch
        self.simply_connected = base.simply_connected

    def describe(self) -> str:
        return f"mobius_image({self.base.describe()})"

    @property
    def anchor(self) -> DiskPoint:
        return DiskPoint(self.aut(self.base.anchor))

    def contains(self, z) -> bool:
        w = self._inv(complex(z))
        return abs(w) < 1.0 and self.base.contains(w)

    def riemann_to(self, u):
        return self.aut(self.base.riemann_to(u))

    def riemann_from(self, x):
        return self.base.riemann_from(self._inv(x))

    def boundary_point(self, t):
        return self.aut(self.base.boundary_point(t))

    def inradius_at(self, a) -> float:
        return self.base.inradius_at(self._inv(complex(a)))

    def deep_point(self, t: float) -> DiskPoint:
        return DiskPoint(self.aut(self.base.deep_point(t)))

    def probe_points(self, depth: float) -> list[complex]:
        shift = rho(0.0, self.aut(0.0))
        return [self.aut(p) for p in self.base.probe_points(depth + shift)]

    def search_depth_cap(self) -> float | None:
        cap = self.base.search_depth_cap()
        if cap is None:
            return None
        # The automorphism moves the origin by at most its displacement.
        return cap - rho(0.0, self.aut(0.0))


def covering_with_basepoint(X: DomainModel, u0, x0, theta: float = 0.0):
    """The covering of a simply connected entry X pinned at a basepoint.

    Returns the map descriptor of rt o m where rt parameterizes X and m
    is the automorphism sending u0 to the disk coordinate of x0, so the
    result sends u0 to x0; theta sweeps the residual rotation freedom
    about the basepoint.  The map is a rho -> rho_X isometry.
    """
    from .ifs import MapDescriptor, RiemannTo

    if not X.contains(x0):
        raise PreconditionError(f"basepoint image {complex(x0)!r} not in {X.describe()}")
    aligner = MobiusAut.two_point(complex(DiskPoint(u0)), X.riemann_from(x0), theta)
    return MapDescriptor((aligner, RiemannTo(X)), target=X)


def parse_domain(spec: str) -> DomainModel:
    """Instantiate a catalog entry from its compact text form.

    Grammar: disk(cx,cy,r) | horodisk(angle,s) | rdense(R,depth).
    """
    text = spec.strip().replace(" ", "")
    name, _, rest = text.partition("(")
    if not rest.endswith(")"):
        raise PreconditionError(f"malformed domain spec {spec!r}")
    try:
        args = [float(x) for x in rest[:-1].split(",")]
    except ValueError as exc:
        raise PreconditionError(f"malformed domain spec {spec!r}") from exc
    if name == "disk" and len(args) == 3:
        return EuclideanSubdisk(complex(args[0], args[1]), args[2])
    if name == "horodisk" and len(args) == 2:
        return Horodisk(cmath.exp(1j * args[0]), args[1])
    if name == "rdense" and len(args) == 2:
        return RDenseComplement(args[0], args[1])
    raise PreconditionError(f"unknown domain spec {spec!r}")
