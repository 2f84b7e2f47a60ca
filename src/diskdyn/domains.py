"""Catalog of subdomains of the unit disk.

Every entry models an open connected set X inside the disk and answers, at
minimum, exact membership, of a point or of an array of points: moduli come
from `hyperbolic.modulus`, so a point gets the same answer bit for bit alone
and in an array, and every member passes `hyperbolic.inside`, so
`hyperbolic.disk_point` accepts it.  Simply connected entries carry
conformal maps to and from the disk (which transport the disk metric to
the intrinsic metric of X); entries with unbounded inradius expose
`deep_point`, a path of centers witnessing arbitrarily large inscribed
metric disks.

Distances are in the rho-normalization of :mod:`diskdyn.hyperbolic`
(density 1/(1-|z|^2)); "inradius" at a point always means the distance
from the point to the complement of X within the disk.
"""
from __future__ import annotations

import cmath
import functools
import math
import re
import reprlib

import numpy as np

from .errors import BoundaryError, ConfigError, NumericError, PreconditionError
from .hyperbolic import (
    BOUNDARY_GUARD,
    HyperbolicDisk,
    disk_point,
    inside,
    modulus,
    rho,
    rho_of,
    sinh2_rho,
)
from .sampling import _curve_window, curve_min_rho, ring_points

# RDenseComplement refuses a net of more punctures than this (16 MiB).
MAX_PUNCTURES = 1_000_000
# Boundary-curve scan windows a domain keeps for its next inradius
# queries, 48 KiB each.
_CURVE_WINDOWS = 16


class DomainModel:
    """Common interface for catalog entries.

    Subclasses must set the three flags and may narrow `_inside`, which
    admits the whole disk by default; the other operations have defaults
    that raise for entries lacking the corresponding structure (no
    conformal parameterization, no unbounded inradius), or that fall back
    to complement-distance sampling where a boundary parameterization
    exists.
    """

    relatively_compact: bool
    expected_bloch: bool
    simply_connected: bool
    # The complement of X in the disk when it is a finite point set.
    punctures: np.ndarray | None = None

    def contains(self, z):
        """Membership of a point (a bool) or of each point of an array (a
        bool array of its shape), by one formula with moduli from
        `hyperbolic.modulus`, so both give a point the same answer.  Only
        points where `hyperbolic.inside` holds are members, and the points
        of `punctures` never are, whatever `_inside` says.  `_inside` and
        the puncture test see only points where `inside` holds: a point
        that fails it is refused at once, an array's such entries reach
        them as 0."""
        member = inside(z)
        if isinstance(z, np.ndarray):
            z = np.where(member, z, 0j)
        elif not member:
            return False
        member = member & self._inside(z)
        if self.punctures is None:
            return member
        # The first sorted puncture >= z is z exactly when z is a puncture.
        near = self._sorted_punctures[np.searchsorted(self._sorted_punctures, z) % self.punctures.size]
        return member & (modulus(near - z) > 0.0)

    def _inside(self, z):
        """Membership apart from the disk's edge and the punctures, under
        the contract of `contains`; the whole disk by default."""
        return True

    @functools.cached_property
    def _sorted_punctures(self) -> np.ndarray:
        return np.sort(self.punctures)

    def describe(self) -> str:
        raise NotImplementedError

    @property
    def anchor(self) -> complex:
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

        Default: the distance to the nearest puncture when the complement
        is a point set, else `curve_min_rho` over the boundary curve.  Its
        scans zoom onto the same windows for nearby points, so the domain
        keeps the last _CURVE_WINDOWS windows it evaluated (under 1 MiB)
        and hands them back bit for bit.
        """
        self._require_member(a)
        if self.punctures is not None:
            return rho_of(np.min(sinh2_rho(complex(a), self.punctures)))
        return curve_min_rho(a, self._boundary_window)

    def _boundary_window(self, lo, width) -> tuple:
        # A least-recently-used cache in a dict kept in use order.  It
        # holds arrays only, never the domain, so the domain is freed by
        # reference counting.
        windows = self._windows
        coords = windows.pop((lo, width), None)
        if coords is None:
            if len(windows) == _CURVE_WINDOWS:
                del windows[next(iter(windows))]
            coords = _curve_window(self.boundary_point, lo, width)
        windows[lo, width] = coords
        return coords

    @functools.cached_property
    def _windows(self) -> dict:
        return {}

    def deep_point(self, t: float) -> complex:
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
            return [self.deep_point(t) for t in ts]
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
    def anchor(self) -> complex:
        return self._h

    def _inside(self, z):
        return modulus(z - self.center) < self.radius

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
        if not abs(abs(xi) - 1.0) <= 1e-9:
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
    def anchor(self) -> complex:
        return disk_point(self._euclid_center)

    def _inside(self, z):
        return modulus(z - self._euclid_center) < self.size

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

    def deep_point(self, t: float) -> complex:
        """The axis point whose inradius is max(t, anchor inradius)."""
        t_eff = max(float(t), self._anchor_inradius) + 1e-12
        y = self._h0 * math.exp(2.0 * t_eff)
        x = 1.0 - 2.0 / (y + 1.0)
        try:
            return disk_point(x * self.tangency)
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
    the covered region; `search_depth_cap` enforces that.  A net of more
    than MAX_PUNCTURES punctures is refused before any is allocated.
    """

    relatively_compact = False
    expected_bloch = True
    simply_connected = False

    def __init__(self, mesh: float, depth: float):
        self.mesh = float(mesh)
        self.depth = float(depth)
        if not self.mesh > 0.0:
            raise PreconditionError(f"puncture mesh must be positive, got {mesh!r}")
        # Count first, allocate after: circles stop at the depth, and at
        # the last one that can hold a disk point.
        counts = []
        k = 1
        while k * self.mesh <= self.depth + 1e-12 and inside(math.tanh(k * self.mesh)):
            r = k * self.mesh
            count = math.ceil(math.pi * math.sinh(2.0 * r) / self.mesh)
            if k == 1:
                # The innermost circle also covers the central gap; that
                # needs the angular step below 1/cosh(2r) radians.
                count = max(count, math.ceil(math.pi * math.cosh(2.0 * r)))
            counts.append(count)
            if sum(counts) > MAX_PUNCTURES:
                raise PreconditionError(
                    f"rdense({mesh!r},{depth!r}) needs more than {MAX_PUNCTURES} punctures"
                )
            k += 1
        if not counts:
            raise PreconditionError("depth must allow at least one puncture circle in the disk")
        self.punctures = np.concatenate(
            [ring_points(k * self.mesh, count) for k, count in enumerate(counts, start=1)]
        )
        self.covered_depth = len(counts) * self.mesh

    def describe(self) -> str:
        return f"rdense({self.mesh:g},{self.depth:g})"

    @property
    def anchor(self) -> complex:
        return 0j

    def search_depth_cap(self) -> float | None:
        return self.covered_depth - self.mesh


_CALL = re.compile(r"^([a-z]+)(?:\((.*)\))?$")


def _parse_call(text: str, table: dict, label: str):
    """One `name(x,...)` token of the domain and map grammars, `name`
    alone for no arguments.  `table` maps each name to (arity,
    constructor); every argument must be a finite number.  Grammar errors
    raise ConfigError prefixed by `label`; the constructor's own errors
    pass through."""
    m = _CALL.match(text.strip().replace(" ", ""))
    if not m:
        raise ConfigError(f"{label}: unrecognized syntax")
    name, argstr = m.group(1), m.group(2)
    try:
        args = [float(a) for a in argstr.split(",")] if argstr else []
    except ValueError:
        raise ConfigError(f"{label}: arguments must be numbers") from None
    if not all(map(math.isfinite, args)):
        raise ConfigError(f"{label}: arguments must be finite numbers")
    if name not in table or table[name][0] != len(args):
        raise ConfigError(f"{label}: unknown name or wrong argument count")
    return table[name][1](*args)


_DOMAINS = {
    "disk": (3, lambda cx, cy, r: EuclideanSubdisk(complex(cx, cy), r)),
    "horodisk": (2, lambda angle, s: Horodisk(cmath.exp(1j * angle), s)),
    "rdense": (2, RDenseComplement),
}


def parse_domain(spec: str) -> DomainModel:
    """Instantiate a catalog entry from its compact text form.

    Grammar: disk(cx,cy,r) | horodisk(angle,s) | rdense(R,depth), with
    finite numbers.
    """
    return _parse_call(spec, _DOMAINS, f"domain spec {reprlib.repr(spec)}")
