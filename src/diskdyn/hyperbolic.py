"""Exact-formula hyperbolic geometry on the open unit disk.

The metric used throughout has density 1/(1 - |z|^2), so the distance from 0
to a point at modulus r is artanh(r).  Map formulas are written with plain
arithmetic operators only, so every callable here evaluates elementwise on
numpy arrays as well as on python complex scalars.  Every distance comes
from one kernel, `sinh2_rho`.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, NumericError, PreconditionError

# Points closer than this to the unit circle are rejected, never clamped.
BOUNDARY_GUARD = 1e-15

TWO_PI = 2.0 * math.pi


def disk_point(z) -> complex:
    """complex(z), a point of the disk: rejects every value where `inside`
    is false (on or outside the unit circle, within BOUNDARY_GUARD of
    it, or not finite)."""
    z = complex(z)
    if not inside(z):
        raise BoundaryError(
            f"point {z!r} is not strictly inside the unit disk "
            # math.hypot reads inf where Python's abs would overflow
            f"(modulus {math.hypot(z.real, z.imag)!r}, guard {BOUNDARY_GUARD})"
        )
    return z


def modulus(z):
    """|z| of a point or of each point of an array, bit for bit as Python's
    abs gives it (numpy's complex abs can differ in the last bit, hypot cannot)."""
    # The edge test and the gaps 1 - |z|^2 of the distance kernel read it,
    # one hypot per point; a distance takes no modulus of z - w.  A plain
    # complex skips the dispatch: np.ndim alone costs several times the abs.
    if type(z) is complex:
        return abs(z)
    return np.hypot(z.real, z.imag) if np.ndim(z) else abs(complex(z))


def inside(z, guard: float = BOUNDARY_GUARD):
    """The one edge test of the disk: 1 - |z| >= guard, with |z| from
    `modulus`.  A bool for a point, a bool array of its shape for an
    array; never true for NaN or inf, nor for finite parts whose modulus
    overflows a double.  disk_point accepts exactly the points where
    inside(z) holds."""
    # Such a modulus is inf for hypot, which then warns, and an
    # OverflowError for Python's abs; both mean outside.
    try:
        if not isinstance(z, np.ndarray):
            return 1.0 - modulus(z) >= guard
        with np.errstate(over="ignore"):
            return 1.0 - modulus(z) >= guard
    except OverflowError:
        return False


def sinh2_rho(z, w):
    """sinh^2 rho(z, w) = |z - w|^2 / ((1 - |z|^2)(1 - |w|^2)), the one
    distance kernel: a float for a pair of points, a float array over
    broadcast arrays; +inf where a point is on or outside the unit circle.

    Computed in real arithmetic by `_sinh2`: the numerator from coordinate
    differences, each gap 1 - |z|^2 as (1 - |z|)(1 + |z|) from `modulus`.
    A pair gets the same bits alone and inside an array, and swapping z
    and w changes no bit.  It increases with rho: compare, maximize and
    minimize in it, and convert a reported number once with `rho_of`.
    """
    # A pair of plain complex numbers skips the dispatch: np.ndim alone
    # costs several times the arithmetic of the point path.
    if not (type(z) is complex and type(w) is complex):
        if np.ndim(z) or np.ndim(w):
            p, r = _coords(np.asarray(z, dtype=complex)), _coords(np.asarray(w, dtype=complex))
            return _sinh2_or_inf(p, r)
        z, w = complex(z), complex(w)
    az, aw = abs(z), abs(w)
    gz, gw = (1.0 - az) * (1.0 + az), (1.0 - aw) * (1.0 + aw)
    if not (gz > 0.0 and gw > 0.0):
        return math.inf
    return _sinh2((z.real, z.imag, gz), (w.real, w.imag, gw))


def _coords(z: np.ndarray) -> tuple:
    """The arrays x, y and gap (1 - |z|)(1 + |z|) of the points of an
    array: the points as `_sinh2` takes them."""
    a = modulus(z)
    return z.real, z.imag, (1.0 - a) * (1.0 + a)


def _sinh2(p, q):
    """(dx^2 + dy^2) / (g h) for p = (x, y, g) and q = (u, v, h), with
    dx = x - u and dy = y - v: the formula of `sinh2_rho`, on floats or
    elementwise over broadcast arrays, for gaps g, h > 0.  Swapping p and
    q flips the signs of dx and dy only, and p == q gives 0.0.  The
    numerator is squared and summed in place, so a block of pairs costs
    two temporaries besides the product of the gaps."""
    (x, y, g), (u, v, h) = p, q
    dx, dy = x - u, y - v
    dx *= dx
    dy *= dy
    dx += dy
    dx /= g * h
    return dx


def _sinh2_or_inf(p, q):
    """`_sinh2` over the `_coords` of two broadcast arrays, +inf wherever
    either gap is not positive: the array branch of `sinh2_rho`."""
    # Pairs off the disk may overflow or divide by a gap of 0; they read
    # inf whatever they computed.
    with np.errstate(all="ignore"):
        out = _sinh2(p, q)
    out[~((p[2] > 0.0) & (q[2] > 0.0))] = np.inf
    return out


def rho_of(q: float) -> float:
    """The distance whose sinh^2 is q."""
    return math.asinh(math.sqrt(q))


def rho(z, w) -> float:
    """Distance artanh|(z - w)/(1 - conj(w) z)| between two disk points,
    as asinh of the square root of `sinh2_rho`."""
    q = sinh2_rho(complex(z), complex(w))
    if not math.isfinite(q):
        raise NumericError(f"distance between {z!r} and {w!r} is not finite")
    return rho_of(q)


def rho_grid(z, w):
    """`rho` over broadcast arrays, +inf on or outside the unit circle."""
    return np.arcsinh(np.sqrt(sinh2_rho(z, w)))


@dataclass(frozen=True)
class MobiusAut:
    """Disk automorphism z -> e^{i theta} (z - a)/(1 - conj(a) z)."""

    a: complex = 0j
    theta: float = 0.0

    def __post_init__(self):
        a = disk_point(self.a)
        if not math.isfinite(self.theta):
            raise PreconditionError(f"rotation angle must be finite, got {self.theta!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)
        object.__setattr__(self, "_phase", cmath.exp(1j * self.theta))

    def __call__(self, z):
        return self._phase * (z - self.a) / (1.0 - self.a.conjugate() * z)

    def _matrix(self):
        # Row-major coefficients of (p z + q)/(r z + s).
        return (self._phase, -self._phase * self.a, -self.a.conjugate(), 1.0 + 0j)

    def compose(self, other: "MobiusAut") -> "MobiusAut":
        """The automorphism z -> self(other(z))."""
        p1, q1, r1, s1 = self._matrix()
        p2, q2, r2, s2 = other._matrix()
        p = p1 * p2 + q1 * r2
        q = p1 * q2 + q1 * s2
        s = r1 * q2 + s1 * s2
        return MobiusAut(-q / p, cmath.phase(p / s))

    def inverse(self) -> "MobiusAut":
        return MobiusAut(-self._phase * self.a, -self.theta)

    @classmethod
    def rotation(cls, theta: float) -> "MobiusAut":
        return cls(0j, theta)

    @classmethod
    def two_point(cls, p, q, theta: float = 0.0) -> "MobiusAut":
        """An automorphism sending p to q.

        Varying theta over [0, 2 pi) sweeps the full one-parameter family of
        such maps (rotation freedom about the image point).
        """
        to_p = cls(p, 0.0)
        from_q = cls(q, 0.0).inverse()
        return from_q.compose(cls.rotation(theta).compose(to_p))


@dataclass(frozen=True)
class Blaschke2:
    """Degree-two Blaschke product z -> z (z - a)/(1 - conj(a) z), a != 0.

    A proper two-to-one holomorphic self-map of the disk with critical
    value structure controlled by the zero a.
    """

    a: complex

    def __post_init__(self):
        a = disk_point(self.a)
        if a == 0:
            raise PreconditionError("Blaschke2 requires a nonzero zero a")
        object.__setattr__(self, "a", a)

    def __call__(self, z):
        return z * (z - self.a) / (1.0 - self.a.conjugate() * z)

    def preimages(self, c) -> tuple[complex, complex]:
        """Both solutions of B(z) = c, ordered by increasing modulus.

        Solves z^2 - (a - conj(a) c) z - c = 0 with the numerically stable
        branch choice: the larger-magnitude root comes from the quadratic
        formula with a cancellation-free sign, the other from the product of
        roots z1 z2 = -c.  Requires c != 0 and rho(0, c) < 1; equal moduli
        within 1e-14 are reported as an ambiguous ordering.
        """
        c = disk_point(c)
        if c == 0:
            raise PreconditionError("preimages require a nonzero target c")
        if rho(0.0, c) >= 1.0:
            raise PreconditionError(
                f"target c={c!r} has rho(0, c) >= 1 (|c| >= tanh 1)"
            )
        b = -(self.a - self.a.conjugate() * c)
        disc = b * b + 4.0 * c
        root = cmath.sqrt(disc)
        if (b.conjugate() * root).real < 0.0:
            root = -root
        big = -0.5 * (b + root)
        # The sign makes Re(conj(b) root) >= 0, so |big| >= |small| up to
        # rounding, and the check below refuses any rounding-level tie.
        small = -c / big
        if abs(abs(big) - abs(small)) < 1e-14:
            raise NumericError(
                f"ambiguous preimage ordering for a={self.a!r}, c={c!r}: "
                f"|z1| = |z2| = {abs(small)!r} within 1e-14"
            )
        return disk_point(small), disk_point(big)


@dataclass(frozen=True)
class HyperbolicDisk:
    """A metric disk {z : rho(center, z) < radius}, radius in rho-units."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", disk_point(self.center))
        r = float(self.radius)
        if not r >= 0.0:
            raise PreconditionError(f"disk radius must be >= 0, got {r!r}")
        object.__setattr__(self, "radius", r)

    @classmethod
    def from_euclidean(cls, center, radius: float) -> "HyperbolicDisk":
        """The hyperbolic disk equal to a Euclidean disk with closure in
        the unit disk.  Rejects disks touching or crossing the circle."""
        center = complex(center)
        radius = float(radius)
        if radius < 0.0:
            raise PreconditionError(f"euclidean radius must be >= 0, got {radius!r}")
        if not inside(modulus(center) + radius):
            raise BoundaryError(
                f"euclidean disk (center {center!r}, radius {radius!r}) "
                "does not have closure inside the unit disk"
            )
        x = abs(center)
        phase = center / x if x > 0 else 1.0 + 0j
        # Reduce to the real axis: endpoints of the diameter through 0.
        p, q = x - radius, x + radius
        r = 0.5 * rho(p, q)
        m = math.tanh(r)
        h = (p + m) / (1.0 + p * m)
        return cls(h * phase, r)
