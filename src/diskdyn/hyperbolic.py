"""Exact-formula hyperbolic geometry on the open unit disk.

The metric used throughout has density 1/(1 - |z|^2), so the distance from 0
to a point at modulus r is artanh(r).  Map formulas are written with plain
arithmetic operators only, so every callable here evaluates elementwise on
numpy arrays as well as on python complex scalars.
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


class DiskPoint(complex):
    """A complex number of modulus strictly below 1.

    Construction rejects values on or outside the unit circle, including
    anything within 1e-15 of it.  Instances behave as ordinary complex
    numbers in arithmetic (results are plain complex, unvalidated).
    """

    def __new__(cls, *args):
        z = complex(*args)
        if not (1.0 - abs(z) >= BOUNDARY_GUARD):
            raise BoundaryError(
                f"point {z!r} is not strictly inside the unit disk "
                f"(modulus {abs(z)!r}, guard {BOUNDARY_GUARD})"
            )
        return super().__new__(cls, z.real, z.imag)

    def __repr__(self):
        return f"DiskPoint({complex(self)!r})"


def rho(z, w) -> float:
    """Distance artanh|(z - w)/(1 - conj(w) z)| between two disk points.

    The denominator-minus-numerator gap is evaluated through the identity
    |1 - conj(w) z|^2 - |z - w|^2 = (1 - |z|^2)(1 - |w|^2), which avoids
    cancellation when the pseudo-hyperbolic quotient approaches 1.
    """
    z = complex(z)
    w = complex(w)
    num = abs(z - w)
    if num == 0.0:
        return 0.0
    den = abs(1.0 - w.conjugate() * z)
    az = abs(z)
    aw = abs(w)
    gap = (1.0 - az) * (1.0 + az) * (1.0 - aw) * (1.0 + aw) / (den + num)
    if gap <= 0.0:
        raise NumericError(f"distance between {z!r} and {w!r} is not finite")
    return 0.5 * math.log1p(2.0 * num / gap)


def rho_grid(z, w):
    """Vectorized `rho` with numpy broadcasting; returns a float array.

    Unlike the scalar form, inputs on (or marginally outside) the unit
    circle yield +inf rather than raising, so curve scans that graze the
    boundary stay total.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    num = np.abs(z - w)
    den = np.abs(1.0 - np.conjugate(w) * z)
    az = np.abs(z)
    aw = np.abs(w)
    gap = (1.0 - az) * (1.0 + az) * (1.0 - aw) * (1.0 + aw) / (den + num)
    num, gap = np.broadcast_arrays(num, gap)
    ok = gap > 0
    ratio = np.divide(2.0 * num, gap, out=np.zeros_like(num), where=ok & (num > 0))
    return np.where(ok, 0.5 * np.log1p(ratio), np.inf)


@dataclass(frozen=True)
class MobiusAut:
    """Disk automorphism z -> e^{i theta} (z - a)/(1 - conj(a) z)."""

    a: complex = 0j
    theta: float = 0.0

    def __post_init__(self):
        a = complex(DiskPoint(self.a))
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
        a = complex(DiskPoint(self.a))
        if a == 0:
            raise PreconditionError("Blaschke2 requires a nonzero zero a")
        object.__setattr__(self, "a", a)

    def __call__(self, z):
        return z * (z - self.a) / (1.0 - self.a.conjugate() * z)

    def preimages(self, c) -> tuple[DiskPoint, DiskPoint]:
        """Both solutions of B(z) = c, ordered by increasing modulus.

        Solves z^2 - (a - conj(a) c) z - c = 0 with the numerically stable
        branch choice: the larger-magnitude root comes from the quadratic
        formula with a cancellation-free sign, the other from the product of
        roots z1 z2 = -c.  Requires c != 0 and rho(0, c) < 1; equal moduli
        within 1e-14 are reported as an ambiguous ordering.
        """
        c = complex(DiskPoint(c))
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
        small = -c / big
        if abs(big) < abs(small):
            big, small = small, big
        if abs(abs(big) - abs(small)) < 1e-14:
            raise NumericError(
                f"ambiguous preimage ordering for a={self.a!r}, c={c!r}: "
                f"|z1| = |z2| = {abs(small)!r} within 1e-14"
            )
        return DiskPoint(small), DiskPoint(big)


@dataclass(frozen=True)
class HyperbolicDisk:
    """A metric disk {z : rho(center, z) < radius}, radius in rho-units."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", complex(DiskPoint(self.center)))
        r = float(self.radius)
        if not r >= 0.0:
            raise PreconditionError(f"disk radius must be >= 0, got {r!r}")
        object.__setattr__(self, "radius", r)

    def to_euclidean(self) -> tuple[complex, float]:
        """Euclidean (center, radius) of the same point set."""
        t = math.tanh(self.radius)
        d2 = abs(self.center) ** 2
        den = 1.0 - t * t * d2
        return self.center * (1.0 - t * t) / den, t * (1.0 - d2) / den

    @classmethod
    def from_euclidean(cls, center, radius: float) -> "HyperbolicDisk":
        """The hyperbolic disk equal to a Euclidean disk with closure in
        the unit disk.  Rejects disks touching or crossing the circle."""
        center = complex(center)
        radius = float(radius)
        if radius < 0.0:
            raise PreconditionError(f"euclidean radius must be >= 0, got {radius!r}")
        if not (1.0 - (abs(center) + radius) >= BOUNDARY_GUARD):
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
