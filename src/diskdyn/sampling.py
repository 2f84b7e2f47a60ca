"""Deterministic sampling helpers.

Hyperbolic lattices and ring grids for searches, low-discrepancy disk
samples for witness verification, and zoomed scans for the distance to
a boundary curve.  All outputs depend only on the arguments, never on
global state.
"""
from __future__ import annotations

import math

import numpy as np

from .hyperbolic import _coords, _sinh2_or_inf, inside, rho_of

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# curve_min_rho's points per scan and number of scans.  Three scans leave
# a relative error near 1e-10 at points close to the curve; four reach
# the rounding floor of the curve's own evaluation.
_CURVE_SCAN = 2048
_CURVE_SCANS = 4
# The parameters of a scan window (lo, width) are lo + width * _CURVE_T,
# the midpoints of its _CURVE_SCAN cells.  Dividing by a power of two is
# exact, so these are the bits of lo + width * (k + 0.5) / _CURVE_SCAN.
_CURVE_T = (np.arange(_CURVE_SCAN) + 0.5) / _CURVE_SCAN


def ring_points(rho_radius: float, count: int, offset: float = 0.0) -> np.ndarray:
    """`count` points equally spaced in angle on the circle of hyperbolic
    radius `rho_radius` about 0, starting at angle `offset` (radians)."""
    t = math.tanh(rho_radius)
    angles = offset + 2.0 * math.pi * np.arange(count) / count
    return t * np.exp(1j * angles)


def hyperbolic_lattice(depth: float, spacing: float, angular_cap: int) -> np.ndarray:
    """Concentric-ring lattice covering {rho(0, z) <= depth}, origin excluded.

    Rings sit at radii spacing, 2*spacing, ... up to depth, and stop at the
    last one that can hold a disk point (its point on the positive real
    axis passes `hyperbolic.inside`); per-ring counts track the ring
    circumference pi*sinh(2r) so the angular gap stays near `spacing`,
    capped at `angular_cap` to keep deep lattices tractable.
    """
    out = []
    k = 1
    while k * spacing <= depth + 1e-12 and inside(math.tanh(k * spacing)):
        r = k * spacing
        m = min(max(6, math.ceil(math.pi * math.sinh(2.0 * r) / spacing)), angular_cap)
        out.append(ring_points(r, m))
        k += 1
    if not out:
        return np.zeros(0, dtype=complex)
    return np.concatenate(out)


def witness_samples(center, rho_radius: float, count: int) -> np.ndarray:
    """Deterministic low-discrepancy sample of the closed hyperbolic disk.

    Concentric rings out to and including the boundary circle, per-ring
    counts growing linearly, with a golden-ratio angular stagger between
    rings; the center itself is included.
    """
    n_rings = max(1, int(math.sqrt(count / 3.0)))
    weights = np.arange(1, n_rings + 1, dtype=float)
    # Ceiling keeps the total at or above the requested count.
    per_ring = np.maximum(4, np.ceil((count - 1) * weights / weights.sum()).astype(int))
    pts = [np.zeros(1, dtype=complex)]
    for i, m in enumerate(per_ring, start=1):
        r = rho_radius * i / n_rings
        pts.append(ring_points(r, int(m), offset=2.0 * math.pi * _INV_GOLDEN * i))
    base = np.concatenate(pts)
    center = complex(center)
    # Push the 0-centered sample to the requested center isometrically.
    return (base + center) / (1.0 + center.conjugate() * base)


def _curve_window(curve, lo, width) -> tuple:
    """The `_coords` (x, y, gap) of a closed curve at the parameters of
    the window (lo, width), taken mod 1.  `curve` maps parameters in
    [0, 1) to disk points and must accept numpy arrays."""
    return _coords(np.asarray(curve((lo + width * _CURVE_T) % 1.0), dtype=complex))


def curve_min_rho(point, scan) -> float:
    """Minimum hyperbolic distance from `point` to a closed curve.

    `scan(lo, width)` returns the `_coords` (x, y, gap) of the curve at
    the parameters lo + width * _CURVE_T, taken mod 1, as
    `_curve_window(curve, lo, width)` computes them.  They depend on the
    window (lo, width) alone, so a scan may hand back a window it kept.
    The window (0, 1) spreads _CURVE_SCAN parameters over the whole curve
    and finds the nearest sample; each further window, _CURVE_SCANS in
    all, covers the three spacings around the previous one's nearest
    sample.  Samples on or past the unit circle read +inf.
    """
    p = _coords(np.asarray(point, dtype=complex))
    lo, width = 0.0, 1.0
    best = math.inf
    for _ in range(_CURVE_SCANS):
        q = _sinh2_or_inf(p, scan(lo, width))
        k = int(np.argmin(q))
        best = min(best, float(q[k]))
        t = lo + width * _CURVE_T[k]
        lo, width = t - 1.5 * width / _CURVE_SCAN, 3.0 * width / _CURVE_SCAN
    return rho_of(best)
