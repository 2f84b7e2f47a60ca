"""Deterministic sampling helpers.

Hyperbolic lattices and ring grids for searches, low-discrepancy disk
samples for witness verification, and a scalar golden-section minimizer.
All outputs depend only on the arguments, never on global state.
"""
from __future__ import annotations

import math

import numpy as np

from .hyperbolic import rho_grid

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# curve_min_rho's coarse scan size and golden-section step count.
_CURVE_SCAN = 2048
_CURVE_REFINE_ITERS = 60


def ring_points(rho_radius: float, count: int, offset: float = 0.0) -> np.ndarray:
    """`count` points equally spaced in angle on the circle of hyperbolic
    radius `rho_radius` about 0, starting at angle `offset` (radians)."""
    t = math.tanh(rho_radius)
    angles = offset + 2.0 * math.pi * np.arange(count) / count
    return t * np.exp(1j * angles)


def hyperbolic_lattice(depth: float, spacing: float, angular_cap: int | None = None) -> np.ndarray:
    """Concentric-ring lattice covering {rho(0, z) <= depth}, origin excluded.

    Rings sit at radii spacing, 2*spacing, ...; per-ring counts track the
    ring circumference pi*sinh(2r) so the angular gap stays near `spacing`,
    optionally capped to keep deep lattices tractable.
    """
    out = []
    k = 1
    while k * spacing <= depth + 1e-12:
        r = k * spacing
        m = max(6, math.ceil(math.pi * math.sinh(2.0 * r) / spacing))
        if angular_cap is not None:
            m = min(m, angular_cap)
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


def golden_min(f, lo: float, hi: float, iters: int = 60) -> tuple[float, float]:
    """Golden-section minimum of a unimodal scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def curve_min_rho(point, curve) -> float:
    """Minimum hyperbolic distance from `point` to a closed curve.

    `curve` maps a parameter in [0, 1) to a disk point and must accept numpy
    arrays.  A coarse scan of _CURVE_SCAN parameters locates the best arc,
    _CURVE_REFINE_ITERS golden-section steps refine it.
    """
    ts = (np.arange(_CURVE_SCAN) + 0.5) / _CURVE_SCAN
    dists = rho_grid(complex(point), curve(ts))
    k = int(np.argmin(dists))
    lo = (ts[k] - 1.5 / _CURVE_SCAN)
    hi = (ts[k] + 1.5 / _CURVE_SCAN)

    def refined(t):
        # rho_grid, not rho: boundary-grazing samples must read +inf, not raise.
        return float(rho_grid(complex(point), curve(t % 1.0)))

    _, best = golden_min(refined, lo, hi, _CURVE_REFINE_ITERS)
    return min(best, float(dists[k]))
