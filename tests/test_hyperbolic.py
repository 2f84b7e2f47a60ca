import cmath
import math
import random

import numpy as np
import pytest

from diskdyn.errors import BoundaryError, NumericError, PreconditionError
from diskdyn.hyperbolic import (
    Blaschke2,
    DiskPoint,
    HyperbolicDisk,
    MobiusAut,
    rho,
    rho_grid,
)


def _rand_point(rng, rmax=0.95):
    r = rmax * math.sqrt(rng.random())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return r * cmath.exp(1j * phi)


def test_disk_point_guard():
    assert complex(DiskPoint(0.5j)) == 0.5j
    for bad in (1.0, -1.0, 1.0 + 0j, 0.8 + 0.7j, 1.0 - 1e-16):
        with pytest.raises(BoundaryError):
            DiskPoint(bad)
    # NaN must not slip through the guard comparison.
    with pytest.raises(BoundaryError):
        DiskPoint(complex("nan"))


def test_rho_basics():
    rng = random.Random(11)
    assert rho(0.3, 0.3) == 0.0
    for _ in range(200):
        z, w = _rand_point(rng), _rand_point(rng)
        assert rho(z, w) == pytest.approx(rho(w, z), abs=1e-13)
        assert rho(z, w) >= 0.0
    # closed form on a radius
    for r in (0.1, 0.5, 0.9, 0.99):
        assert rho(0.0, r) == pytest.approx(math.atanh(r), rel=1e-14)


def test_rho_grid_matches_scalar_and_absorbs_boundary():
    rng = random.Random(12)
    zs = np.array([_rand_point(rng) for _ in range(40)])
    ws = np.array([_rand_point(rng) for _ in range(40)])
    grid = rho_grid(zs, ws)
    for k in range(40):
        assert grid[k] == pytest.approx(rho(zs[k], ws[k]), abs=1e-13)
    # scalar raises at the boundary, the grid helper reports +inf instead
    with pytest.raises(NumericError):
        rho(0.0, 1.0)
    assert rho_grid(np.array([0.0]), np.array([1.0 + 0j]))[0] == math.inf


def test_mobius_isometry_bulk():
    rng = random.Random(13)
    for _ in range(10_000):
        T = MobiusAut(_rand_point(rng, 0.9), rng.uniform(0.0, 2.0 * math.pi))
        z, w = _rand_point(rng), _rand_point(rng)
        assert abs(rho(T(z), T(w)) - rho(z, w)) < 1e-12


def test_mobius_compose_and_inverse():
    rng = random.Random(14)
    for _ in range(500):
        A = MobiusAut(_rand_point(rng, 0.9), rng.uniform(0.0, 2.0 * math.pi))
        B = MobiusAut(_rand_point(rng, 0.9), rng.uniform(0.0, 2.0 * math.pi))
        C = A.compose(B)
        Ainv = A.inverse()
        z = _rand_point(rng)
        assert abs(C(z) - A(B(z))) < 1e-13
        assert abs(Ainv(A(z)) - z) < 1e-13
        assert abs(A(Ainv(z)) - z) < 1e-13


def test_mobius_two_point_sends_p_to_q():
    rng = random.Random(15)
    for _ in range(300):
        p, q = _rand_point(rng), _rand_point(rng)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        T = MobiusAut.two_point(p, q, theta)
        assert abs(T(p) - q) < 1e-13
        # two-point transports are isometries like any automorphism
        z, w = _rand_point(rng), _rand_point(rng)
        assert abs(rho(T(z), T(w)) - rho(z, w)) < 1e-12


def test_rotation_fixes_origin():
    R = MobiusAut.rotation(0.7)
    assert R(0j) == 0j
    assert abs(R(0.5) - 0.5 * cmath.exp(0.7j)) < 1e-15


def test_blaschke_vieta_and_ordering():
    # target values stay inside rho(0, c) < 1, the documented range
    rng = random.Random(16)
    for _ in range(1000):
        a = _rand_point(rng, 0.9)
        c = _rand_point(rng, 0.75)
        if abs(a) < 1e-3:
            continue
        try:
            z1, z2 = Blaschke2(a).preimages(c)
        except NumericError:
            continue  # tie ordering is undefined; rejected by contract
        assert abs(z1 * z2 - (-c)) < 1e-12
        assert abs(z1) <= abs(z2)


def test_blaschke_preimages_map_back():
    rng = random.Random(17)
    A = Blaschke2(0.6 + 0.1j)
    for _ in range(300):
        c = _rand_point(rng, 0.75)
        z1, z2 = A.preimages(c)
        assert abs(A(z1) - c) < 1e-11
        assert abs(A(z2) - c) < 1e-11


def test_blaschke_pair_distance_identity():
    # rho(0, z_small) equals rho(a, z_big) for every preimage pair
    rng = random.Random(18)
    for _ in range(1000):
        a = _rand_point(rng, 0.9)
        c = _rand_point(rng, 0.75)
        if abs(a) < 1e-3:
            continue
        try:
            z1, z2 = Blaschke2(a).preimages(c)
        except NumericError:
            continue
        assert abs(rho(0.0, z1) - rho(a, z2)) < 1e-10


def test_blaschke_tie_is_rejected():
    with pytest.raises(NumericError):
        Blaschke2(0.2752 * (1 + 1j)).preimages(-0.09j)


def test_blaschke_small_preimage_converges():
    c = 0.3
    target = rho(0.0, c)
    gaps = []
    for mod in (0.9, 0.99, 0.999):
        z1, _z2 = Blaschke2(mod).preimages(c)
        gaps.append(abs(rho(0.0, z1) - target))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_blaschke_rejects_bad_zero():
    with pytest.raises(PreconditionError):
        Blaschke2(1.0)
    with pytest.raises(PreconditionError):
        Blaschke2(0.0)


def test_hyperbolic_disk_conversions():
    d = HyperbolicDisk(0j, math.atanh(0.5))
    center, radius = d.to_euclidean()
    assert abs(center) < 1e-15 and radius == pytest.approx(0.5, rel=1e-14)
    back = HyperbolicDisk.from_euclidean(center, radius)
    assert abs(back.center - d.center) < 1e-14
    assert back.radius == pytest.approx(d.radius, rel=1e-12)

    rng = random.Random(19)
    for _ in range(200):
        c = _rand_point(rng, 0.6)
        r = rng.uniform(0.1, 1.5)
        ec, er = HyperbolicDisk(c, r).to_euclidean()
        if 1.0 - (abs(ec) + er) < 1e-12:
            continue
        back = HyperbolicDisk.from_euclidean(ec, er)
        assert abs(back.center - c) < 1e-10
        assert back.radius == pytest.approx(r, rel=1e-10)


def test_from_euclidean_requires_compact_closure():
    with pytest.raises(PreconditionError):
        HyperbolicDisk.from_euclidean(0.5, 0.5)  # internally tangent
    with pytest.raises(PreconditionError):
        HyperbolicDisk.from_euclidean(0.9, 0.3)  # sticks out


def test_disk_conversion_helpers():
    d = HyperbolicDisk.from_euclidean(0j, 0.5)
    assert d.radius == pytest.approx(math.atanh(0.5), rel=1e-14)
    center, radius = d.to_euclidean()
    assert abs(center) < 1e-14 and radius == pytest.approx(0.5, rel=1e-12)
