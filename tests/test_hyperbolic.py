import cmath
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskdyn.errors import BoundaryError, NumericError, PreconditionError
from diskdyn.hyperbolic import (
    Blaschke2,
    HyperbolicDisk,
    MobiusAut,
    disk_point,
    inside,
    modulus,
    rho,
    rho_grid,
    sinh2_rho,
)


def _rand_point(rng, rmax=0.95):
    r = rmax * math.sqrt(rng.random())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return r * cmath.exp(1j * phi)


def test_disk_point_guard():
    assert disk_point(0.5j) == 0.5j
    for bad in (1.0, -1.0, 1.0 + 0j, 0.8 + 0.7j, 1.0 - 1e-16):
        with pytest.raises(BoundaryError):
            disk_point(bad)
    # NaN must not slip through the guard comparison.
    with pytest.raises(BoundaryError):
        disk_point(complex("nan"))
    # Nor finite parts whose modulus overflows a double: no OverflowError
    # from Python's abs, no overflow warning from hypot.
    huge = complex(1.7e308, 1.7e308)
    assert inside(huge) is False
    with pytest.raises(BoundaryError, match="modulus inf"):
        disk_point(huge)
    assert inside(np.array([huge, 0.5j, -huge])).tolist() == [False, True, False]


_ULP = 2.0**-53  # spacing of doubles just below 1


@given(
    zs=st.lists(st.complex_numbers(max_magnitude=1e300), max_size=16),
    edge=st.lists(
        st.tuples(st.integers(0, 40), st.floats(0.0, 2.0 * math.pi)), max_size=16
    ),
)
def test_disk_point_accepts_exactly_where_inside_holds(zs, edge):
    # Points a few ulps either side of the guard, NaN and inf among them.
    inf, nan = math.inf, math.nan
    pts = [*zs, complex(nan, 0.0), complex(inf, 0.0), complex(nan, inf), 1.0 - 9 * _ULP]
    pts += [(1.0 - k * _ULP) * cmath.exp(1j * phi) for k, phi in edge]
    arr = np.array(pts, dtype=complex)
    got = inside(arr)
    assert got.shape == arr.shape and got.dtype == bool
    assert inside(arr.reshape(1, -1)).tolist() == [got.tolist()]
    for z, flag in zip(pts, got.tolist()):
        assert type(inside(z)) is bool and inside(z) == flag
        assert modulus(z) == modulus(np.array([z]))[0] or math.isnan(modulus(z))
        try:
            disk_point(z)
        except BoundaryError:
            assert not flag, z
        else:
            assert flag, z
    assert inside(1.0 - 10 * _ULP) and not inside(1.0 - 9 * _ULP)


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


_POINTS = st.lists(st.complex_numbers(max_magnitude=1.5), min_size=1, max_size=24)


@given(zs=_POINTS, ws=_POINTS)
def test_sinh2_rho_arrays_match_pairs_bit_for_bit(zs, ws):
    # One kernel: every entry of the broadcast array is the value the pair
    # gets alone, and swapping the arguments changes no bit.  Points on or
    # past the circle read +inf in both.
    z, w = np.array(zs, dtype=complex), np.array(ws, dtype=complex)
    q = sinh2_rho(z[:, None], w[None, :])
    assert q.shape == (z.size, w.size) and q.dtype == float
    for i, a in enumerate(zs):
        for j, b in enumerate(ws):
            assert q[i, j] == sinh2_rho(a, b) == sinh2_rho(b, a) == sinh2_rho(z[i], w[j])
            assert (q[i, j] == math.inf) == (abs(a) >= 1.0 or abs(b) >= 1.0)
    assert np.array_equal(sinh2_rho(w[:, None], z[None, :]), q.T)


def test_rho_matches_50_digit_oracle():
    # 1e-14 relative for moduli up to 0.999.  Every third pair is close:
    # its small distance inherits the rounding of 1 - |z| in full, about
    # 2^-53 / (1 - |z|) relative, which exceeds 1e-14 near the circle.
    rng = random.Random(16)

    def point():
        return rng.uniform(0.0, 0.999) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))

    with mpmath.workdps(50):
        for k in range(3000):
            z = point()
            if k % 3:
                w, tol = point(), 1e-14
            else:
                w = z + 1e-6 * complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                tol = max(1e-14, 2.0**-52 / (1.0 - max(abs(z), abs(w))))
            if abs(w) > 0.999:
                continue
            a, b = mpmath.mpc(z), mpmath.mpc(w)
            exact = mpmath.atanh(abs(a - b) / abs(1 - mpmath.conj(b) * a))
            assert abs(rho(z, w) - exact) <= tol * exact, (z, w)


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


def test_mobius_rejects_non_finite_angle():
    for theta in (math.nan, math.inf):
        with pytest.raises(PreconditionError, match="finite"):
            MobiusAut(0.1, theta)


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


def _on_circle(center, radius):
    """Eight points of the Euclidean circle |z - center| = radius."""
    return [center + radius * cmath.exp(0.25j * math.pi * k) for k in range(8)]


def test_hyperbolic_disk_conversions():
    # The hyperbolic disk from a Euclidean one has that circle as its
    # boundary: every point of it lies at rho = radius from the center.
    rng = random.Random(19)
    for _ in range(2000):
        c = _rand_point(rng, 0.9)
        r = rng.uniform(0.05, 1.0 - abs(c))
        if 1.0 - (abs(c) + r) < 1e-6:
            continue
        d = HyperbolicDisk.from_euclidean(c, r)
        for z in _on_circle(c, r):
            assert rho(d.center, z) == pytest.approx(d.radius, rel=1e-12), (c, r)


def test_from_euclidean_requires_compact_closure():
    with pytest.raises(PreconditionError):
        HyperbolicDisk.from_euclidean(0.5, 0.5)  # internally tangent
    with pytest.raises(PreconditionError):
        HyperbolicDisk.from_euclidean(0.9, 0.3)  # sticks out


def test_disk_conversion_helpers():
    d = HyperbolicDisk.from_euclidean(0j, 0.5)
    assert abs(d.center) < 1e-15 and d.radius == pytest.approx(math.atanh(0.5), rel=1e-14)
    for z in _on_circle(0j, 0.5):
        assert rho(d.center, z) == pytest.approx(d.radius, rel=1e-12)
