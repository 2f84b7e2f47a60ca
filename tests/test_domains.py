import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mobius_image
from diskdyn.bloch import RadialStretch, StretchedDomain, bloch_radius_search
from diskdyn.constructions import (
    build_nonconstant_system,
    covering_with_basepoint,
    point_at_intrinsic_distance,
)
from diskdyn.domains import (
    DomainModel,
    EuclideanSubdisk,
    Horodisk,
    RDenseComplement,
    parse_domain,
)
from diskdyn.errors import NumericError, PreconditionError
from diskdyn.hyperbolic import Blaschke2, MobiusAut, inside, rho, rho_grid
from diskdyn.ifs import Affine, compose_eval


def _rand_point(rng, rmax=0.95):
    r = rmax * math.sqrt(rng.random())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return r * cmath.exp(1j * phi)


def test_catalog_flags():
    disk = EuclideanSubdisk(0j, 0.5)
    horo = Horodisk(1.0, 0.5)
    net = RDenseComplement(0.5, 2.0)
    assert disk.relatively_compact and disk.expected_bloch and disk.simply_connected
    assert not horo.relatively_compact and not horo.expected_bloch
    assert horo.simply_connected
    assert net.expected_bloch and not net.simply_connected


def test_subdisk_membership_and_anchor():
    X = EuclideanSubdisk(0j, 0.5)
    assert X.contains(0.49) and X.contains(0j) and not X.contains(0.5)
    assert X.contains(complex(X.anchor))


def test_subdisk_inradius_closed_form_vs_curve_oracle():
    X = EuclideanSubdisk(0j, 0.5)
    rng = random.Random(21)
    assert X.inradius_at(0j) == pytest.approx(math.atanh(0.5), abs=1e-12)
    for _ in range(20):
        a = _rand_point(rng, 0.45)
        closed = X.inradius_at(a)
        generic = DomainModel.inradius_at(X, a)  # numeric boundary scan
        assert closed == pytest.approx(generic, abs=1e-8)


def test_subdisk_riemann_roundtrip():
    X = EuclideanSubdisk(0.1 + 0.2j, 0.4)
    rng = random.Random(22)
    for _ in range(100):
        u = _rand_point(rng)
        x = X.riemann_to(u)
        assert X.contains(x)
        assert abs(X.riemann_from(x) - u) < 1e-11


def test_intrinsic_metric_dominates_ambient():
    rng = random.Random(23)
    for X in (EuclideanSubdisk(0j, 0.5), Horodisk(1.0, 0.5)):
        for _ in range(200):
            u = X.riemann_to(_rand_point(rng, 0.9))
            v = X.riemann_to(_rand_point(rng, 0.9))
            assert X.rho_X(u, v) >= rho(u, v) - 1e-12


def test_horodisk_membership():
    X = Horodisk(1.0, 0.5)
    assert X.contains(0.5) and X.contains(0.9) and X.contains(0.3)
    assert not X.contains(0j) and not X.contains(-0.1) and not X.contains(1.0)


def test_horodisk_tangency_rotation_equivariance():
    rng = random.Random(24)
    xi = cmath.exp(0.77j)
    X1 = Horodisk(1.0, 0.4)
    X2 = Horodisk(xi, 0.4)
    for _ in range(300):
        z = _rand_point(rng)
        assert X1.contains(z) == X2.contains(xi * z)


def test_horodisk_rejects_interior_tangency():
    with pytest.raises(PreconditionError):
        Horodisk(0.5, 0.3)
    with pytest.raises(PreconditionError):
        Horodisk(1.0, 1.2)
    with pytest.raises(PreconditionError):
        Horodisk(complex("nan"), 0.5)


def test_horodisk_inradius_closed_form_vs_curve_oracle():
    X = Horodisk(1.0, 0.5)
    rng = random.Random(25)
    pts = [0.5 + 0j, 0.7 + 0.1j, 0.6 - 0.2j]
    pts += [X.riemann_to(_rand_point(rng, 0.7)) for _ in range(10)]
    for a in pts:
        closed = X.inradius_at(a)
        generic = DomainModel.inradius_at(X, a)
        assert closed == pytest.approx(generic, abs=1e-7)


def test_horodisk_deep_point_path():
    X = Horodisk(1.0, 0.5)
    prev = -math.inf
    for t in (1.0, 2.0, 3.0, 4.0, 5.0):
        a = X.deep_point(t)
        assert X.contains(a)
        r = X.inradius_at(a)
        assert r == pytest.approx(t, abs=1e-9)
        # for size 1/2 the deep path leaves the origin at unit speed
        assert rho(0.0, a) == pytest.approx(t, abs=1e-9)
        assert r > prev
        prev = r


@pytest.mark.parametrize(
    "X",
    [
        *map(parse_domain, ("disk(0.1,0.2,0.4)", "horodisk(0.7,0.5)", "rdense(0.5,2)")),
        StretchedDomain(Horodisk(cmath.exp(0.7j), 0.5), RadialStretch(2.0)),
    ],
    ids=lambda X: X.describe(),
)
def test_returned_points_are_plain_complex(X):
    # A point of the disk is a complex that passed disk_point, not a subclass
    # the distance kernel's fast paths would miss.
    assert type(X.anchor) is complex
    assert type(bloch_radius_search(X).best_center) is complex
    assert type(compose_eval([Affine(0.5, 0.2)], np.complex128(X.anchor))) is complex
    if isinstance(X, Horodisk):
        a = X.deep_point(2.0)
        assert type(a) is complex
        assert all(type(z) is complex for z in Blaschke2(a).preimages(0.3))
        w0 = point_at_intrinsic_distance(X, X.anchor, 0.3)
        _seq, steps = build_nonconstant_system(X, X.anchor, w0, 2)
        assert all(type(s.marked_tilde) is complex for s in steps)


def test_horodisk_deep_point_overflow_is_numeric_error():
    with pytest.raises(NumericError):
        Horodisk(1.0, 0.5).deep_point(40.0)


def test_horodisk_probe_points():
    X = Horodisk(1.0, 0.5)
    pts = X.probe_points(3.5)
    assert len(pts) == 4  # depths 1, 2, 3, 3.5
    assert all(X.contains(p) for p in pts)
    assert EuclideanSubdisk(0j, 0.5).probe_points(3.0) == []


def test_rdense_construction_counts():
    X = RDenseComplement(0.5, 4.0)
    assert X.punctures.size == 14812
    assert X.covered_depth == pytest.approx(4.0)
    assert X.search_depth_cap() == pytest.approx(3.5)
    # every puncture is a disk point on one of the sampled circles
    radii = np.unique(np.round(np.arctanh(np.abs(X.punctures)), 9))
    assert radii.size == 8
    assert radii[0] == pytest.approx(0.5, abs=1e-9)


def test_rdense_membership_excludes_punctures():
    X = RDenseComplement(0.5, 2.0)
    z = complex(X.punctures[3])
    assert not X.contains(z)
    assert X.contains(z + 1e-9)
    assert X.contains(0j)


@pytest.mark.parametrize(
    "image",
    [
        lambda net: net,
        lambda net: StretchedDomain(net, RadialStretch(2.0)),
    ],
    ids=["net", "stretched"],
)
def test_punctures_are_never_members(image):
    # The stretch's inverse map need not land exactly on a base puncture,
    # so a mapped puncture is excluded by its own exact hit.
    Y = image(RDenseComplement(0.5, 3.0))
    assert not Y.contains(Y.punctures).any()
    assert not any(Y.contains(complex(p)) for p in Y.punctures[::97])
    with pytest.raises(PreconditionError):
        Y.inradius_at(complex(Y.punctures[7]))


def test_rdense_net_property():
    # punctures form a mesh-net out to the covered depth
    X = RDenseComplement(0.5, 4.0)
    rng = random.Random(26)
    samples = []
    while len(samples) < 2048:
        z = _rand_point(rng, 0.9995)
        if rho(0.0, z) <= X.covered_depth:
            samples.append(z)
    worst = 0.0
    for k in range(0, len(samples), 256):
        chunk = np.array(samples[k : k + 256])
        d = rho_grid(chunk[:, None], X.punctures[None, :]).min(axis=1)
        worst = max(worst, float(d.max()))
    assert worst <= X.mesh + 1e-9


def test_rdense_inradius_bounded_by_mesh():
    X = RDenseComplement(0.5, 4.0)
    assert X.inradius_at(0j) == pytest.approx(0.5, abs=1e-12)
    rng = random.Random(27)
    for _ in range(50):
        z = _rand_point(rng, 0.95)
        if rho(0.0, z) <= X.search_depth_cap() and X.contains(z):
            assert X.inradius_at(z) <= X.mesh + 1e-9


def test_mobius_image_transport():
    # An automorphism is an isometry: the closed-form image carries
    # membership, the intrinsic metric and the inradius field over.
    m = MobiusAut(0.3 + 0.1j, 0.7)
    rng = random.Random(28)
    for X in (Horodisk(1.0, 0.5), EuclideanSubdisk(0.1 + 0.2j, 0.4)):
        Y = mobius_image(X, m)
        for _ in range(1000):
            z = _rand_point(rng, 0.999)
            assert Y.contains(m(z)) == X.contains(z)
        for _ in range(50):
            u = X.riemann_to(_rand_point(rng, 0.8))
            v = X.riemann_to(_rand_point(rng, 0.8))
            assert Y.rho_X(m(u), m(v)) == pytest.approx(X.rho_X(u, v), abs=1e-10)
            assert Y.inradius_at(m(u)) == pytest.approx(X.inradius_at(u), abs=1e-10)


def test_covering_with_basepoint_pins_and_isometry():
    X = Horodisk(1.0, 0.5)
    rng = random.Random(29)
    for theta in (0.0, 1.0, math.pi):
        pi_map = covering_with_basepoint(X, 0.2j, 0.7 + 0.1j, theta)
        assert abs(complex(pi_map(0.2j)) - (0.7 + 0.1j)) < 1e-12
        for _ in range(100):
            z, w = _rand_point(rng), _rand_point(rng)
            assert X.rho_X(pi_map(z), pi_map(w)) == pytest.approx(
                rho(z, w), abs=1e-10
            )


def test_covering_requires_member_basepoint():
    with pytest.raises(PreconditionError):
        covering_with_basepoint(Horodisk(1.0, 0.5), 0j, -0.5, 0.0)


def test_parse_domain_grammar():
    assert isinstance(parse_domain("disk(0,0,0.5)"), EuclideanSubdisk)
    assert isinstance(parse_domain("horodisk(0, 0.5)"), Horodisk)
    assert isinstance(parse_domain("rdense(0.5,2)"), RDenseComplement)
    horo = parse_domain("horodisk(1.5707963267948966,0.5)")
    assert abs(complex(horo.tangency) - 1j) < 1e-12
    bad_specs = ("disk(0,0)", "disk(0,0,0.5", "blob(1)", "disk(a,b,c)", "disk")
    non_finite = ("horodisk(nan,0.5)", "rdense(nan,3)", "disk(0,0,inf)", "horodisk(0,1e999)")
    for bad in bad_specs + non_finite:
        with pytest.raises(PreconditionError):
            parse_domain(bad)


def test_rdense_refuses_oversized_net_before_allocating():
    # rdense(0.5,8) would hold 4.4e7 punctures (674 MiB).
    with pytest.raises(PreconditionError, match="punctures"):
        RDenseComplement(0.5, 8.0)
    with pytest.raises(PreconditionError, match="punctures"):
        RDenseComplement(0.5, math.inf)


def test_rho_x_requires_membership():
    X = Horodisk(1.0, 0.5)
    with pytest.raises(PreconditionError):
        X.rho_X(0.5, -0.5)


def _mobius_entry(X, m):
    # The closed-form image, under an id that names what it is the image of.
    return pytest.param(mobius_image(X, m), id=f"mobius_image({X.describe()})")


def _membership_catalog():
    net = RDenseComplement(0.5, 2.0)
    horo = Horodisk(cmath.exp(0.7j), 0.5)
    disk = EuclideanSubdisk(0.1 + 0.2j, 0.4)
    entries = [
        disk,
        net,
        _mobius_entry(horo, MobiusAut(0.3 + 0.1j, 0.7)),
        _mobius_entry(disk, MobiusAut(-0.2 + 0.4j, 2.0)),
        StretchedDomain(horo, RadialStretch(2.0)),
        StretchedDomain(net, RadialStretch(1.7)),
    ]
    # Every size-0.5 horodisk passes exactly through 0.
    entries += [Horodisk(cmath.exp(1j * a), 0.5) for a in (0.0, 0.7, 2.0, math.pi, 4.5)]
    return entries


# The catalog's horodisk tangencies pulled in by 1 to 11 ulps, and a ring
# 3 ulps inside the unit circle.
_ULP = 2.0**-53
_NEAR_EDGE = [
    (1.0 - k * _ULP) * cmath.exp(1j * a)
    for a in (0.0, 0.7, 2.0, math.pi, 4.5)
    for k in range(1, 12)
] + list((1.0 - 3 * _ULP) * np.exp(2j * math.pi * np.arange(64) / 64))
# Points that fail the edge test before any entry's own test may see
# them: a NaN, infinities, and a finite point whose modulus overflows.
_NOT_FINITE = [complex("nan"), complex("inf"), complex(-math.inf, 0.5), 1.7e308 + 1.7e308j]


@pytest.mark.parametrize("X", _membership_catalog(), ids=lambda X: X.describe())
@given(
    ts=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=64),
    picks=st.lists(st.integers(0, 10**6), max_size=16),
    zs=st.lists(st.complex_numbers(max_magnitude=1.0), max_size=32),
)
def test_contains_answers_arrays_as_points(X, ts, picks, zs):
    # Points exactly on edges: 0, punctures and boundary-curve samples,
    # and the disk's own edge: every member must pass disk_point.
    # The non-finite points must pass without an error or a warning.
    pts = [0j, *zs, *_NEAR_EDGE, *_NOT_FINITE]
    if X.punctures is not None:
        pts += [X.punctures[k % X.punctures.size] for k in picks]
    else:
        pts += list(X.boundary_point(np.array(ts)))
    arr = np.array(pts, dtype=complex)
    alone = [X.contains(complex(p)) for p in arr]
    assert all(type(v) is bool for v in alone)
    got = X.contains(arr)
    assert got.shape == arr.shape and got.dtype == bool
    assert got.tolist() == alone
    assert X.contains(arr.reshape(1, -1)).tolist() == [alone]
    assert all(inside(p) for p, member in zip(arr, alone) if member)


_NOT_FINITE = [complex("nan"), complex("inf"), complex(-math.inf, 0.5), 1.7e308 + 1.7e308j]


def _parameterized_catalog():
    disk = EuclideanSubdisk(0.1 + 0.2j, 0.4)
    horos = [
        Horodisk(cmath.exp(2j * math.pi * k / 8), size)
        for k in range(8)
        for size in (0.3, 0.4, 0.5, 0.6, 0.7)
    ]
    return [
        disk,
        *horos,
        _mobius_entry(Horodisk(cmath.exp(0.7j), 0.5), MobiusAut(0.3 + 0.1j, 0.7)),
        _mobius_entry(disk, MobiusAut(-0.2 + 0.4j, 2.0)),
    ]


@pytest.mark.parametrize("X", _parameterized_catalog(), ids=lambda X: X.describe())
@settings(max_examples=20)
@given(r=st.floats(0.0, 1.0 - 1e-9), phase=st.floats(0.0, 2.0 * math.pi))
def test_riemann_to_maps_into_domain(X, r, phase):
    # A map into X is trusted by its shape (self-maps, then X.riemann_to),
    # so riemann_to must land in X up to 1e-9 of the circle, in array and
    # in point arithmetic.  Each example checks two rings of 256 points.
    ring = np.exp(1j * (phase + 2.0 * math.pi * np.arange(256) / 256))
    u = np.concatenate([r * ring, (1.0 - 1e-9) * ring])
    assert X.contains(X.riemann_to(u)).all()
    assert all(X.contains(complex(X.riemann_to(complex(v)))) for v in u[::8])
