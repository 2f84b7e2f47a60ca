import cmath
import math
import random

import numpy as np
import pytest

from diskdyn.domains import (
    DomainModel,
    EuclideanSubdisk,
    Horodisk,
    MobiusImage,
    RDenseComplement,
    covering_with_basepoint,
    parse_domain,
)
from diskdyn.errors import NumericError, PreconditionError
from diskdyn.hyperbolic import MobiusAut, rho, rho_grid


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
    m = MobiusAut(0.3 + 0.1j, 0.7)
    X = Horodisk(1.0, 0.5)
    Y = MobiusImage(X, m)
    rng = random.Random(28)
    for _ in range(200):
        z = _rand_point(rng)
        assert Y.contains(m(z)) == X.contains(z)
    for _ in range(50):
        u = X.riemann_to(_rand_point(rng, 0.8))
        v = X.riemann_to(_rand_point(rng, 0.8))
        assert Y.rho_X(m(u), m(v)) == pytest.approx(X.rho_X(u, v), abs=1e-10)
        assert Y.inradius_at(m(u)) == pytest.approx(X.inradius_at(u), abs=1e-10)
    # deep path transports exactly
    for t in (1.0, 2.0, 3.0):
        assert abs(complex(Y.deep_point(t)) - m(complex(X.deep_point(t)))) < 1e-14


def test_mobius_image_of_identity_matches_base():
    X = EuclideanSubdisk(0j, 0.5)
    Y = MobiusImage(X, MobiusAut(0j, 0.0))
    assert Y.contains(0.3) and not Y.contains(0.6)
    assert Y.inradius_at(0j) == pytest.approx(X.inradius_at(0j), abs=1e-14)


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
    for bad in ("disk(0,0)", "disk(0,0,0.5", "blob(1)", "disk(a,b,c)", "disk"):
        with pytest.raises(PreconditionError):
            parse_domain(bad)


def test_rho_x_requires_membership():
    X = Horodisk(1.0, 0.5)
    with pytest.raises(PreconditionError):
        X.rho_X(0.5, -0.5)
