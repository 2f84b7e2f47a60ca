import cmath
import gc
import math
import random
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mobius_image
from diskdyn.bloch import (
    RadialStretch,
    SearchBudget,
    StretchedDomain,
    Verdict,
    bloch_radius_search,
    qc_image_experiment,
    witness_disk_verify,
)
from diskdyn import domains
from diskdyn.domains import (
    DomainModel,
    EuclideanSubdisk,
    Horodisk,
    RDenseComplement,
    parse_domain,
)
from diskdyn.errors import NumericError, PreconditionError
from diskdyn.hyperbolic import (
    HyperbolicDisk,
    MobiusAut,
    disk_point,
    inside,
    rho,
    rho_of,
    sinh2_rho,
)
from diskdyn.sampling import _CURVE_SCAN, _CURVE_SCANS, _CURVE_T, hyperbolic_lattice


def _rand_point(rng, rmax=0.95):
    r = rmax * math.sqrt(rng.random())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return r * cmath.exp(1j * phi)


def test_radial_stretch_basics():
    S = RadialStretch(2.0)
    rng = random.Random(31)
    assert S.apply(0j) == 0j and S.inverse_apply(0j) == 0j
    for _ in range(200):
        z = _rand_point(rng)
        w = S.apply(z)
        assert abs(w) == pytest.approx(abs(z) ** 2, rel=1e-12)
        assert abs(complex(S.inverse_apply(w)) - z) < 1e-12
    # radial profile in metric units: sigma(r) = atanh(tanh(r)^K)
    for r in (0.3, 1.0, 2.5):
        assert S.radial_distance(r) == pytest.approx(
            math.atanh(math.tanh(r) ** 2), rel=1e-12
        )
        assert S.inverse_radial(S.radial_distance(r)) == pytest.approx(r, rel=1e-10)


def test_radial_stretch_validation():
    for exponent in (0.5, math.inf, math.nan):
        with pytest.raises(PreconditionError, match="finite and >= 1"):
            RadialStretch(exponent)
    assert RadialStretch(1.0).apply(0.3 + 0.1j) == 0.3 + 0.1j


@pytest.mark.parametrize(
    ("exponent", "r"), [(1e14, 3.0), (1e308, 0.5), (2.0, 25.0)], ids=["1e14", "1e308", "deep"]
)
def test_inverse_radial_refuses_a_preimage_past_double_precision(exponent, r):
    # tanh(r) ** (1 / exponent) rounds to 1.0: a numeric failure naming
    # the stretch, not atanh's math domain error.
    with pytest.raises(NumericError, match=re.escape(f"exponent {exponent:g} cannot")):
        RadialStretch(exponent).inverse_radial(r)


@given(
    zs=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=1, max_size=64),
    exponent=st.floats(1.0, 4.0),
)
def test_radial_stretch_apply_arrays_as_points(zs, exponent):
    # A point stretched alone and inside an array gets the same bits.
    S = RadialStretch(exponent)
    arr = np.array(zs, dtype=complex)
    got = S.apply(arr)
    for k, z in enumerate(zs):
        assert got[k] == S.apply(arr[k]) == S.apply(z)


def test_stretched_domain_membership():
    X = Horodisk(1.0, 0.5)
    S = RadialStretch(2.0)
    Y = StretchedDomain(X, S)
    rng = random.Random(32)
    for _ in range(200):
        z = X.riemann_to(_rand_point(rng, 0.9))
        assert Y.contains(S.apply(z))
    assert not Y.contains(S.apply(-0.2 + 0j))


def test_stretched_domain_transports_depths():
    # The stretch sends the sphere rho(0, .) = r to radius radial_distance(r):
    # the image's depth cap is the base's pushed, and its probes at depth d
    # are the base's at inverse_radial(d), pushed.
    S = RadialStretch(2.0)
    net = RDenseComplement(0.5, 3.0)
    assert StretchedDomain(net, S).search_depth_cap() == S.radial_distance(net.search_depth_cap())
    X = Horodisk(1.0, 0.5)
    for depth in (1.0, 2.5, 4.0):
        assert StretchedDomain(X, S).probe_points(depth) == [
            S.apply(p) for p in X.probe_points(S.inverse_radial(depth))
        ]


def _curve_min_rho_rescanning(point, curve):
    # curve_min_rho as it was before scans took windows: every scan
    # evaluates the curve afresh.  The reference for the kept windows.
    lo, width = 0.0, 1.0
    best = math.inf
    for _ in range(_CURVE_SCANS):
        ts = lo + width * (np.arange(_CURVE_SCAN) + 0.5) / _CURVE_SCAN
        q = sinh2_rho(point, curve(ts % 1.0))
        k = int(np.argmin(q))
        best = min(best, float(q[k]))
        lo, width = ts[k] - 1.5 * width / _CURVE_SCAN, 3.0 * width / _CURVE_SCAN
    return rho_of(best)


def _assert_rescanning_bits(Y, points):
    for z in points:
        assert Y.inradius_at(z).hex() == _curve_min_rho_rescanning(z, Y.boundary_point).hex(), z


_SCANNED_BASES = [EuclideanSubdisk(0.3 - 0.2j, 0.4), Horodisk(cmath.exp(0.7j), 0.5)]


@pytest.mark.parametrize("base", _SCANNED_BASES, ids=lambda X: X.describe())
@settings(max_examples=10)
@given(
    exponent=st.floats(1.5, 3.0),
    start=st.complex_numbers(max_magnitude=0.9),
    moves=st.lists(
        st.tuples(st.sampled_from((1.0, -1.0, 1j, -1j)), st.integers(2, 40)),
        min_size=4,
        max_size=12,
    ),
)
def test_kept_windows_match_rescanning_on_walks(base, exponent, start, moves):
    # A walk of nearby centers, as the pattern search makes, zooms onto
    # the same windows again and again; each kept window gives the bits
    # of a fresh scan.
    Y = StretchedDomain(base, RadialStretch(exponent))
    z = Y.stretch.apply(base.riemann_to(start))
    walk = [z]
    for direction, halvings in moves:
        u = math.tanh(2.0**-halvings) * direction
        cand = (u + z) / (1.0 + z.conjugate() * u)
        if Y.contains(cand):
            z = cand
            walk.append(z)
    _assert_rescanning_bits(Y, walk)


@pytest.mark.parametrize("base", _SCANNED_BASES, ids=lambda X: X.describe())
@settings(max_examples=10)
@given(exponent=st.floats(1.5, 3.0), eps=st.floats(1e-7, 1e-4))
def test_kept_windows_tell_apart_windows_with_one_lo(base, exponent, eps):
    # Next to the curve's second sample the second window is (0.0, 3 /
    # _CURVE_SCAN): keyed on lo alone, it would be the first window (0, 1).
    Y = StretchedDomain(base, RadialStretch(exponent))
    b = complex(Y.boundary_point(_CURVE_T[1]))
    z = b + eps * (Y.anchor - b)
    assert Y.contains(z)
    assert np.argmin(sinh2_rho(z, Y.boundary_point(_CURVE_T))) == 1
    _assert_rescanning_bits(Y, [z, z])


@settings(max_examples=10)
@given(
    exponent=st.floats(1.5, 3.0),
    cell=st.floats(-0.95, 0.95).filter(lambda c: abs(c) >= 0.02),
    eps=st.floats(1e-7, 1e-4),
)
def test_kept_windows_wrap_past_the_tangency(exponent, cell, eps):
    # Next to the tangency, t = 0, the nearest first sample is the first or
    # the last, so the next windows reach past 0 or past 1 and wrap.
    base = _SCANNED_BASES[1]
    Y = StretchedDomain(base, RadialStretch(exponent))
    b = complex(Y.boundary_point((cell * 0.5 / _CURVE_SCAN) % 1.0))
    z = b + eps * (Y.anchor - b)
    assert Y.contains(z)
    assert np.argmin(sinh2_rho(z, Y.boundary_point(_CURVE_T))) in (0, _CURVE_SCAN - 1)
    _assert_rescanning_bits(Y, [z, z])


def test_stretched_search_keeps_windows_and_frees_its_domain(monkeypatch):
    # A stretched horodisk's search evaluates the base curve for far fewer
    # scans than it makes, keeps at most _CURVE_WINDOWS windows, and its
    # domain, windows included, goes by reference counting alone.
    calls = {"curve": 0, "queries": 0}
    sizes, seen = [], []
    curve, query = Horodisk.boundary_point, domains.curve_min_rho
    window = DomainModel._boundary_window

    def counted_curve(self, t):
        calls["curve"] += 1
        return curve(self, t)

    def counted_query(point, scan):
        calls["queries"] += 1
        return query(point, scan)

    def observed_window(self, lo, width):
        if not seen:
            seen.append(weakref.ref(self))
        coords = window(self, lo, width)
        sizes.append(len(self._windows))
        return coords

    monkeypatch.setattr(Horodisk, "boundary_point", counted_curve)
    monkeypatch.setattr(domains, "curve_min_rho", counted_query)
    monkeypatch.setattr(DomainModel, "_boundary_window", observed_window)
    gc.disable()
    try:
        qc_image_experiment(parse_domain("horodisk(0,0.5)"), RadialStretch(2.0))
        assert seen[0]() is None
    finally:
        gc.enable()
    # Rescanning evaluates the curve _CURVE_SCANS times a query.
    assert calls["curve"] < 2 * calls["queries"]
    assert max(sizes) == domains._CURVE_WINDOWS


def test_search_subdisk_oracle():
    rep = bloch_radius_search(EuclideanSubdisk(0j, 0.5))
    assert rep.verdict.kind == "bloch_up_to"
    assert rep.best_inradius == pytest.approx(math.atanh(0.5), abs=1e-3)
    # frozen refined value for regression
    assert rep.best_inradius == pytest.approx(0.5493061443340549, abs=1e-9)
    assert rep.witness is None


def test_search_horodisk_witness_at_depth_five():
    budget = SearchBudget(depth=5.0)
    rep = bloch_radius_search(Horodisk(1.0, 0.5), budget)
    assert rep.verdict.kind == "non_bloch_witness"
    assert rep.best_inradius >= 3.0
    assert rep.best_inradius == pytest.approx(5.0, abs=1e-6)
    assert rep.witness is not None
    assert rep.witness.radius >= 3.0


class _FlatDomain(DomainModel):
    # The whole disk with one inradius everywhere: every center ties.
    relatively_compact = expected_bloch = simply_connected = True
    anchor = disk_point(0.1 - 0.2j)

    def describe(self):
        return "flat"

    def inradius_at(self, a):
        return 0.5


def test_search_breaks_ties_on_smallest_coordinates():
    X = _FlatDomain()
    budget = SearchBudget()
    lattice = hyperbolic_lattice(budget.depth, budget.ring_step, budget.angular_cap)
    pts = [0j, complex(X.anchor), *lattice]
    rep = bloch_radius_search(X, budget)
    assert complex(rep.best_center) == min(pts, key=lambda p: (p.real, p.imag))
    assert rep.verdict == Verdict("bloch_up_to", 0.5)


def test_search_monotone_in_depth():
    X = Horodisk(1.0, 0.5)
    vals = [
        bloch_radius_search(X, SearchBudget(depth=d)).best_inradius
        for d in (3.0, 4.0, 5.0)
    ]
    assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9
    assert vals == pytest.approx([3.0, 4.0, 5.0], abs=1e-6)


def test_search_rdense_stays_bounded():
    rep = bloch_radius_search(RDenseComplement(0.5, 4.0))
    assert rep.verdict.kind == "bloch_up_to"
    assert rep.best_inradius <= 0.55
    assert rep.best_inradius == pytest.approx(0.5, abs=1e-6)


def test_search_rotation_equivariance():
    base = bloch_radius_search(Horodisk(1.0, 0.5))
    rot = bloch_radius_search(Horodisk(cmath.exp(1.1j), 0.5))
    assert rot.best_inradius == pytest.approx(base.best_inradius, abs=1e-9)
    assert rot.verdict.kind == base.verdict.kind


def test_search_mobius_equivariance_within_budget():
    # the candidate region rho(0, .) <= depth is anchored at the origin, so
    # a transport can change the best reachable inradius by at most the
    # displacement of the origin
    X = Horodisk(1.0, 0.5)
    m = MobiusAut(0.2 + 0.1j, 0.4)
    shift = rho(0.0, m(0j))
    base = bloch_radius_search(X)
    moved = bloch_radius_search(mobius_image(X, m))
    assert moved.verdict.kind == base.verdict.kind
    assert abs(moved.best_inradius - base.best_inradius) <= shift + 1e-6


def test_witness_disk_verify():
    X = Horodisk(1.0, 0.5)
    center = complex(X.deep_point(3.0))
    good = HyperbolicDisk(center, 2.9)
    assert witness_disk_verify(X, good)
    bad = HyperbolicDisk(0j, math.atanh(0.5) + 0.1)
    assert not witness_disk_verify(EuclideanSubdisk(0j, 0.5), bad)


@pytest.mark.parametrize(
    "image",
    [
        lambda net: net,
        lambda net: StretchedDomain(net, RadialStretch(2.0)),
    ],
    ids=["net", "stretched"],
)
def test_witness_disk_verify_sees_punctures(image):
    # No sample point lands on a puncture, so only the puncture distances
    # can show that these disks are not in the domain.
    X = image(RDenseComplement(0.5, 3.0))
    assert X.inradius_at(0j) < 2.0
    assert not witness_disk_verify(X, HyperbolicDisk(0j, 2.0))
    # A disk of radius inradius_at is accepted, one 1e-9 larger is not.
    for center in (0j, 0.2j):
        inradius = X.inradius_at(center)
        assert witness_disk_verify(X, HyperbolicDisk(center, inradius))
        assert not witness_disk_verify(X, HyperbolicDisk(center, inradius + 1e-9))


def test_qc_identity_is_exact_reproduction():
    X = Horodisk(1.0, 0.5)
    budget = SearchBudget(depth=4.0)
    a = bloch_radius_search(X, budget)
    b = qc_image_experiment(X, RadialStretch(1.0), budget)
    assert complex(a.best_center) == complex(b.best_center)
    assert a.best_inradius == b.best_inradius
    assert a.verdict == b.verdict


def test_qc_preserves_verdict_class():
    budget = SearchBudget(depth=4.0)
    horo = Horodisk(1.0, 0.5)
    for K in (2.0, 4.0):
        rep = qc_image_experiment(horo, RadialStretch(K), budget)
        assert rep.verdict.kind == "non_bloch_witness"
        assert rep.best_inradius >= 1.0
    net = RDenseComplement(0.5, 4.0)
    rep = qc_image_experiment(net, RadialStretch(2.0), budget)
    assert rep.verdict.kind == "bloch_up_to"
    assert rep.best_inradius <= 0.55


def test_budget_validation():
    with pytest.raises(PreconditionError):
        SearchBudget(depth=-1.0)
    with pytest.raises(PreconditionError):
        SearchBudget(ring_step=0.0)
    with pytest.raises(PreconditionError):
        SearchBudget(witness_samples=10)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "knob", ["depth", "ring_step", "angular_cap", "refine_iters", "witness_threshold", "witness_samples"]
)
def test_budget_rejects_non_finite(knob, bad):
    # A NaN or infinite knob is refused when the budget is built, not met
    # later as a ValueError from int(depth) or a silent search.
    with pytest.raises(PreconditionError):
        SearchBudget(**{knob: bad})


def test_subdisk_witness_certifies_on_the_second_shrink():
    # The full inradius fails sample certification; the witness is the
    # ladder's second rung, 1e-12 below it.
    rep = bloch_radius_search(EuclideanSubdisk(0j, 0.8))
    assert rep.verdict == Verdict("non_bloch_witness", rep.best_inradius - 1e-12)
    assert rep.best_inradius == 1.0986122886681098
    assert not witness_disk_verify(EuclideanSubdisk(0j, 0.8), HyperbolicDisk(0j, rep.best_inradius), 10_000)


def test_search_depth_past_the_disk_edge_adds_nothing():
    # No lattice ring past artanh(1 - 1e-15) ~ 17.6 holds a disk point, so
    # a depth of 400 searches what the default depth does.
    X = EuclideanSubdisk(0j, 0.3)
    deep = bloch_radius_search(X, SearchBudget(depth=400.0))
    shallow = bloch_radius_search(X)
    assert deep.best_center == shallow.best_center
    assert deep.best_inradius == shallow.best_inradius
    lattice = hyperbolic_lattice(400.0, 0.25, 64)
    assert inside(lattice).all()
    assert np.array_equal(lattice, hyperbolic_lattice(17.5, 0.25, 64))


def test_search_rejects_exhausted_depth():
    # a single puncture circle covers nothing beyond the mesh itself
    X = RDenseComplement(0.5, 0.5)
    assert X.search_depth_cap() == pytest.approx(0.0)
    with pytest.raises(PreconditionError):
        bloch_radius_search(X)
